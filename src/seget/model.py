"""The SegET network.

Topology: `depth` encoder blocks (three stride-1 convs, the third
reducing channels for the skip tap, then a stride-2 conv replacing
pooling), a center of two feature convs plus parallel dilated branches
whose outputs are stacked with the encoded input and reduced by a 1x1
conv, `depth` decoder blocks (bilinear 2x, skip concat, two convs), and
a multi-level fusion stage that progressively merges the deeper decoder
outputs before two refining convs and the final 1x1 logit conv. Every
conv is followed by BN and ReLU except the logit conv, which must stay
unbounded. Units only compose ops: each unit calls ops.conv2d_* and then
the BN+ReLU pair ops.batchnorm_relu_*.

One static node list, built with the layers, drives forward (the
training walk), infer (the inference walk: the same conv and upsample
ops, their caches dropped), backward (replay it in reverse, summing
fan-out gradients per slot) and describe() (propagate shapes only). A
concat node's value is the list of its inputs' values, which the conv
reading it takes as its sources, so no concat op runs in any walk.
Forward caches are held per layer and per upsample node and stay valid
until the next forward, so repeated backward calls accumulate gradients
additively; infer leaves them alone. Both forward and infer keep
activations channel-major in memory (see ops); their Tensors still have
NCHW shapes.

SegETNetwork(config) draws nothing: build() is the one place that draws
weights, and load_checkpoint fills saved values into a bare network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import ops
from .tensor import (
    ROLE_BN_BETA,
    ROLE_BN_GAMMA,
    ROLE_CONV_BIAS,
    ROLE_CONV_KERNEL,
    ConvSpec,
    Parameter,
    Tensor,
)


# Fixed choices of the one network this package builds, echoed by the
# checkpoints of earlier versions, which carried them as config fields.
INPUT_CHANNELS = 1       # electron tomograms are single-channel
SKIP_REDUCTION = 2       # a skip tap carries half of its block's filters
_FIXED_KEYS = {
    "input_channels": INPUT_CHANNELS,
    "skip_reduction": SKIP_REDUCTION,
    "center_concat_input": True,    # the center input is always stacked
    "upsample_mode": "half_pixel",  # the only upsampling rule
}


@dataclass
class NetworkConfig:
    base_filters: int = 16
    depth: int = 4
    dilation_rates: tuple[int, ...] = (1, 2, 4, 8)
    dtype: str = "float32"

    def __post_init__(self) -> None:
        self.dilation_rates = tuple(int(r) for r in self.dilation_rates)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        if not self.dilation_rates or any(r < 1 for r in self.dilation_rates):
            raise ValueError("dilation_rates must be non-empty with all rates >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")

    @property
    def downsample_factor(self) -> int:
        return 2 ** self.depth

    def filters(self, block: int) -> int:
        """Filter count doubles per encoder block."""
        return self.base_filters * (2 ** block)

    def skip_channels(self, block: int) -> int:
        return max(self.filters(block) // SKIP_REDUCTION, 1)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype == "float32" else np.float64)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["dilation_rates"] = list(self.dilation_rates)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """Inverse of to_dict. A key of a fixed choice is accepted only at
        its fixed value, so an echo asking for another variant is refused
        rather than loaded as this one."""
        for key, value in _FIXED_KEYS.items():
            if key in d and d[key] != value:
                raise ValueError(f"{key}={d[key]!r} is not supported; only {value!r} is")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


# ---------------------------------------------------------------------------
# conv units: each owns its parameters and one forward cache
# ---------------------------------------------------------------------------

def _zero_kernel(spec: ConvSpec, dtype) -> Parameter:
    shape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    return Parameter(np.zeros(shape, dtype=dtype), ROLE_CONV_KERNEL, regularized=True)


class _Conv:
    """The biased 1x1 logit conv, the one conv not followed by BN + ReLU."""

    def __init__(self, name: str, spec: ConvSpec, dtype):
        self.name = name
        self.spec = spec
        self.kernel = _zero_kernel(spec, dtype)
        self.bias = Parameter(np.zeros(spec.out_channels, dtype=dtype), ROLE_CONV_BIAS)
        self._cache: ops.Conv2dCache | None = None

    def forward(self, x: Tensor | list[Tensor]) -> Tensor:
        y, self._cache = ops.conv2d_forward(x, self.spec, self.kernel, self.bias)
        return y

    def backward(self, g: Tensor) -> Tensor | list[Tensor]:
        return ops.conv2d_backward(g, self._cache, self.spec, self.kernel, self.bias)

    def infer(self, x: Tensor | list[Tensor]) -> Tensor:
        """forward without keeping the cache."""
        return ops.conv2d_forward(x, self.spec, self.kernel, self.bias)[0]

    def parameters(self) -> dict[str, Parameter]:
        return {f"{self.name}.kernel": self.kernel, f"{self.name}.bias": self.bias}


class _ConvBnRelu:
    """conv 3x3/1x1 -> batchnorm -> relu, the repeated unit of the network:
    ops.conv2d_* composed with ops.batchnorm_relu_*.

    The conv carries no bias: batch normalization's mean subtraction
    absorbs any constant shift, so the parameter would be dead weight.

    In training the unit stores two arrays: the conv's input in its tap
    layout (_cache) and BN's xhat (_bn_cache), from which backward
    recomputes the ReLU mask.
    """

    def __init__(self, name: str, spec: ConvSpec, dtype):
        self.name = name
        self.spec = spec
        self.kernel = _zero_kernel(spec, dtype)
        self.gamma = Parameter(np.ones(spec.out_channels, dtype=dtype), ROLE_BN_GAMMA)
        self.beta = Parameter(np.zeros(spec.out_channels, dtype=dtype), ROLE_BN_BETA)
        self.state = ops.BatchNormState.create(spec.out_channels, dtype)
        self._cache: ops.Conv2dCache | None = None
        self._bn_cache: ops.BatchNormCache | None = None

    def forward(self, x: Tensor | list[Tensor]) -> Tensor:
        y, self._cache = ops.conv2d_forward(x, self.spec, self.kernel, None)
        y, self._bn_cache = ops.batchnorm_relu_forward(y, self.gamma, self.beta, self.state)
        return y

    def infer(self, x: Tensor | list[Tensor]) -> Tensor:
        """The conv without keeping a cache, then BN by the running
        statistics and ReLU in place on its output grid, as its epilogue."""
        return ops.conv2d_forward(
            x, self.spec, self.kernel, None,
            epilogue=ops.batchnorm_relu_infer(self.gamma, self.beta, self.state),
        )[0]

    def backward(self, g: Tensor) -> Tensor | list[Tensor]:
        g = ops.batchnorm_relu_backward(g, self._bn_cache, self.gamma, self.beta)
        return ops.conv2d_backward(g, self._cache, self.spec, self.kernel, None)

    def parameters(self) -> dict[str, Parameter]:
        return {f"{self.name}.kernel": self.kernel, f"{self.name}.gamma": self.gamma,
                f"{self.name}.beta": self.beta}


class _Node(NamedTuple):
    """One step of the static graph: reads the `inputs` slots, writes the
    `output` slot. Slot 0 holds the input batch; node k writes slot k + 1."""

    name: str
    kind: str  # conv | upsample | concat
    unit: _ConvBnRelu | _Conv | None
    inputs: tuple[int, ...]
    output: int


# ---------------------------------------------------------------------------
# describe() output
# ---------------------------------------------------------------------------

@dataclass
class LayerRow:
    name: str
    kind: str  # conv | upsample | concat
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    params: int
    stride: int
    dilation: int


@dataclass
class NetworkSummary:
    rows: list[LayerRow]
    total_params: int
    downsample_factor: int
    center_conv_count: int
    encoder_convs_per_block: int

    def table(self) -> str:
        lines = [f"{'name':<18}{'kind':<10}{'in':<16}{'out':<16}{'params':>8}  s  d"]
        for r in self.rows:
            lines.append(
                f"{r.name:<18}{r.kind:<10}{str(r.in_shape):<16}{str(r.out_shape):<16}"
                f"{r.params:>8}  {r.stride}  {r.dilation}"
            )
        lines.append(
            f"total params {self.total_params}; downsample x{self.downsample_factor}; "
            f"center convs {self.center_conv_count}; "
            f"encoder convs/block {self.encoder_convs_per_block}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

class SegETNetwork:
    """Instantiated layer graph with a stable-name parameter registry.

    Every parameter starts at a fixed value: zero kernels and logit bias,
    BN gamma 1 and beta 0, running mean 0 and var 1.

    A single instance is single-writer: forward, backward, and optimizer
    steps must not interleave across threads. infer only reads the
    instance, so several threads may run it on one instance at once, as
    predict's window threads do, while no training step runs.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        dt = config.np_dtype
        depth = config.depth
        base = config.base_filters
        f_top = config.filters(depth - 1)
        nodes: list[_Node] = []

        def node(name: str, kind: str, unit, *inputs: int) -> int:
            nodes.append(_Node(name, kind, unit, inputs, len(nodes) + 1))
            return len(nodes)

        def conv(name: str, spec: ConvSpec, x: int) -> tuple[_ConvBnRelu, int]:
            unit = _ConvBnRelu(name, spec, dt)
            return unit, node(name, "conv", unit, x)

        skips: list[int] = []
        prev, x = INPUT_CHANNELS, 0
        for i in range(depth):
            f = config.filters(i)
            sk = config.skip_channels(i)
            _, x = conv(f"enc{i}.c1", ConvSpec(prev, f), x)
            _, x = conv(f"enc{i}.c2", ConvSpec(f, f), x)
            _, x = conv(f"enc{i}.c3", ConvSpec(f, sk), x)
            skips.append(x)
            _, x = conv(f"enc{i}.c4", ConvSpec(sk, f, stride=2), x)
            prev = f

        center_in = x
        _, x = conv("center.c1", ConvSpec(f_top, 2 * f_top), x)
        _, x = conv("center.c2", ConvSpec(2 * f_top, 2 * f_top), x)
        self.center_branches: list[_ConvBnRelu] = []
        cat: list[int] = []
        for idx, r in enumerate(config.dilation_rates):
            branch, out = conv(f"center.b{idx}", ConvSpec(2 * f_top, f_top, dilation=r), x)
            self.center_branches.append(branch)
            cat.append(out)
        cat.append(center_in)
        x = node("center.concat", "concat", None, *cat)
        _, x = conv("center.reduce", ConvSpec(len(cat) * f_top, 2 * f_top, kernel=1), x)

        d_outs: list[int] = []
        h_ch = 2 * f_top
        for j in range(depth):
            e = depth - 1 - j
            f = config.filters(e)
            x = node(f"dec{j}.up", "upsample", None, x)
            x = node(f"dec{j}.concat", "concat", None, x, skips[e])
            _, x = conv(f"dec{j}.c1", ConvSpec(h_ch + config.skip_channels(e), f), x)
            _, x = conv(f"dec{j}.c2", ConvSpec(f, f), x)
            d_outs.append(x)
            h_ch = f

        # progressive fusion of the deeper decoder outputs (step one), then
        # merge with the last block's output and refine (step two)
        head_in = base
        if depth >= 2:
            x, h_ch = d_outs[0], f_top
            for t in range(1, depth - 1):
                d_ch = config.filters(depth - 1 - t)
                x = node(f"fuse{t}.up", "upsample", None, x)
                x = node(f"fuse{t}.concat", "concat", None, x, d_outs[t])
                _, x = conv(f"fuse{t}.c", ConvSpec(h_ch + d_ch, d_ch), x)
                h_ch = d_ch
            x = node("head.up", "upsample", None, x)
            x = node("head.concat", "concat", None, x, d_outs[-1])
            head_in += h_ch
        _, x = conv("head.c1", ConvSpec(head_in, base), x)
        _, x = conv("head.c2", ConvSpec(base, base), x)
        self.head_logit = _Conv("head.logit", ConvSpec(base, 1, kernel=1), dt)
        node("head.logit", "conv", self.head_logit, x)
        self._nodes = nodes

        self._params: dict[str, Parameter] = {}
        self._bn_states: dict[str, ops.BatchNormState] = {}
        for nd in nodes:
            if nd.kind == "conv":
                self._params.update(nd.unit.parameters())
                if isinstance(nd.unit, _ConvBnRelu):
                    self._bn_states[nd.name] = nd.unit.state

        self._op_caches: dict[str, tuple[int, int, int, int]] = {}  # per upsample node

    @property
    def parameters(self) -> dict[str, Parameter]:
        return self._params

    @property
    def bn_states(self) -> dict[str, ops.BatchNormState]:
        return self._bn_states

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    # -- forward -----------------------------------------------------------

    def _walk(self, first, step: Callable[[_Node, object], object]):
        """Slot 0 holds `first`; step(node, input value) gives each conv's and
        upsample's value, and a concat's is the list of its input values.
        Slots are freed after their last reader; returns the last value."""
        readers = Counter(s for nd in self._nodes for s in nd.inputs)
        slots = {0: first}
        for nd in self._nodes:
            xs = [slots[s] for s in nd.inputs]
            for s in nd.inputs:
                readers[s] -= 1
                if not readers[s]:
                    del slots[s]
            slots[nd.output] = xs if nd.kind == "concat" else step(nd, xs[0])
        return slots[self._nodes[-1].output]

    def _check_batch(self, batch: Tensor) -> None:
        _, c, h, w = batch.shape
        if c != INPUT_CHANNELS:
            raise ValueError(f"batch has {c} channels, network expects {INPUT_CHANNELS}")
        factor = self.config.downsample_factor
        if h % factor or w % factor:
            raise ValueError(
                f"spatial extents ({h}, {w}) must both be divisible by "
                f"2^depth = {factor} for depth {self.config.depth}"
            )

    def forward(self, batch: Tensor, mode: str = "train") -> Tensor:
        """The training walk, BN on the batch statistics: logit map, shape
        N x 1 x H x W, keeping every cache that backward needs. mode
        accepts "train" alone; inference is infer()."""
        if mode != "train":
            raise ValueError(f"forward is the training walk; got mode={mode!r}, use infer()")
        self._check_batch(batch)

        def step(nd: _Node, x: Tensor | list[Tensor]) -> Tensor:
            if nd.kind == "conv":
                return nd.unit.forward(x)
            y, self._op_caches[nd.name] = ops.bilinear_upsample_2x_forward(x)
            return y

        return self._walk(batch, step)

    def infer(self, batch: Tensor) -> np.ndarray:
        """The inference walk, BN on the running statistics, with none of
        forward's bookkeeping: no cache is kept and no state is touched,
        so a pending backward is unaffected.

        It runs forward's conv and upsample ops and drops each cache as
        the op returns, so a conv's tap layout is freed at once. A conv's
        output is a view of its GEMM grid, on which BN and ReLU run in place.
        """
        self._check_batch(batch)

        def step(nd: _Node, x: Tensor | list[Tensor]) -> Tensor:
            if nd.kind == "conv":
                return nd.unit.infer(x)
            return ops.bilinear_upsample_2x_forward(x)[0]

        return np.ascontiguousarray(self._walk(batch, step).data)

    # -- backward ----------------------------------------------------------

    def backward(self, grad_logits: Tensor) -> None:
        """Accumulates every registered parameter's gradient; input
        gradients are not exposed. The last node, head.logit, refuses a
        missing forward or a gradient of the wrong shape before any
        gradient is added."""
        # per slot, the gradients from its readers, latest reader first
        grads: dict[int, list[Tensor]] = {self._nodes[-1].output: [grad_logits]}
        for nd in reversed(self._nodes):
            parts = grads.pop(nd.output)
            g = parts[-1]
            for p in reversed(parts[:-1]):  # summed in forward reader order
                g = Tensor(g.data + p.data)
            if nd.kind == "conv":
                g_in = [nd.unit.backward(g)]
            elif nd.kind == "upsample":
                g_in = [ops.bilinear_upsample_2x_backward(g, self._op_caches[nd.name])]
            else:  # its one reader, a conv, returned the list of its inputs' gradients
                g_in = g
            for s, gs in zip(nd.inputs, g_in):
                grads.setdefault(s, []).append(gs)

    # -- introspection -----------------------------------------------------

    def describe(self, ref_hw: tuple[int, int] | None = None) -> NetworkSummary:
        """Layer table via static shape propagation at a reference input."""
        cfg = self.config
        if ref_hw is None:
            s = 4 * cfg.downsample_factor
            ref_hw = (s, s)
        shapes = {0: (1, INPUT_CHANNELS, *ref_hw)}
        feeds: dict[int, tuple[int, ...]] = {}  # slot -> inputs of its writer
        rows: list[LayerRow] = []
        for nd in self._nodes:
            n, c, h, w = shapes[nd.inputs[0]]
            if nd.kind == "conv":
                spec = nd.unit.spec
                out = (n, spec.out_channels, *spec.out_spatial(h, w))
                params = sum(p.value.size for p in nd.unit.parameters().values())
                stride, dilation = spec.stride, spec.dilation
            elif nd.kind == "upsample":
                out, params, stride, dilation = (n, c, 2 * h, 2 * w), 0, 2, 1
            else:  # parallel branches (writers fed alike) show as one input
                c = sum(shapes[s][1] for s in nd.inputs if feeds[s] == feeds[nd.inputs[0]])
                out = (n, sum(shapes[s][1] for s in nd.inputs), h, w)
                params, stride, dilation = 0, 1, 1
            rows.append(LayerRow(nd.name, nd.kind, (n, c, h, w), out, params, stride, dilation))
            shapes[nd.output] = out
            feeds[nd.output] = nd.inputs

        return NetworkSummary(
            rows=rows,
            total_params=sum(p.value.size for p in self._params.values()),
            downsample_factor=cfg.downsample_factor,
            center_conv_count=sum(
                1 for r in rows if r.kind == "conv" and r.name.startswith("center.")
            ),
            encoder_convs_per_block=sum(
                1 for r in rows if r.kind == "conv" and r.name.startswith("enc0.")
            ),
        )


def build(config: NetworkConfig, seed: int = 0) -> SegETNetwork:
    """The network with He-normal kernels (He et al. 2015): each kernel, in
    registry order, drawn from N(0, 2 / fan_in) by one default_rng(seed)."""
    net = SegETNetwork(config)
    rng = np.random.default_rng(seed)
    for p in net.parameters.values():
        if p.role == ROLE_CONV_KERNEL:
            fan_in = p.value[0].size  # in_channels * k * k
            p.value[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=p.value.shape)
    return net


def probe_center_branches(net: SegETNetwork, spatial: int = 33) -> list[tuple[int, int, int]]:
    """Receptive-field probe: feed a unit impulse through each center branch
    with an all-ones kernel (BN bypassed, no activation) and report
    (dilation_rate, support_h, support_w) of the nonzero response."""
    results = []
    for branch in net.center_branches:
        spec = branch.spec
        x = np.zeros((1, spec.in_channels, spatial, spatial), dtype=np.float64)
        x[0, 0, spatial // 2, spatial // 2] = 1.0
        ones_kernel = Parameter(
            np.ones((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)),
            "conv-kernel",
        )
        y, _ = ops.conv2d_forward(Tensor(x), spec, ones_kernel, None)
        nz = np.nonzero(np.abs(y.data[0, 0]) > 0)
        support_h = int(nz[0].max() - nz[0].min() + 1) if nz[0].size else 0
        support_w = int(nz[1].max() - nz[1].min() + 1) if nz[1].size else 0
        results.append((spec.dilation, support_h, support_w))
    return results
