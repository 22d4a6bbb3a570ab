"""Finite-difference gradient checking.

The harness perturbs every input coordinate with central differences at
double precision and compares against the analytic gradients an op
reports. It is the independent oracle for every hand-written backward
pass in this package; a failure is a report outcome, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ops
from .tensor import ConvSpec, Parameter, Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4

# fn(*arrays) -> (scalar value, grads aligned with arrays)
CheckedFn = Callable[..., tuple[float, Sequence[np.ndarray]]]


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}  max_rel_err={self.max_rel_err:.3e}  tol={self.tolerance:.1e}"


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over coordinates of |a-n| / max(|a|, |n|, 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def gradcheck(
    fn: CheckedFn,
    args: Sequence[np.ndarray],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float = DEFAULT_STEP,
    name: str = "op",
) -> GradCheckReport:
    """Check fn's analytic gradients against central finite differences.

    All arrays must be float64; fn must be pure in its args (it may not
    keep state between calls).
    """
    args = [np.asarray(a, dtype=np.float64) for a in args]
    _, analytic = fn(*args)
    if len(analytic) != len(args):
        raise ValueError("fn must return one gradient per argument")
    worst = 0.0
    for k, arg in enumerate(args):
        numeric = np.zeros_like(arg)
        flat = arg.ravel()
        nflat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus, _ = fn(*args)
            flat[i] = orig - step
            minus, _ = fn(*args)
            flat[i] = orig
            nflat[i] = (plus - minus) / (2.0 * step)
        worst = max(worst, relative_error(analytic[k], numeric))
    return GradCheckReport(name, worst, tolerance, worst <= tolerance)


# ---------------------------------------------------------------------------
# operator suite: every differentiable op, checked under a fixed random
# projection so the backward is exercised with a general upstream gradient
# ---------------------------------------------------------------------------

def _check(name: str, tolerance: float, proj: np.ndarray, op: Callable,
           *inputs: np.ndarray) -> GradCheckReport:
    """gradcheck of sum(y * proj), where op(g, *inputs) returns y and the
    gradients of the inputs backpropagated from the upstream gradient g."""
    def fn(*args):
        y, grads = op(Tensor(proj), *args)
        return float(np.sum(y.data * proj)), grads

    return gradcheck(fn, list(inputs), tolerance=tolerance, name=name)


def _check_conv(rng: np.random.Generator, spec: ConvSpec, shape, name: str,
                tolerance: float, sources: Sequence[int] = ()) -> GradCheckReport:
    """With sources, the input is a list of Tensors with those channel
    counts, as a decoder conv reads it, and the backward must return one
    gradient per source."""
    n, _, h, w = shape
    xs = ([rng.standard_normal((n, c, h, w)) for c in sources] if sources
          else [rng.standard_normal(shape)])
    kshape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    k0 = rng.standard_normal(kshape)
    b0 = rng.standard_normal(spec.out_channels)
    oh, ow = spec.out_spatial(h, w)
    proj = rng.standard_normal((n, spec.out_channels, oh, ow))

    def op(g, *args):
        *x, k, b = args
        kernel = Parameter(k.copy(), "conv-kernel", regularized=True)
        bias = Parameter(b.copy(), "conv-bias")
        inputs = [Tensor(a) for a in x] if sources else Tensor(x[0])
        y, cache = ops.conv2d_forward(inputs, spec, kernel, bias)
        gx = ops.conv2d_backward(g, cache, spec, kernel, bias)
        gxs = [t.data for t in gx] if sources else [gx.data]
        return y, (*gxs, kernel.grad, bias.grad)

    return _check(name, tolerance, proj, op, *xs, k0, b0)


def _check_batchnorm(rng: np.random.Generator, tolerance: float,
                     relu: bool = False) -> GradCheckReport:
    """The BN pair, or with relu the BN+ReLU pair the network's units run."""
    shape = (2, 3, 4, 4)
    x0 = rng.standard_normal(shape)
    g0 = rng.standard_normal(3) * 0.5 + 1.0
    b0 = rng.standard_normal(3) * 0.1
    proj = rng.standard_normal(shape)

    def near_kink(x):  # an output within 1e-3 of ReLU's kink at 0
        xhat = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / np.sqrt(
            x.var(axis=(0, 2, 3), keepdims=True) + ops.BN_EPS)
        return np.abs(xhat * g0[:, None, None] + b0[:, None, None]).min() < 1e-3

    while relu and near_kink(x0):  # finite differences are valid off the kink
        x0 = rng.standard_normal(shape)
    forward, backward = ((ops.batchnorm_relu_forward, ops.batchnorm_relu_backward) if relu
                         else (ops.batchnorm_forward, ops.batchnorm_backward))

    def op(g, x, gm, b):
        gamma = Parameter(gm.copy(), "bn-gamma")
        beta = Parameter(b.copy(), "bn-beta")
        state = ops.BatchNormState.create(3, dtype=np.float64)
        y, cache = forward(Tensor(x), gamma, beta, state)
        gx = backward(g, cache, gamma, beta)
        return y, (gx.data, gamma.grad, beta.grad)

    return _check("batchnorm_relu(train)" if relu else "batchnorm(train)",
                  tolerance, proj, op, x0, g0, b0)


def _check_relu(rng: np.random.Generator, tolerance: float) -> GradCheckReport:
    shape = (2, 3, 5, 5)
    # keep values away from the kink at 0 so finite differences are valid
    x0 = rng.standard_normal(shape)
    x0[np.abs(x0) < 1e-3] += 0.1
    proj = rng.standard_normal(shape)

    def op(g, x):
        y, cache = ops.relu_forward(Tensor(x))
        return y, (ops.relu_backward(g, cache).data,)

    return _check("relu", tolerance, proj, op, x0)


def _check_sigmoid(rng: np.random.Generator, tolerance: float) -> GradCheckReport:
    shape = (2, 2, 4, 4)
    x0 = rng.standard_normal(shape) * 2.0
    proj = rng.standard_normal(shape)

    def op(g, x):
        s = ops.sigmoid(x)
        return Tensor(s), (ops.sigmoid_backward(g, s).data,)

    return _check("sigmoid", tolerance, proj, op, x0)


def _check_upsample(rng: np.random.Generator, tolerance: float) -> GradCheckReport:
    shape = (2, 2, 3, 4)
    x0 = rng.standard_normal(shape)
    proj = rng.standard_normal((2, 2, 6, 8))

    def op(g, x):
        y, cache = ops.bilinear_upsample_2x_forward(Tensor(x))
        return y, (ops.bilinear_upsample_2x_backward(g, cache).data,)

    return _check("bilinear_upsample_2x(half_pixel)", tolerance, proj, op, x0)


def _check_concat(rng: np.random.Generator, tolerance: float) -> GradCheckReport:
    a0 = rng.standard_normal((2, 2, 4, 4))
    b0 = rng.standard_normal((2, 3, 4, 4))
    proj = rng.standard_normal((2, 5, 4, 4))

    def op(g, a, b):
        y, cache = ops.concat_channels_forward([Tensor(a), Tensor(b)])
        ga, gb = ops.concat_channels_backward(g, cache)
        return y, (ga.data, gb.data)

    return _check("concat_channels", tolerance, proj, op, a0, b0)


def run_network_suite(
    seed: int = 0, tolerance: float = 1e-3, step: float = DEFAULT_STEP
) -> list[GradCheckReport]:
    """Whole-network check on a tiny configuration (base 2, depth 1,
    rates (1, 2), input 1x1x8x8): every parameter's analytic gradient of
    the sum-of-logits against central finite differences.

    The training BN uses batch statistics only, so the perturbed forward
    is a smooth function of the parameters even though running stats
    keep updating.
    """
    from .model import NetworkConfig, build

    cfg = NetworkConfig(base_filters=2, depth=1, dilation_rates=(1, 2), dtype="float64")
    net = build(cfg, seed=seed)
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((1, 1, 8, 8)))

    def loss() -> float:
        return float(net.forward(x).data.sum())

    loss()
    net.zero_grads()
    net.backward(Tensor(np.ones((1, 1, 8, 8))))

    # p.value is contiguous float64, so gradcheck perturbs it in place;
    # forward leaves p.grad, the analytic gradient, as backward left it
    return [
        gradcheck(lambda _: (loss(), (p.grad,)), [p.value],
                  tolerance=tolerance, step=step, name=f"net:{name}")
        for name, p in net.parameters.items()
    ]


def run_operator_suite(
    seeds: Sequence[int] = range(10), tolerance: float = DEFAULT_TOLERANCE
) -> list[GradCheckReport]:
    """Finite-difference checks for every differentiable operator.

    Conv variants cover stride 2, dilation, and 1x1 kernels; every check
    runs once per seed on fresh random inputs. The stride-2 "same"
    padding is 0 top / 1 bottom on an even extent and 1 / 1 on an odd
    one, so the 7x6 case mixes both on a non-square input. The last two
    checks are the backward paths every training step runs: the BN+ReLU
    pair and a conv on two sources, as a decoder conv reads its skip and
    upsampled inputs.
    """
    conv_variants = [
        ("conv2d(3x3,s1,d1)", ConvSpec(3, 4, kernel=3, stride=1, dilation=1), (2, 3, 6, 6)),
        ("conv2d(3x3,s2,d1)", ConvSpec(2, 3, kernel=3, stride=2, dilation=1), (2, 2, 6, 6)),
        ("conv2d(3x3,s2,d1,7x6)", ConvSpec(2, 3, kernel=3, stride=2, dilation=1), (2, 2, 7, 6)),
        ("conv2d(3x3,s1,d2)", ConvSpec(2, 2, kernel=3, stride=1, dilation=2), (1, 2, 7, 7)),
        ("conv2d(3x3,s1,d4)", ConvSpec(1, 2, kernel=3, stride=1, dilation=4), (1, 1, 9, 9)),
        ("conv2d(1x1,s1,d1)", ConvSpec(3, 2, kernel=1, stride=1, dilation=1), (2, 3, 5, 5)),
    ]
    reports: list[GradCheckReport] = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for name, spec, shape in conv_variants:
            reports.append(_check_conv(rng, spec, shape, f"{name}[seed={seed}]", tolerance))
        reports.append(_check_batchnorm(rng, tolerance))
        reports.append(_check_relu(rng, tolerance))
        reports.append(_check_sigmoid(rng, tolerance))
        reports.append(_check_upsample(rng, tolerance))
        reports.append(_check_concat(rng, tolerance))
        reports.append(_check_batchnorm(rng, tolerance, relu=True))
        reports.append(_check_conv(rng, ConvSpec(5, 3), (2, 5, 6, 6),
                                   f"conv2d(3x3,s1,d1,2 sources)[seed={seed}]", tolerance,
                                   sources=(2, 3)))
    return reports
