"""Differentiable operators: forward passes with explicit caches and
hand-derived backward passes.

Each *_forward returns (output Tensor, cache); the matching *_backward
consumes the cache and the upstream gradient and returns the gradient
with respect to the op's input. Parameter gradients (conv kernel/bias,
BN gamma/beta) are accumulated additively onto the Parameter objects as
a side contract. Ops never mutate their inputs; caches are per
invocation, so separate invocations are independent.

A Tensor's shape is always (N, C, H, W), but its memory may be either
layout: C-contiguous NCHW, or channel-major, the (1, 0, 2, 3) transpose
of a (C, N, H, W) array (possibly a cropped view of one). Every op
accepts either. The conv and BN ops return channel-major Tensors, and
upsample and concat work on the channel-major view and keep the layout
they are given, so a training forward and backward keep every
activation and gradient channel-major in memory from the first conv
on, the layout the conv's tap GEMMs read and write.

The *_infer functions are the cache-free inference path. They work on
channel-major arrays (C, N, H, W) and return or modify plain arrays, and
each gives the same bits as the matching *_forward in infer mode:
conv2d_infer runs the same tap layout and tap loop as conv2d_forward,
and batchnorm_relu_infer repeats batchnorm_forward's infer arithmetic in
the same order, in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .tensor import ConvSpec, Parameter, Tensor

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

# Convolution runs as a loop over kernel taps (i, j), each one GEMM that
# reads a shifted column slice of one zero-padded copy of the input, in
# the manner of the accumulating kn2row algorithms of Anderson et al.,
# "Low-memory GEMM-based convolution algorithms for deep neural networks"
# (2017). The layout, with s the stride:
#
# - The padded input is split into s x s phases, phase (a, b) holding the
#   padded pixels (y, x) with y % s == a and x % s == b at phase position
#   (y // s, x // s). Stride 1 has the single phase (0, 0).
# - Each phase is stored channel-major and flat, as (C, N*Hr*Wr) plus a
#   short zero tail: sample n, phase row r, phase column q sits at column
#   n*Hr*Wr + r*Wr + q. The pitch (Hr, Wr) is the padded phase extent minus
#   the zeros that neighbours share: the right padding of one row is the
#   left padding of the next, the bottom padding of one sample the top
#   padding of the next (stride 1: Wr = W + max(left, right) pad).
# - Output pixel (n, oy, ox) reads padded pixel (oy*s + i*d, ox*s + j*d)
#   for tap (i, j), which lies in phase (i*d % s, j*d % s) at column
#   n*Hr*Wr + oy*Wr + ox + off with off = (i*d // s)*Wr + j*d // s. So tap
#   (i, j) is the GEMM out[:, m] += K[:, :, i, j] @ phase[:, m + off] over
#   the output grid columns m < M = (N-1)*Hr*Wr + (OH-1)*Wr + OW, one
#   contiguous slice per tap. Grid columns with oy >= OH or ox >= OW hold
#   garbage and are cropped away.
#
# A tap whose window lies wholly in the zero padding reads only zeros, so
# it is skipped in both directions; this is exact, and it leaves the
# dilation-8 branch on an 8x8 map one tap of nine. The M columns go in
# blocks of _BLOCK_COLS, one temporary reused per block, so the operands
# of a block stay in cache.
#
# Narrow inputs: with C channels a tap GEMM has inner dimension C, and
# below _MIN_GEMM_DEPTH that is too shallow for BLAS (at C = 1 np.matmul
# runs an outer product about 15x slower than a broadcast multiply). So
# ceil(_MIN_GEMM_DEPTH / C) consecutive taps share one GEMM, their slices
# copied into the rows of one block-sized operand; the single-channel
# input conv runs all nine taps as one GEMM of depth 9. Layers with
# C >= _MIN_GEMM_DEPTH read their input in place. An inner dimension of 1
# that remains (one live tap on one channel, or the layout gradient of a
# single-output 1x1 conv) runs as a broadcast multiply.
#
# The backward is the output-gradient form of im2col (Chetlur et al.,
# "cuDNN: Efficient primitives for deep learning", 2014) on this layout.
# Layout column p of phase (a, b) meets output grid column p - off of
# every live tap of that phase. So the output gradient g, zero-extended
# onto the grid and given a zero margin of the largest offset in front,
# is copied once per phase and block of layout columns into a shifted
# stack S, whose row block t is g[:, p - off_t] for the phase's t-th
# live tap. Two GEMMs on S give both gradients of all the phase's taps:
# the kernel gradients K_t += S_t @ phase[:, block].T, one GEMM with
# output (taps*OC, C), and the layout gradient [K_t.T ...] @ S, written
# straight into the block. S has taps*OC rows, and its blocks are cut
# narrower than _BLOCK_COLS where needed to hold at most _STACK_ELEMS
# values (4 MB at float32), so it stays a small transient.
#
# The grid columns run on to a whole multiple of _COL_QUANTUM (the extra
# columns read zeros and are cropped). The backward's blocks are whole
# multiples of it too, the last one zero-extended to the next multiple,
# so that every column count the kernel gradient's GEMM reduces over is
# one. OpenBLAS splits such a long reduction into panels differently
# with one thread than with several unless its length is a multiple of
# 64: measured on OpenBLAS 0.3.31, reductions of 500, 962 or 4097 give
# bits that depend on OPENBLAS_NUM_THREADS, and every multiple of 64 up
# to 4160 does not. The layout length itself is not rounded, so the
# forward's layout and its row pitch do not depend on the backward: with
# the length rounded to a multiple of 64, the forward-only predict-512
# benchmark read 5% slower in 9 of 10 pairs (2-core Xeon, OpenBLAS
# 0.3.31).
_BLOCK_COLS = 4096
_COL_QUANTUM = 64
_MIN_GEMM_DEPTH = 16
_STACK_ELEMS = 1 << 20


def _quantize(cols: int) -> int:
    """cols rounded up to a whole multiple of _COL_QUANTUM."""
    return -(-cols // _COL_QUANTUM) * _COL_QUANTUM


class _Tap(NamedTuple):
    i: int
    j: int
    a: int    # phase row
    b: int    # phase column
    off: int  # column offset of the slice the tap reads


class _AxisLayout(NamedTuple):
    pitch: int       # layout rows per sample (columns per row)
    spans: tuple[tuple[int, int, int], ...]  # per phase: first input index, its phase index, count


@dataclass
class Conv2dCache:
    padded: np.ndarray            # zero-padded input in the tap layout, (s, s, C, L)
    input_shape: tuple[int, int, int, int]
    out_spatial: tuple[int, int]
    rows: _AxisLayout
    cols: _AxisLayout
    taps: list[_Tap]              # live taps only
    grid_cols: int                # columns the tap GEMMs span, a multiple of _COL_QUANTUM


def _same_padding(h: int, w: int, spec: ConvSpec) -> tuple[int, int, int, int, int, int]:
    oh, ow = spec.out_spatial(h, w)
    keff = spec.effective_kernel
    ph = max((oh - 1) * spec.stride + keff - h, 0)
    pw = max((ow - 1) * spec.stride + keff - w, 0)
    # extra pixel goes to bottom/right when the total is odd
    return oh, ow, ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


def _axis_layout(extent: int, pad_lo: int, pad_hi: int, stride: int, out: int) -> _AxisLayout:
    padded = -(-(extent + pad_lo + pad_hi) // stride)
    spans = []
    for a in range(stride):
        first = (a - pad_lo) % stride
        spans.append((first, (first + pad_lo) // stride, len(range(first, extent, stride))))
    # Data of every phase ends before the pitch, and the positions past
    # the pitch that a tap reads alias the next sample's (row's) leading
    # padding, which every phase has at least padded - pitch of.
    pitch = max(out, max(p + n for _, p, n in spans), padded - min(p for _, p, _ in spans))
    return _AxisLayout(pitch, tuple(spans))


def _live(k: int, d: int, s: int, out: int, pad: int, extent: int) -> list[int]:
    """Kernel offsets along one axis whose window reads some input."""
    return [t for t in range(k) if pad <= t * d + (out - 1) * s and t * d < pad + extent]


def _phase_views(layout: np.ndarray, cache: Conv2dCache):
    """(input index, layout view) per phase: x[:, :, rows, cols] sits at view."""
    s, _, c, _ = layout.shape
    n = cache.input_shape[0]
    hr, wr = cache.rows.pitch, cache.cols.pitch
    for a, (r0, y0, ny) in enumerate(cache.rows.spans):
        for b, (c0, x0, nx) in enumerate(cache.cols.spans):
            grid = layout[a, b, :, : n * hr * wr].reshape(c, n, hr, wr)
            yield (slice(r0, None, s), slice(c0, None, s)), grid[:, :, y0 : y0 + ny, x0 : x0 + nx]


def _tap_groups(cache: Conv2dCache, kernel: np.ndarray,
                width: int) -> tuple[list[tuple[list[_Tap], np.ndarray]], np.ndarray | None]:
    """Live taps in GEMMs of depth >= _MIN_GEMM_DEPTH where the channels
    allow, each with its kernel matrix (OC, taps*C), plus the operand
    buffer that groups of more than one tap copy their slices into."""
    c = cache.input_shape[1]
    size = -(-_MIN_GEMM_DEPTH // c)
    groups = [cache.taps[t : t + size] for t in range(0, len(cache.taps), size)]
    buf = np.empty((len(groups[0]) * c, width), dtype=cache.padded.dtype) if size > 1 else None
    return [(g, np.concatenate([kernel[:, :, t.i, t.j] for t in g], axis=1)) for g in groups], buf


def _operand(layout: np.ndarray, taps: list[_Tap], m0: int, m1: int,
             buf: np.ndarray | None) -> np.ndarray:
    """The (taps*C, m1-m0) GEMM operand of a tap group for one block: a
    view into the layout for a single tap, else its slices copied into buf."""
    if len(taps) == 1:
        t = taps[0]
        return layout[t.a, t.b, :, t.off + m0 : t.off + m1]
    c = layout.shape[2]
    op = buf[: len(taps) * c, : m1 - m0]
    for r, t in enumerate(taps):
        op[r * c : (r + 1) * c] = layout[t.a, t.b, :, t.off + m0 : t.off + m1]
    return op


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b; an inner dimension of 1 is an outer product, which a
    broadcast multiply runs far faster than np.matmul."""
    if a.shape[1] == 1:
        np.multiply(a, b, out=out)
    else:
        np.matmul(a, b, out=out)


def _tap_layout(sources: list[np.ndarray], spec: ConvSpec, kernel: np.ndarray) -> Conv2dCache:
    """The conv input in the tap layout, with the geometry of the tap loop.

    sources are channel-major (C_k, N, H, W) arrays read as one input
    stacked along channels in order, so a channel concat costs nothing
    beyond the copy into the layout that every conv makes anyway.
    """
    _, n, h, w = sources[0].shape
    c = sum(src.shape[0] for src in sources)
    if c != spec.in_channels:
        raise ValueError(
            f"input has {c} channels but the spec declares in_channels={spec.in_channels}"
        )
    expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if kernel.shape != expected:
        raise ValueError(f"kernel shape {kernel.shape} does not match spec {expected}")
    oh, ow, pt, pb, pl, pr = _same_padding(h, w, spec)
    k, s, d = spec.kernel, spec.stride, spec.dilation
    rows = _axis_layout(h, pt, pb, s, oh)
    cols = _axis_layout(w, pl, pr, s, ow)
    hr, wr = rows.pitch, cols.pitch
    taps = [
        _Tap(i, j, i * d % s, j * d % s, i * d // s * wr + j * d // s)
        for i in _live(k, d, s, oh, pt, h)
        for j in _live(k, d, s, ow, pl, w)
    ]
    dtype = np.result_type(*sources, kernel)
    last = (n - 1) * hr * wr + (oh - 1) * wr + ow  # one past the last output pixel
    m = _quantize(last)
    length = max(n * hr * wr, m + max(t.off for t in taps))  # the tap slices end by m + off
    layout = np.zeros((s, s, c, length), dtype=dtype)
    cache = Conv2dCache(layout, (n, c, h, w), (oh, ow), rows, cols, taps, m)
    for src_index, view in _phase_views(layout, cache):
        c0 = 0
        for src in sources:
            view[c0 : c0 + src.shape[0]] = src[(slice(None), slice(None), *src_index)]
            c0 += src.shape[0]
    return cache


def _tap_gemm(cache: Conv2dCache, kernel: np.ndarray) -> np.ndarray:
    """The tap loop: the output grid (OC, columns), cropped by _crop."""
    layout = cache.padded
    n, hr, wr, m = cache.input_shape[0], cache.rows.pitch, cache.cols.pitch, cache.grid_cols
    oc = kernel.shape[0]
    out = np.zeros((oc, max(m, n * hr * wr)), dtype=layout.dtype)
    width = min(_BLOCK_COLS, m)
    groups, buf = _tap_groups(cache, kernel, width)
    tmp = np.empty((oc, width), dtype=layout.dtype)
    for m0 in range(0, m, _BLOCK_COLS):
        m1 = min(m, m0 + _BLOCK_COLS)
        acc, t = out[:, m0:m1], tmp[:, : m1 - m0]
        for group, kmat in groups:
            _matmul(kmat, _operand(layout, group, m0, m1, buf), t)
            acc += t
    return out


def _crop(grid: np.ndarray, cache: Conv2dCache) -> np.ndarray:
    """The output pixels of a grid, a channel-major (OC, N, OH, OW) view."""
    n, hr, wr = cache.input_shape[0], cache.rows.pitch, cache.cols.pitch
    oh, ow = cache.out_spatial
    return grid[:, : n * hr * wr].reshape(-1, n, hr, wr)[:, :, :oh, :ow]


def conv2d_forward(
    x: Tensor, spec: ConvSpec, kernel: Parameter, bias: Parameter | None
) -> tuple[Tensor, Conv2dCache]:
    """Dilated cross-correlation with "same" zero padding, plus bias.

    bias may be None for bias-free convolutions (a conv feeding straight
    into batch normalization has its bias absorbed by the mean shift).
    Runs as the tap loop described above; the cache keeps the input in
    the tap layout for the backward pass. The output is channel-major, a
    view of the cropped output grid.
    """
    cache = _tap_layout([x.data.transpose(1, 0, 2, 3)], spec, kernel.value)
    grid = _tap_gemm(cache, kernel.value)
    if bias is not None:
        grid += bias.value[:, None]
    return Tensor(_crop(grid, cache).transpose(1, 0, 2, 3)), cache


def conv2d_infer(
    sources: list[np.ndarray], spec: ConvSpec, kernel: Parameter,
    epilogue: Callable[[np.ndarray], None],
) -> np.ndarray:
    """conv2d_forward without bias and cache, on channel-major sources
    (C_k, N, H, W) stacked along channels in order; the result is a
    channel-major (OC, N, OH, OW) view of the output grid.

    epilogue runs in place on the whole grid (OC, columns) before the
    crop: a per-channel elementwise map such as a bias add or
    batchnorm_relu_infer, whose values on the cropped columns are unused.
    """
    cache = _tap_layout(sources, spec, kernel.value)
    grid = _tap_gemm(cache, kernel.value)
    epilogue(grid)
    return _crop(grid, cache)


def conv2d_backward(
    grad_out: Tensor,
    cache: Conv2dCache | None,
    spec: ConvSpec,
    kernel: Parameter,
    bias: Parameter | None,
) -> Tensor:
    """Gradient wrt the conv input; accumulates kernel.grad and bias.grad.

    The shifted-stack backward described above: grad_out is zero-extended
    onto the output grid, so the cropped grid columns contribute nothing,
    and per tap-layout phase and block of layout columns it is copied
    once into the stack S of the phase's live taps; then

    - kernel gradients of the phase's taps += S @ phase[:, block].T;
    - the layout gradient of the block = K_stack.T @ S, written in place.

    Every block holds a multiple of _COL_QUANTUM columns (the last one
    zero-extended), so the bits do not depend on the BLAS thread count.
    The input gradient is the layout gradient read back out of its
    phases, which drops the padding, into a channel-major Tensor. Skipped
    (dead) taps read only zeros, so their kernel gradient is 0 and their
    input gradient lands in the padding.
    """
    if cache is None:
        raise ValueError("conv2d_backward requires the forward cache (run forward first)")
    oh, ow = cache.out_spatial
    n, c, h, w = cache.input_shape
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, spec.out_channels, oh, ow)}"
        )
    g = grad_out.data
    if bias is not None:
        bias.add_grad(g.sum(axis=(0, 2, 3)))

    layout = cache.padded
    s, _, _, length = layout.shape
    dtype = layout.dtype
    oc, hr, wr = spec.out_channels, cache.rows.pitch, cache.cols.pitch
    margin = max(t.off for t in cache.taps)
    gz = np.zeros((oc, margin + length + _COL_QUANTUM), dtype=dtype)  # + a block's zero extension
    gz[:, margin : margin + n * hr * wr].reshape(oc, n, hr, wr)[:, :, :oh, :ow] = (
        g.transpose(1, 0, 2, 3))
    phases = [[t for t in cache.taps if (t.a, t.b) == (a, b)] for a in range(s) for b in range(s)]
    stack_rows = oc * max(len(taps) for taps in phases)
    width = min(_BLOCK_COLS, length,
                max(_COL_QUANTUM, _STACK_ELEMS // stack_rows // _COL_QUANTUM * _COL_QUANTUM))
    stack = np.empty((stack_rows, _quantize(width)), dtype=dtype)
    glayout = np.zeros_like(layout)
    gkernel = np.zeros_like(kernel.value)
    for taps in phases:
        if not taps:
            continue  # the phase's layout gradient stays 0
        a, b = taps[0].a, taps[0].b
        kstack = np.concatenate([kernel.value[:, :, t.i, t.j] for t in taps])
        gk = np.zeros_like(kstack, dtype=dtype)
        for m0 in range(0, length, width):
            m1 = min(length, m0 + width)
            cols = _quantize(m1 - m0)
            shifted = stack[: len(taps) * oc, :cols]
            for r, t in enumerate(taps):
                g0 = margin - t.off + m0
                shifted[r * oc : (r + 1) * oc] = gz[:, g0 : g0 + cols]
            x = layout[a, b, :, m0:m1]
            if cols > m1 - m0:  # the last block, zero-extended to the reduction length
                x = np.pad(x, ((0, 0), (0, cols - (m1 - m0))))
            gk += shifted @ x.T
            _matmul(kstack.T, shifted[:, : m1 - m0], glayout[a, b, :, m0:m1])
        for r, t in enumerate(taps):
            gkernel[:, :, t.i, t.j] = gk[r * oc : (r + 1) * oc]
    kernel.add_grad(gkernel)
    gx = np.empty((c, n, h, w), dtype=dtype)
    for dst, view in _phase_views(glayout, cache):
        gx[(slice(None), slice(None), *dst)] = view
    return Tensor(gx.transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

# the EMA momentum of the running statistics (Keras's default, as in the
# paper's network) and the epsilon added to every variance
BN_MOMENTUM = 0.99
BN_EPS = 1e-5


@dataclass
class BatchNormState:
    """Per-layer running statistics, updated by EMA in train mode."""

    running_mean: np.ndarray
    running_var: np.ndarray
    num_updates: int = 0
    _warned_fresh_infer: bool = False

    @classmethod
    def create(cls, channels: int, dtype: np.dtype | str = np.float32) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


@dataclass
class BatchNormCache:
    xhat: np.ndarray
    invstd: np.ndarray  # per channel
    mode: str


def running_statistics(state: BatchNormState) -> tuple[np.ndarray, np.ndarray]:
    """Inference mean and invstd = 1/sqrt(var + eps), shared by both
    inference paths so that they cannot drift apart.

    The running statistics are an EMA that starts at mean 0 and var 1, so
    after t updates m^t of their weight still sits on those start values;
    dividing it out, as Adam's bias correction does, gives mean/(1 - m^t)
    and (var - m^t)/(1 - m^t). This is computed in float64 from the
    stored EMA and cast back; the clamp at 0 guards the cancellation of
    var - m^t when m^t is near 1. Before any update the stored values are
    used as they are, with a warning.
    """
    mean, var = state.running_mean, state.running_var
    t = state.num_updates
    if t == 0:
        if not state._warned_fresh_infer:
            state._warned_fresh_infer = True
            logger.warning(
                "batchnorm inference with default-initialized running stats "
                "(mean 0 / var 1); behaves as near-identity"
            )
    else:
        decay = BN_MOMENTUM ** t
        mean = (mean.astype(np.float64) / (1.0 - decay)).astype(mean.dtype)
        var = (np.maximum(var.astype(np.float64) - decay, 0.0) / (1.0 - decay)).astype(var.dtype)
    return mean, 1.0 / np.sqrt(var + BN_EPS)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (C, M) arrays, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1)


def batchnorm_forward(
    x: Tensor, gamma: Parameter, beta: Parameter, state: BatchNormState, mode: str
) -> tuple[Tensor, BatchNormCache]:
    """Per-channel normalization over N,H,W; train mode updates running
    stats, infer mode reads them through running_statistics.

    Works on the channel-major view of x: the centred input is built once
    as a channel-major array that becomes xhat in place (train mode takes
    the variance from the dot products of its rows), and the output is
    gamma * xhat + beta, built in place from it."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    c = x.shape[1]
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ValueError(f"gamma/beta must have {c} elements")
    xcm = x.data.transpose(1, 0, 2, 3)
    if mode == "train":
        mean = xcm.mean(axis=(1, 2, 3))
    else:
        mean, invstd = running_statistics(state)
    xhat = np.subtract(xcm, mean.reshape(-1, 1, 1, 1), order="C")
    if mode == "train":
        rows = xhat.reshape(c, -1)
        var = _row_dots(rows, rows) / rows.shape[1]
        m = BN_MOMENTUM
        state.running_mean = (m * state.running_mean + (1.0 - m) * mean).astype(
            state.running_mean.dtype
        )
        state.running_var = (m * state.running_var + (1.0 - m) * var).astype(
            state.running_var.dtype
        )
        state.num_updates += 1
        invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd.reshape(-1, 1, 1, 1)
    out = xhat * gamma.value.reshape(-1, 1, 1, 1)
    out += beta.value.reshape(-1, 1, 1, 1)
    return (Tensor(out.transpose(1, 0, 2, 3)),
            BatchNormCache(xhat.transpose(1, 0, 2, 3), invstd, mode))


def batchnorm_relu_infer(
    h: np.ndarray, gamma: Parameter, beta: Parameter, state: BatchNormState
) -> None:
    """relu(batchnorm_forward(h, mode="infer")) in place on a channel-major
    array h (C, ...). The arithmetic and its order are fixed to the ones
    of batchnorm_forward's infer branch, (h - mean) * invstd, then
    gamma * xhat + beta, so the bits are the same; only the ReLU differs
    in form (np.maximum propagates NaN where relu_forward zeroes it)."""
    mean, invstd = running_statistics(state)
    per_channel = (-1,) + (1,) * (h.ndim - 1)
    h -= mean.reshape(per_channel)
    h *= invstd.reshape(per_channel)
    h *= gamma.value.reshape(per_channel)
    h += beta.value.reshape(per_channel)
    np.maximum(h, 0, out=h)


def batchnorm_backward(
    grad_out: Tensor, cache: BatchNormCache | None, gamma: Parameter, beta: Parameter
) -> Tensor:
    """Gradient wrt the BN input; accumulates gamma.grad and beta.grad.

    With the per-channel sums dbeta = sum(g) and dgamma = sum(g * xhat)
    over the m = N*H*W positions, train mode gives
    dx = gamma * invstd * (g - dbeta/m - xhat * dgamma/m); in infer mode
    the statistics are constants and dx = gamma * invstd * g. Runs on
    channel-major rows and returns a channel-major Tensor."""
    if cache is None:
        raise ValueError("batchnorm_backward requires the forward cache")
    n, c, h, w = grad_out.shape
    g = grad_out.data.transpose(1, 0, 2, 3).reshape(c, -1)
    xhat = cache.xhat.transpose(1, 0, 2, 3).reshape(c, -1)
    dgamma = _row_dots(g, xhat)
    dbeta = g.sum(axis=1)
    gamma.add_grad(dgamma)
    beta.add_grad(dbeta)
    scale = (gamma.value * cache.invstd)[:, None]
    if cache.mode == "infer":
        dx = g * scale
    else:
        m = g.shape[1]
        dx = xhat * (-dgamma / m)[:, None]
        dx += g
        dx -= (dbeta / m)[:, None]
        dx *= scale
    return Tensor(dx.reshape(c, n, h, w).transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# The network's units apply ReLU in place on BN's output and recompute its
# mask in backward (model._ConvBnRelu); these two stay as the reference
# ReLU that gradcheck and the tests compare against.
def relu_forward(x: Tensor) -> tuple[Tensor, np.ndarray]:
    mask = x.data > 0
    return Tensor(np.where(mask, x.data, 0.0)), mask


def relu_backward(grad_out: Tensor, mask: np.ndarray | None) -> Tensor:
    if mask is None:
        raise ValueError("relu_backward requires the forward cache")
    return Tensor(np.where(mask, grad_out.data, 0.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: no overflow for any finite input."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_forward(x: Tensor) -> tuple[Tensor, np.ndarray]:
    s = sigmoid(x.data)
    return Tensor(s), s


def sigmoid_backward(grad_out: Tensor, s: np.ndarray | None) -> Tensor:
    if s is None:
        raise ValueError("sigmoid_backward requires the forward cache")
    return Tensor(grad_out.data * s * (1.0 - s))


# ---------------------------------------------------------------------------
# bilinear 2x upsampling
# ---------------------------------------------------------------------------

_upsample_matrix_cache: dict[tuple[int, str], np.ndarray] = {}


def _bilinear_matrix(n_in: int, dtype: np.dtype) -> np.ndarray:
    """(2n x n) half-pixel interpolation matrix for one axis; rows sum to 1."""
    key = (n_in, np.dtype(dtype).str)
    cached = _upsample_matrix_cache.get(key)
    if cached is not None:
        return cached
    n_out = 2 * n_in
    m = np.zeros((n_out, n_in), dtype=dtype)
    for o in range(n_out):
        src = min(max((o + 0.5) / 2.0 - 0.5, 0.0), float(n_in - 1))
        i0 = int(np.floor(src))
        frac = src - i0
        i1 = min(i0 + 1, n_in - 1)
        m[o, i0] += 1.0 - frac
        m[o, i1] += frac
    _upsample_matrix_cache[key] = m
    return m


@dataclass
class UpsampleCache:
    row_matrix: np.ndarray
    col_matrix: np.ndarray
    input_shape: tuple[int, int, int, int]


def bilinear_upsample_2x_forward(x: Tensor) -> tuple[Tensor, UpsampleCache]:
    """Doubles H and W with half-pixel centers. The map is separable,
    out = Wr @ x @ Wc^T, and the backward pass is its exact transpose by
    construction."""
    _, _, h, w = x.shape
    out = bilinear_upsample_2x_infer(x.data.transpose(1, 0, 2, 3))
    return (Tensor(out.transpose(1, 0, 2, 3)),
            UpsampleCache(_bilinear_matrix(h, x.dtype), _bilinear_matrix(w, x.dtype), x.shape))


def bilinear_upsample_2x_infer(x: np.ndarray) -> np.ndarray:
    """The upsampling map alone, on the last two axes of any array."""
    wr = _bilinear_matrix(x.shape[-2], x.dtype)
    wc = _bilinear_matrix(x.shape[-1], x.dtype)
    return np.matmul(np.matmul(wr, x), wc.T)


def bilinear_upsample_2x_backward(grad_out: Tensor, cache: UpsampleCache | None) -> Tensor:
    if cache is None:
        raise ValueError("bilinear_upsample_2x_backward requires the forward cache")
    if grad_out.shape[2:] != (2 * cache.input_shape[2], 2 * cache.input_shape[3]):
        raise ValueError(
            f"grad_out spatial {grad_out.shape[2:]} does not match upsampled "
            f"{(2 * cache.input_shape[2], 2 * cache.input_shape[3])}"
        )
    g = grad_out.data.transpose(1, 0, 2, 3)
    gx = np.matmul(np.matmul(cache.row_matrix.T, g), cache.col_matrix)
    return Tensor(gx.transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# channel concatenation
# ---------------------------------------------------------------------------

def concat_channels_forward(inputs: list[Tensor]) -> tuple[Tensor, list[int]]:
    """Stack along the channel axis in argument order, which is the leading
    axis of the channel-major memory."""
    if not inputs:
        raise ValueError("concat_channels requires at least one input")
    first = inputs[0].shape
    for t in inputs[1:]:
        if (t.shape[0],) + t.shape[2:] != (first[0],) + first[2:]:
            raise ValueError(
                f"concat inputs must share N,H,W: got {first} and {t.shape}"
            )
    channels = [t.shape[1] for t in inputs]
    out = np.concatenate([t.data.transpose(1, 0, 2, 3) for t in inputs])
    return Tensor(out.transpose(1, 0, 2, 3)), channels


def concat_channels_backward(grad_out: Tensor, channels: list[int] | None) -> list[Tensor]:
    """Per input, a view of its channels of grad_out (no copy)."""
    if channels is None:
        raise ValueError("concat_channels_backward requires the forward cache")
    if grad_out.shape[1] != sum(channels):
        raise ValueError(
            f"grad_out has {grad_out.shape[1]} channels, cache expects {sum(channels)}"
        )
    grads = []
    start = 0
    for c in channels:
        grads.append(Tensor(grad_out.data[:, start : start + c]))
        start += c
    return grads
