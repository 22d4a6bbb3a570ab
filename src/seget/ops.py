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
upsample works on the channel-major view and keeps the layout it is
given, so a training forward and backward keep every activation and
gradient channel-major in memory from the first conv on, the layout the
conv's tap GEMMs read and write. No concat runs on either path: the
convs also take a list of sources, read as one input stacked along
channels, and conv2d_backward then returns one gradient per source;
concat_channels_* are reference ops.

The network's conv -> BN -> ReLU unit trains as conv2d_* then the pair
batchnorm_relu_forward/backward; _bn_affine, gamma * xhat + beta, is
the one BN output computation of every path and of the ReLU mask.

BN has one mode per walk. batchnorm_forward is the training BN: it
normalizes by the batch statistics and updates the running ones.
Inference runs the same conv and upsample ops and drops their caches at
once; its BN is the epilogue that batchnorm_relu_infer returns, which
conv2d_forward runs in place on its output grid, part by part,
normalizing by the running statistics.

Inside a pool scope the convs and the per-channel ops split over the
worker threads with the bits of one thread (see the conv section).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import pool
from .tensor import ConvSpec, Parameter, Tensor


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
# blocks of _BLOCK_COLS, so the operands of a block stay in cache. The
# first tap group of a block writes the output grid's block through
# out=, the others go through one temporary reused per block and add to
# it; only grid columns past M (cropped, never written) are zeroed.
#
# All of this geometry (pitches, phase spans, live taps and their kernel
# indices per phase, M and the layout length) depends only on the input
# shape and the ConvSpec, so _geometry computes it once per shape and
# caches it. The cached values are immutable, tuples and read-only index
# arrays, so separate networks may share them across threads. The layout
# itself stays one zero-filled allocation: zeroing only the padding
# strips of an uninitialised one (strided writes of 1-8 columns per row)
# measured no faster per training step, at base 4 on 64^2 or at base 16
# on 128^2 (2-core Xeon, one BLAS thread).
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
# values (4 MB at float32), so it stays a small transient. Those writes
# cover every column of a phase that has a live tap, so the layout
# gradient is allocated uninitialised and only phases no tap reads are
# zeroed. With stride 1 the input pixels sit in the one phase at fixed
# pitches, so the input gradient is a channel-major view of the layout
# gradient; with stride 2 they are gathered out of the four phases.
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
#
# Inside a pool scope (seget.pool: train.fit and predict enter one) the
# training step runs on every worker, in contiguous parts, and every
# output keeps the bits of one thread at any worker count:
#
# - A large conv splits its blocks. The forward cuts its grid into equal
#   _COL_QUANTUM-aligned blocks, no wider than _BLOCK_COLS and as many as
#   a multiple of the workers, so a grid that fits one block splits too;
#   cutting a GEMM's columns leaves the bits of each column as they are.
#   Each part's columns get the bias and the epilogue (inference's
#   BN+ReLU) on the worker that ran their GEMMs, once the part's blocks
#   are done: run per block instead, the epilogue's five passes made an
#   inference at base 4 on 64^2 5% slower and one at base 16 on 128^2 3%
#   slower (one BLAS thread, 30 and 16 pairs). The backward splits
#   its (phase, block) items. Every part makes its own scratch (operand
#   buffer, temporary, stack, zero-extended last block). The forward's
#   blocks write disjoint grid columns and the backward's items disjoint
#   layout-gradient columns. The kernel gradient of a phase is the chain
#   ((0 + P_0) + P_1) + ... of its blocks' partials
#   P = S @ phase[:, block].T: every part keeps its partials, and the
#   calling thread adds them in phase-then-block order after the parts
#   end. Only a conv of at least _SPLIT_MACS multiply-adds (grid columns *
#   OC * C * live taps) splits: below it the hand-off costs more than the
#   second core saves. At base 4 on 64^2 no conv reaches it (the largest,
#   fuse1.c, is 23.9M at batch 12), at base 16 on 128^2 most do. Splitting
#   every conv slowed a base-4, 64^2 training step by 4% (2-core Xeon, one
#   BLAS thread, 30 pairs).
# - The per-channel work splits by contiguous channel rows
#   (_channel_parts): batch norm's forward and backward, the ReLU of the
#   BN+ReLU pair, both directions of the upsample, and the copies into a
#   conv's tap layout and into its zero-extended output gradient. Each
#   channel's reductions (BN's mean, variance and gradient sums) run whole
#   on one thread, so they have the bits of an unsplit call; the running
#   statistics and the gamma/beta gradients are updated on the calling
#   thread after the parts end. Only an op whose largest array holds at
#   least _SPLIT_VALUES values splits: at batch 12, none does at base 4 on
#   64^2 (the largest array, a tap layout, holds 610k values) and 110 of
#   the 269 calls of a training step and an inference do at base 16 on
#   128^2.
_BLOCK_COLS = 4096
_COL_QUANTUM = 64
_MIN_GEMM_DEPTH = 16
_STACK_ELEMS = 1 << 20
_SPLIT_MACS = 1 << 26
_SPLIT_VALUES = 1 << 20


def _channel_parts(channels: int, values: int, task: Callable[[slice], object]) -> list:
    """[task(rows), ...] over contiguous slices of range(channels) in order:
    one slice per worker of the pool if the op's largest array holds at
    least _SPLIT_VALUES values, else the one slice of every channel."""
    if values < _SPLIT_VALUES:
        return [task(slice(0, channels))]
    return pool.run_parts(range(channels), lambda part: task(slice(part.start, part.stop)))


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


class _Phase(NamedTuple):
    a: int
    b: int
    taps: tuple[_Tap, ...]  # the live taps that read this phase
    ij: np.ndarray          # their kernel indices: rows i and j, read-only (2, taps)


class _Geometry(NamedTuple):
    out_spatial: tuple[int, int]
    rows: _AxisLayout
    cols: _AxisLayout
    taps: tuple[_Tap, ...]      # live taps only, in kernel order
    ij: np.ndarray              # their kernel indices, read-only (2, taps)
    phases: tuple[_Phase, ...]  # all s*s phases, row-major
    grid_cols: int              # columns the tap GEMMs span, a multiple of _COL_QUANTUM
    length: int                 # layout columns per phase


@dataclass
class Conv2dCache:
    padded: np.ndarray            # zero-padded input in the tap layout, (s, s, C, L)
    input_shape: tuple[int, int, int, int]
    spec: ConvSpec                # the backward takes the geometry from _geometry
    split: tuple[int, ...] | None  # channels per source of a list input, None for one Tensor


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


def _kernel_index(taps: tuple[_Tap, ...]) -> np.ndarray:
    ij = np.array([[t.i for t in taps], [t.j for t in taps]], dtype=np.intp).reshape(2, -1)
    ij.flags.writeable = False
    return ij


@functools.lru_cache(maxsize=256)
def _geometry(n: int, h: int, w: int, spec: ConvSpec) -> _Geometry:
    """The geometry of the tap loop for one input shape, computed once."""
    oh, ow, pt, pb, pl, pr = _same_padding(h, w, spec)
    k, s, d = spec.kernel, spec.stride, spec.dilation
    rows = _axis_layout(h, pt, pb, s, oh)
    cols = _axis_layout(w, pl, pr, s, ow)
    hr, wr = rows.pitch, cols.pitch
    taps = tuple(
        _Tap(i, j, i * d % s, j * d % s, i * d // s * wr + j * d // s)
        for i in _live(k, d, s, oh, pt, h)
        for j in _live(k, d, s, ow, pl, w)
    )
    phases = []
    for a in range(s):
        for b in range(s):
            own = tuple(t for t in taps if (t.a, t.b) == (a, b))
            phases.append(_Phase(a, b, own, _kernel_index(own)))
    last = (n - 1) * hr * wr + (oh - 1) * wr + ow  # one past the last output pixel
    m = _quantize(last)
    length = max(n * hr * wr, m + max(t.off for t in taps))  # the tap slices end by m + off
    return _Geometry((oh, ow), rows, cols, taps, _kernel_index(taps), tuple(phases), m, length)


def _phase_views(layout: np.ndarray, n: int, geo: _Geometry):
    """(input index, layout view) per phase: x[:, :, rows, cols] sits at view."""
    s, _, c, _ = layout.shape
    hr, wr = geo.rows.pitch, geo.cols.pitch
    for a, (r0, y0, ny) in enumerate(geo.rows.spans):
        for b, (c0, x0, nx) in enumerate(geo.cols.spans):
            grid = layout[a, b, :, : n * hr * wr].reshape(c, n, hr, wr)
            yield (slice(r0, None, s), slice(c0, None, s)), grid[:, :, y0 : y0 + ny, x0 : x0 + nx]


def _tap_groups(geo: _Geometry, kernel: np.ndarray) -> list[tuple[tuple[_Tap, ...], np.ndarray]]:
    """Live taps in GEMMs of depth >= _MIN_GEMM_DEPTH where the channels
    allow, each with its kernel matrix (OC, taps*C)."""
    oc, c = kernel.shape[:2]
    size = -(-_MIN_GEMM_DEPTH // c)
    groups = []
    for t0 in range(0, len(geo.taps), size):
        i, j = geo.ij[:, t0 : t0 + size]
        kmat = kernel[:, :, i, j].transpose(0, 2, 1).reshape(oc, -1)
        groups.append((geo.taps[t0 : t0 + size], kmat))
    return groups


def _operand(layout: np.ndarray, taps: tuple[_Tap, ...], m0: int, m1: int,
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


def _check_stackable(sources: list[np.ndarray]) -> None:
    """Channel-major (C_k, N, H, W) arrays stacked along channels must
    share N, H and W; the error names both NCHW shapes."""
    if not sources:
        raise ValueError("a channel stack requires at least one input")
    for src in sources[1:]:
        if src.shape[1:] != sources[0].shape[1:]:
            a, b = ((x.shape[1], x.shape[0], *x.shape[2:]) for x in (sources[0], src))
            raise ValueError(f"stacked inputs must share N,H,W: got {a} and {b}")


def _tap_layout(sources: list[np.ndarray], spec: ConvSpec,
                kernel: np.ndarray) -> tuple[np.ndarray, _Geometry]:
    """The conv input in the tap layout, with the geometry of the tap loop.

    sources are channel-major (C_k, N, H, W) arrays read as one input
    stacked along channels in order, so a channel concat costs nothing
    beyond the copy into the layout that every conv makes anyway.
    """
    _check_stackable(sources)
    _, n, h, w = sources[0].shape
    c = sum(src.shape[0] for src in sources)
    if c != spec.in_channels:
        raise ValueError(
            f"input has {c} channels but the spec declares in_channels={spec.in_channels}"
        )
    expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if kernel.shape != expected:
        raise ValueError(f"kernel shape {kernel.shape} does not match spec {expected}")
    geo = _geometry(n, h, w, spec)
    s = spec.stride
    layout = np.zeros((s, s, c, geo.length), dtype=np.result_type(*sources, kernel))
    views = list(_phase_views(layout, n, geo))
    starts = list(itertools.accumulate((src.shape[0] for src in sources), initial=0))

    def copy(rows: slice) -> None:
        for src_index, view in views:
            for src, c0, c1 in zip(sources, starts, starts[1:]):
                lo, hi = max(c0, rows.start), min(c1, rows.stop)
                if lo < hi:  # the source's channels lo:hi lie in this part's rows
                    view[lo:hi] = src[(slice(lo - c0, hi - c0), slice(None), *src_index)]

    _channel_parts(c, layout.size, copy)
    return layout, geo


def _split(geo: _Geometry, kernel: np.ndarray) -> bool:
    """Whether a conv is large enough to run its blocks on the pool."""
    oc, c = kernel.shape[:2]
    return geo.grid_cols * oc * c * len(geo.taps) >= _SPLIT_MACS


def _blocks(m: int, split: bool) -> list[tuple[int, int]]:
    """The grid's column blocks (m0, m1): _COL_QUANTUM-aligned, equal up
    to one quantum, at most _BLOCK_COLS wide (or one quantum), and for a
    split conv as many as a multiple of the workers, so that each worker
    gets the same columns."""
    quanta = m // _COL_QUANTUM
    per = pool.workers() if split else 1
    # ceil(m / _BLOCK_COLS) rounded up to a multiple of per
    count = min(-(-m // _BLOCK_COLS // per) * per, quanta)
    edges = [i * quanta // count * _COL_QUANTUM for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _tap_gemm(layout: np.ndarray, n: int, geo: _Geometry, kernel: np.ndarray,
              bias: np.ndarray | None, epilogue: Callable[[np.ndarray], None] | None,
              ) -> np.ndarray:
    """The tap loop: the output grid (OC, columns), cropped by _crop. Each
    part's columns get the bias and then the epilogue right after the
    part's GEMMs, on the thread that ran them."""
    hr, wr, m = geo.rows.pitch, geo.cols.pitch, geo.grid_cols
    oc, c = kernel.shape[:2]
    dtype = layout.dtype
    out = np.empty((oc, max(m, n * hr * wr)), dtype=dtype)
    out[:, m:] = 0
    split = _split(geo, kernel)
    blocks = _blocks(m, split)
    width = max(m1 - m0 for m0, m1 in blocks)
    (first, kfirst), *rest = _tap_groups(geo, kernel)
    depth = len(first) * c

    def run(part: list[tuple[int, int]]) -> None:
        # groups of more than one tap copy their slices into buf
        buf = np.empty((depth, width), dtype=dtype) if depth > c else None
        tmp = np.empty((oc, width), dtype=dtype) if rest else None
        for m0, m1 in part:
            acc = out[:, m0:m1]
            _matmul(kfirst, _operand(layout, first, m0, m1, buf), acc)
            for group, kmat in rest:
                t = tmp[:, : m1 - m0]
                _matmul(kmat, _operand(layout, group, m0, m1, buf), t)
                acc += t
        done = out[:, part[0][0] : part[-1][1]]  # the part's columns, still on its worker
        if bias is not None:
            done += bias[:, None]
        if epilogue is not None:
            epilogue(done)

    pool.run_parts(blocks, run, split=split)
    return out


def _crop(grid: np.ndarray, n: int, geo: _Geometry) -> np.ndarray:
    """The output pixels of a grid, a channel-major (OC, N, OH, OW) view."""
    hr, wr = geo.rows.pitch, geo.cols.pitch
    oh, ow = geo.out_spatial
    return grid[:, : n * hr * wr].reshape(-1, n, hr, wr)[:, :, :oh, :ow]


def conv2d_forward(
    x: Tensor | list[Tensor], spec: ConvSpec, kernel: Parameter, bias: Parameter | None,
    *, epilogue: Callable[[np.ndarray], None] | None = None,
) -> tuple[Tensor, Conv2dCache]:
    """Dilated cross-correlation with "same" zero padding, plus bias.

    x is one Tensor, or a list of Tensors read as one input stacked along
    channels. bias may be None (batch normalization's mean shift absorbs
    the bias of a conv feeding it). Runs as the tap loop described above;
    the cache keeps the input in the tap layout for the backward pass.
    The output is channel-major, a view of the cropped output grid.

    epilogue, if given, runs in place on column ranges (OC, columns) of
    the grid, one per part of the tap loop (see above), after the part's
    GEMMs and bias add and on the thread that ran them; the ranges cover
    the grid's first grid_cols columns once each, and so every output
    pixel. It must be a per-channel elementwise map, such as the one
    batchnorm_relu_infer returns: its values on the columns that the crop
    drops are unused.
    """
    sources = x if isinstance(x, list) else [x]
    layout, geo = _tap_layout([t.data.transpose(1, 0, 2, 3) for t in sources], spec, kernel.value)
    n, _, h, w = sources[0].shape
    grid = _tap_gemm(layout, n, geo, kernel.value, None if bias is None else bias.value, epilogue)
    split = tuple(t.shape[1] for t in x) if isinstance(x, list) else None
    return (Tensor(_crop(grid, n, geo).transpose(1, 0, 2, 3)),
            Conv2dCache(layout, (n, spec.in_channels, h, w), spec, split))


def conv2d_backward(
    grad_out: Tensor,
    cache: Conv2dCache | None,
    spec: ConvSpec,
    kernel: Parameter,
    bias: Parameter | None,
) -> Tensor | list[Tensor]:
    """Gradient wrt the conv input; accumulates kernel.grad and bias.grad.

    The shifted-stack backward described above: per tap-layout phase and
    block of layout columns, grad_out, zero-extended onto the output
    grid, is copied once into the stack S of the phase's live taps; then

    - kernel gradients of the phase's taps += S @ phase[:, block].T;
    - the layout gradient of the block = K_stack.T @ S, written in place.

    The input gradient is the layout gradient without its padding (see
    above): one Tensor, or after a forward on a list one per source, its
    channel rows. Skipped (dead) taps read only zeros, so their kernel
    gradient is 0 and their input gradient lands in the padding.
    """
    if cache is None:
        raise ValueError("conv2d_backward requires the forward cache (run forward first)")
    if spec != cache.spec:
        raise ValueError(f"{spec} does not match the forward's {cache.spec}")
    n, c, h, w = cache.input_shape
    geo = _geometry(n, h, w, spec)
    oh, ow = geo.out_spatial
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
    oc, hr, wr = spec.out_channels, geo.rows.pitch, geo.cols.pitch
    margin = max(t.off for t in geo.taps)
    gz = np.zeros((oc, margin + length + _COL_QUANTUM), dtype=dtype)  # + a block's zero extension
    pixels = gz[:, margin : margin + n * hr * wr].reshape(oc, n, hr, wr)[:, :, :oh, :ow]
    gcm = g.transpose(1, 0, 2, 3)

    def fill(rows: slice) -> None:
        pixels[rows] = gcm[rows]

    _channel_parts(oc, gz.size, fill)
    stack_rows = oc * max(len(ph.taps) for ph in geo.phases)
    width = min(_BLOCK_COLS, length,
                max(_COL_QUANTUM, _STACK_ELEMS // stack_rows // _COL_QUANTUM * _COL_QUANTUM))
    # columns of the last block of every phase
    last = length - (length - 1) // width * width
    glayout = np.empty_like(layout)
    live = [ph for ph in geo.phases if ph.taps]
    for ph in geo.phases:
        if not ph.taps:
            glayout[ph.a, ph.b] = 0  # no tap reads the phase
    kstacks = [kernel.value[:, :, ki, kj].transpose(2, 0, 1).reshape(-1, c)
               for *_, (ki, kj) in live]
    gks = [np.zeros_like(k, dtype=dtype) for k in kstacks]

    def run(items: list[tuple[int, int]]) -> list[tuple[int, np.ndarray]]:
        stack = np.empty((stack_rows, _quantize(width)), dtype=dtype)
        # the last block, zero-extended to the reduction length
        xlast = np.empty((c, _quantize(last)), dtype=dtype)
        xlast[:, last:] = 0
        # each block's kernel-gradient partial, added by the caller
        partials = np.empty((len(items), stack_rows, c), dtype=dtype)
        kept = []
        for i, (p, m0) in enumerate(items):
            a, b, taps, _ = live[p]
            m1 = min(length, m0 + width)
            cols = _quantize(m1 - m0)
            shifted = stack[: len(taps) * oc, :cols]
            for r, t in enumerate(taps):
                g0 = margin - t.off + m0
                shifted[r * oc : (r + 1) * oc] = gz[:, g0 : g0 + cols]
            x = layout[a, b, :, m0:m1]
            if cols > m1 - m0:
                xlast[:, : m1 - m0] = x
                x = xlast
            kept.append((p, np.matmul(shifted, x.T, out=partials[i, : len(taps) * oc])))
            _matmul(kstacks[p].T, shifted[:, : m1 - m0], glayout[a, b, :, m0:m1])
        return kept

    items = [(p, m0) for p in range(len(live)) for m0 in range(0, length, width)]
    for kept in pool.run_parts(items, run, split=_split(geo, kernel.value)):
        for p, partial in kept:  # in phase-then-block order
            gks[p] += partial
    gkernel = np.zeros_like(kernel.value)
    for (*_, (ki, kj)), gk in zip(live, gks):
        gkernel[:, :, ki, kj] = gk.reshape(-1, oc, c).transpose(1, 2, 0)
    kernel.add_grad(gkernel)
    if s == 1:
        _, gx = next(_phase_views(glayout, n, geo))
    else:
        gx = np.empty((c, n, h, w), dtype=dtype)
        for dst, view in _phase_views(glayout, n, geo):
            gx[(slice(None), slice(None), *dst)] = view
    if cache.split is None:
        return Tensor(gx.transpose(1, 0, 2, 3))
    return [Tensor(p.transpose(1, 0, 2, 3)) for p in np.split(gx, np.cumsum(cache.split)[:-1])]


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

# the EMA momentum of the running statistics (Keras's default, as in the
# paper's network) and the epsilon added to every variance
BN_MOMENTUM = 0.99
BN_EPS = 1e-5


@dataclass
class BatchNormState:
    """Per-layer running statistics, updated by EMA in batchnorm_forward."""

    running_mean: np.ndarray
    running_var: np.ndarray
    num_updates: int = 0

    @classmethod
    def create(cls, channels: int, dtype: np.dtype | str = np.float32) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


@dataclass
class BatchNormCache:
    xhat: np.ndarray
    invstd: np.ndarray  # per channel


def running_statistics(state: BatchNormState) -> tuple[np.ndarray, np.ndarray]:
    """The mean and invstd = 1/sqrt(var + eps) that batchnorm_relu_infer
    normalizes by.

    The running statistics are an EMA that starts at mean 0 and var 1, so
    after t updates m^t of their weight still sits on those start values;
    dividing it out, as Adam's bias correction does, gives mean/(1 - m^t)
    and (var - m^t)/(1 - m^t). This is computed in float64 from the
    stored EMA and cast back; the clamp at 0 guards the cancellation of
    var - m^t when m^t is near 1. Before any update the stored values are
    used as they are (load_checkpoint warns about such a layer). Reads the
    state and writes nothing, so several threads may share it.
    """
    mean, var = state.running_mean, state.running_var
    t = state.num_updates
    if t > 0:
        decay = BN_MOMENTUM ** t
        mean = (mean.astype(np.float64) / (1.0 - decay)).astype(mean.dtype)
        var = (np.maximum(var.astype(np.float64) - decay, 0.0) / (1.0 - decay)).astype(var.dtype)
    return mean, 1.0 / np.sqrt(var + BN_EPS)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (C, M) arrays, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1)


def batchnorm_forward(
    x: Tensor, gamma: Parameter, beta: Parameter, state: BatchNormState
) -> tuple[Tensor, BatchNormCache]:
    """Per-channel normalization over N,H,W by the batch statistics, which
    also update the running ones.

    Works on the channel-major view of x, in parts of whole channels: the
    centred input is written once into a channel-major array that becomes
    xhat in place (the variance comes from the dot products of its rows),
    and the output is _bn_affine(xhat), a new array. The running
    statistics are updated after the parts end."""
    c = x.shape[1]
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ValueError(f"gamma/beta must have {c} elements")
    xcm = x.data.transpose(1, 0, 2, 3)
    xhat = np.empty(xcm.shape, dtype=xcm.dtype)
    y = np.empty(xcm.shape, dtype=np.result_type(xhat, gamma.value))

    def normalize(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mean = xcm[rows].mean(axis=(1, 2, 3))
        h = np.subtract(xcm[rows], mean.reshape(-1, 1, 1, 1), out=xhat[rows])
        flat = h.reshape(h.shape[0], -1)
        var = _row_dots(flat, flat) / flat.shape[1]
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        h *= invstd.reshape(-1, 1, 1, 1)
        _bn_affine(h, gamma.value[rows], beta.value[rows], out=y[rows])
        return mean, var, invstd

    mean, var, invstd = (np.concatenate(a) for a in zip(*_channel_parts(c, xcm.size, normalize)))
    m = BN_MOMENTUM
    state.running_mean = (m * state.running_mean + (1.0 - m) * mean).astype(
        state.running_mean.dtype
    )
    state.running_var = (m * state.running_var + (1.0 - m) * var).astype(
        state.running_var.dtype
    )
    state.num_updates += 1
    return Tensor(y.transpose(1, 0, 2, 3)), BatchNormCache(xhat.transpose(1, 0, 2, 3), invstd)


def _bn_affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """xhat * gamma, then + beta, per channel of a channel-major array
    (C, ...), in the one order every BN path uses; out may be xhat."""
    per_channel = (-1,) + (1,) * (xhat.ndim - 1)
    out = np.multiply(xhat, gamma.reshape(per_channel), out=out)
    out += beta.reshape(per_channel)
    return out


def batchnorm_relu_forward(
    x: Tensor, gamma: Parameter, beta: Parameter, state: BatchNormState
) -> tuple[Tensor, BatchNormCache]:
    """relu(batchnorm_forward(x)) in place on BN's output, in parts of
    whole channels; the cache is BN's alone, as the backward recomputes
    the mask from its xhat."""
    y, cache = batchnorm_forward(x, gamma, beta, state)
    ycm = y.data.transpose(1, 0, 2, 3)
    _channel_parts(ycm.shape[0], ycm.size, lambda rows: np.maximum(ycm[rows], 0, out=ycm[rows]))
    return y, cache


def batchnorm_relu_infer(
    gamma: Parameter, beta: Parameter, state: BatchNormState
) -> Callable[[np.ndarray], None]:
    """The inference BN, then ReLU, as a conv2d_forward epilogue: the map
    that runs in place on a channel-major array h (C, ...), (h - mean) *
    invstd with the running_statistics, then _bn_affine, then
    np.maximum(h, 0) (which propagates NaN, where relu_forward zeroes
    it). The statistics are computed here, once for all the parts of a
    conv call."""
    mean, invstd = running_statistics(state)

    def bn_relu(h: np.ndarray) -> None:
        per_channel = (-1,) + (1,) * (h.ndim - 1)
        h -= mean.reshape(per_channel)
        h *= invstd.reshape(per_channel)
        _bn_affine(h, gamma.value, beta.value, out=h)
        np.maximum(h, 0, out=h)

    return bn_relu


def _check_bn_grad(grad_out: Tensor, cache: BatchNormCache) -> None:
    if grad_out.shape != cache.xhat.shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output {cache.xhat.shape}"
        )


def batchnorm_backward(
    grad_out: Tensor, cache: BatchNormCache | None, gamma: Parameter, beta: Parameter
) -> Tensor:
    """Gradient wrt the BN input; accumulates gamma.grad and beta.grad.

    With the per-channel sums dbeta = sum(g) and dgamma = sum(g * xhat)
    over the m = N*H*W positions,
    dx = gamma * invstd * (g - dbeta/m - xhat * dgamma/m). Runs on
    channel-major rows, in parts of whole channels, and returns a
    channel-major Tensor; the parameter gradients are added after the
    parts end."""
    if cache is None:
        raise ValueError("batchnorm_backward requires the forward cache")
    _check_bn_grad(grad_out, cache)
    n, c, h, w = grad_out.shape
    g = grad_out.data.transpose(1, 0, 2, 3)
    xhat = cache.xhat.transpose(1, 0, 2, 3)
    dx = np.empty(g.shape, dtype=np.result_type(g, xhat))
    scale = gamma.value * cache.invstd
    m = n * h * w

    def grads(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        gr = g[rows].reshape(-1, m)
        xr = xhat[rows].reshape(-1, m)
        dgamma = _row_dots(gr, xr)
        dbeta = gr.sum(axis=1)
        d = np.multiply(xr, (-dgamma / m)[:, None], out=dx[rows].reshape(-1, m))
        d += gr
        d -= (dbeta / m)[:, None]
        d *= scale[rows, None]
        return dgamma, dbeta

    dgamma, dbeta = (np.concatenate(a) for a in zip(*_channel_parts(c, g.size, grads)))
    gamma.add_grad(dgamma)
    beta.add_grad(dbeta)
    return Tensor(dx.transpose(1, 0, 2, 3))


def batchnorm_relu_backward(
    grad_out: Tensor, cache: BatchNormCache | None, gamma: Parameter, beta: Parameter
) -> Tensor:
    """batchnorm_backward of grad_out masked by _relu_mask, which is
    applied in parts of whole channels."""
    if cache is None:
        raise ValueError("batchnorm_relu_backward requires the forward cache")
    _check_bn_grad(grad_out, cache)
    n, c, h, w = grad_out.shape
    masked = np.empty((c, n, h, w), dtype=grad_out.data.dtype).transpose(1, 0, 2, 3)

    def mask(rows: slice) -> None:
        np.multiply(grad_out.data[:, rows], _relu_mask(cache, gamma, beta, rows),
                    out=masked[:, rows])

    _channel_parts(c, masked.size, mask)
    return batchnorm_backward(Tensor(masked), cache, gamma, beta)


def _relu_mask(cache: BatchNormCache, gamma: Parameter, beta: Parameter,
               rows: slice = slice(None)) -> np.ndarray:
    """The forward's output > 0 (N, C, H, W) on the channels rows,
    recomputed from xhat bit for bit."""
    xhat = cache.xhat.transpose(1, 0, 2, 3)[rows]
    return (_bn_affine(xhat, gamma.value[rows], beta.value[rows]) > 0).transpose(1, 0, 2, 3)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# The network's units run ReLU inside batchnorm_relu_forward/backward;
# these two stay as the reference ReLU that gradcheck and the tests
# compare against.
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


def sigmoid_backward(grad_out: Tensor, s: np.ndarray | None) -> Tensor:
    if s is None:
        raise ValueError("sigmoid_backward requires the forward cache")
    return Tensor(grad_out.data * s * (1.0 - s))


# ---------------------------------------------------------------------------
# bilinear 2x upsampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _bilinear_matrix(n_in: int, dtype: np.dtype) -> np.ndarray:
    """(2n x n) half-pixel interpolation matrix for one axis, read-only;
    rows sum to 1."""
    n_out = 2 * n_in
    m = np.zeros((n_out, n_in), dtype=dtype)
    for o in range(n_out):
        src = min(max((o + 0.5) / 2.0 - 0.5, 0.0), float(n_in - 1))
        i0 = int(np.floor(src))
        frac = src - i0
        i1 = min(i0 + 1, n_in - 1)
        m[o, i0] += 1.0 - frac
        m[o, i1] += frac
    m.flags.writeable = False
    return m


def bilinear_upsample_2x_forward(x: Tensor) -> tuple[Tensor, tuple[int, int, int, int]]:
    """Doubles H and W with half-pixel centers. The map is separable,
    out = Wr @ x @ Wc^T, run on the channel-major view in parts of whole
    channels, and the backward pass is its exact transpose by
    construction; the cache is the input shape."""
    n, c, h, w = x.shape
    xcm = x.data.transpose(1, 0, 2, 3)
    rows_map, cols_map = _bilinear_matrix(h, xcm.dtype), _bilinear_matrix(w, xcm.dtype).T
    out = np.empty((c, n, 2 * h, 2 * w), dtype=xcm.dtype)

    def up(rows: slice) -> None:
        np.matmul(np.matmul(rows_map, xcm[rows]), cols_map, out=out[rows])

    _channel_parts(c, out.size, up)
    return Tensor(out.transpose(1, 0, 2, 3)), x.shape


def bilinear_upsample_2x_backward(grad_out: Tensor,
                                  cache: tuple[int, int, int, int] | None) -> Tensor:
    if cache is None:
        raise ValueError("bilinear_upsample_2x_backward requires the forward cache")
    n, c, h, w = cache
    if grad_out.shape != (n, c, 2 * h, 2 * w):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match upsampled {(n, c, 2 * h, 2 * w)}"
        )
    g = grad_out.data.transpose(1, 0, 2, 3)
    rows_map, cols_map = _bilinear_matrix(h, g.dtype).T, _bilinear_matrix(w, g.dtype)
    gx = np.empty((c, n, h, w), dtype=g.dtype)

    def down(rows: slice) -> None:
        np.matmul(np.matmul(rows_map, g[rows]), cols_map, out=gx[rows])

    _channel_parts(c, g.size, down)
    return Tensor(gx.transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# channel concatenation
# ---------------------------------------------------------------------------

def concat_channels_forward(inputs: list[Tensor]) -> tuple[Tensor, list[int]]:
    """Stack along the channel axis in argument order, which is the leading
    axis of the channel-major memory. A reference op for gradcheck, the
    tests and perfbench: the network's convs read their sources directly."""
    sources = [t.data.transpose(1, 0, 2, 3) for t in inputs]
    _check_stackable(sources)
    return Tensor(np.concatenate(sources).transpose(1, 0, 2, 3)), [t.shape[1] for t in inputs]


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
