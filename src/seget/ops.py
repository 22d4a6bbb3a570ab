"""Differentiable operators: forward passes with explicit caches and
hand-derived backward passes.

Each *_forward returns (output Tensor, cache); the matching *_backward
consumes the cache and the upstream gradient and returns the gradient
with respect to the op's input. Parameter gradients (conv kernel/bias,
BN gamma/beta) are accumulated additively onto the Parameter objects as
a side contract. Ops never mutate their inputs; caches are per
invocation, so separate invocations are independent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tensor import ConvSpec, Parameter, Tensor

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

@dataclass
class Conv2dCache:
    padded: np.ndarray            # zero-padded input, N,C,Hp,Wp
    input_shape: tuple[int, int, int, int]
    pad_top: int
    pad_left: int
    out_spatial: tuple[int, int]


def _same_padding(h: int, w: int, spec: ConvSpec) -> tuple[int, int, int, int, int, int]:
    oh, ow = spec.out_spatial(h, w)
    keff = spec.effective_kernel
    ph = max((oh - 1) * spec.stride + keff - h, 0)
    pw = max((ow - 1) * spec.stride + keff - w, 0)
    # extra pixel goes to bottom/right when the total is odd
    return oh, ow, ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


def _window_view(padded: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Strided view (N, C, k, k, OH, OW) over the padded input; no copy."""
    n, c = padded.shape[:2]
    sn, sc, sh, sw = padded.strides
    k, s, d = spec.kernel, spec.stride, spec.dilation
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, k, k, oh, ow),
        strides=(sn, sc, sh * d, sw * d, sh * s, sw * s),
        writeable=False,
    )


def conv2d_forward(
    x: Tensor, spec: ConvSpec, kernel: Parameter, bias: Parameter | None
) -> tuple[Tensor, Conv2dCache]:
    """Dilated cross-correlation with "same" zero padding, plus bias.

    bias may be None for bias-free convolutions (a conv feeding straight
    into batch normalization has its bias absorbed by the mean shift).
    """
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ValueError(
            f"input has {c} channels but the spec declares in_channels={spec.in_channels}"
        )
    expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if kernel.value.shape != expected:
        raise ValueError(f"kernel shape {kernel.value.shape} does not match spec {expected}")
    oh, ow, pt, pb, pl, pr = _same_padding(h, w, spec)
    padded = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    win = _window_view(padded, spec, oh, ow)
    out = np.tensordot(kernel.value, win, axes=([1, 2, 3], [1, 2, 3]))  # (OC, N, OH, OW)
    out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    if bias is not None:
        out += bias.value.reshape(1, -1, 1, 1)
    cache = Conv2dCache(padded, x.shape, pt, pl, (oh, ow))
    return Tensor(out), cache


# Output pixels a conv2d_backward GEMM spans at least: enough columns for
# BLAS to run near its speed, few enough that the im2col buffer of a
# full-resolution layer holds one sample.
_MIN_GEMM_COLS = 1024


def conv2d_backward(
    grad_out: Tensor,
    cache: Conv2dCache | None,
    spec: ConvSpec,
    kernel: Parameter,
    bias: Parameter | None,
) -> Tensor:
    """Gradient wrt the conv input; accumulates kernel.grad and bias.grad.

    Both gradients are GEMMs against the im2col layout of the forward
    window view (Chellapilla et al. 2006). Samples go in chunks of nb;
    with P = OH*OW output pixels and CK = C*k*k taps, per chunk:

    - cols = im2col(padded input) as (CK, nb*P), rows ordered (c, i, j)
      and columns (sample, oh, ow), so the gather copy reads whole OW
      rows of the padded input;
    - gt = grad_out as (OC, nb*P);
    - kernel gradient += gt @ cols.T, an (OC, nb*P) x (nb*P, CK) GEMM;
    - gcols = kmat.T @ gt, a (CK, OC) x (OC, nb*P) GEMM viewed as
      (nb, C, k, k, OH, OW); col2im adds gcols[:, :, i, j] into the
      padded input gradient, one strided slice-add per tap, each reading
      contiguous OW rows.

    A chunk holds as few samples as give at least _MIN_GEMM_COLS columns:
    up to 16 samples at 8x8 share one GEMM, 4 at 16x16, and layers from
    32x32 up run one sample at a time, so their im2col buffers stay one
    sample in size instead of the batch's.
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

    k, s, d = spec.kernel, spec.stride, spec.dilation
    oc, ck, p = spec.out_channels, c * k * k, oh * ow
    win = _window_view(cache.padded, spec, oh, ow)
    kmat_t = kernel.value.reshape(oc, ck).T
    gk = np.zeros((oc, ck), dtype=g.dtype)
    gpad = np.zeros_like(cache.padded)
    step = -(-_MIN_GEMM_COLS // p)
    for b0 in range(0, n, step):
        b1 = min(n, b0 + step)
        cols = win[b0:b1].transpose(1, 2, 3, 0, 4, 5).reshape(ck, (b1 - b0) * p)
        gt = g[b0:b1].transpose(1, 0, 2, 3).reshape(oc, (b1 - b0) * p)
        gk += gt @ cols.T
        del cols
        gcols = (kmat_t @ gt).reshape(c, k, k, b1 - b0, oh, ow).transpose(3, 0, 1, 2, 4, 5)
        gp = gpad[b0:b1]
        for i in range(k):
            for j in range(k):
                gp[:, :, i * d : i * d + (oh - 1) * s + 1 : s,
                   j * d : j * d + (ow - 1) * s + 1 : s] += gcols[:, :, i, j]
    kernel.add_grad(gk.reshape(kernel.value.shape))
    pt, pl = cache.pad_top, cache.pad_left
    return Tensor(np.ascontiguousarray(gpad[:, :, pt : pt + h, pl : pl + w]))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-layer running statistics, updated by EMA in train mode."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.99
    eps: float = 1e-5
    num_updates: int = 0
    _warned_fresh_infer: bool = False

    @classmethod
    def create(cls, channels: int, dtype: np.dtype | str = np.float32,
               momentum: float = 0.99, eps: float = 1e-5) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype),
                   momentum, eps)


@dataclass
class BatchNormCache:
    xhat: np.ndarray
    invstd: np.ndarray  # per channel
    mode: str


def batchnorm_forward(
    x: Tensor, gamma: Parameter, beta: Parameter, state: BatchNormState, mode: str
) -> tuple[Tensor, BatchNormCache]:
    """Per-channel normalization over N,H,W; train mode updates running stats."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    c = x.shape[1]
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ValueError(f"gamma/beta must have {c} elements")
    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1.0 - m) * mean).astype(
            state.running_mean.dtype
        )
        state.running_var = (m * state.running_var + (1.0 - m) * var).astype(
            state.running_var.dtype
        )
        state.num_updates += 1
    else:
        if state.num_updates == 0 and not state._warned_fresh_infer:
            state._warned_fresh_infer = True
            logger.warning(
                "batchnorm inference with default-initialized running stats "
                "(mean 0 / var 1); behaves as near-identity"
            )
        mean = state.running_mean
        var = state.running_var
    invstd = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.data - mean.reshape(1, -1, 1, 1)) * invstd.reshape(1, -1, 1, 1)
    out = gamma.value.reshape(1, -1, 1, 1) * xhat + beta.value.reshape(1, -1, 1, 1)
    return Tensor(out), BatchNormCache(xhat, invstd, mode)


def batchnorm_backward(
    grad_out: Tensor, cache: BatchNormCache | None, gamma: Parameter, beta: Parameter
) -> Tensor:
    if cache is None:
        raise ValueError("batchnorm_backward requires the forward cache")
    g = grad_out.data
    xhat = cache.xhat
    gamma.add_grad((g * xhat).sum(axis=(0, 2, 3)))
    beta.add_grad(g.sum(axis=(0, 2, 3)))
    dxhat = g * gamma.value.reshape(1, -1, 1, 1)
    invstd = cache.invstd.reshape(1, -1, 1, 1)
    if cache.mode == "infer":
        # running stats are constants at inference
        return Tensor(dxhat * invstd)
    n, _, h, w = g.shape
    m = n * h * w
    dx = (invstd / m) * (
        m * dxhat
        - dxhat.sum(axis=(0, 2, 3), keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    )
    return Tensor(dx)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

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

_UPSAMPLE_MODES = ("half_pixel", "align_corners")
_upsample_matrix_cache: dict[tuple[int, str, str], np.ndarray] = {}


def _bilinear_matrix(n_in: int, mode: str, dtype: np.dtype) -> np.ndarray:
    """(2n x n) interpolation matrix for one axis; rows sum to 1."""
    key = (n_in, mode, np.dtype(dtype).str)
    cached = _upsample_matrix_cache.get(key)
    if cached is not None:
        return cached
    n_out = 2 * n_in
    m = np.zeros((n_out, n_in), dtype=dtype)
    for o in range(n_out):
        if mode == "half_pixel":
            src = (o + 0.5) / 2.0 - 0.5
        else:
            src = o * (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
        src = min(max(src, 0.0), float(n_in - 1))
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


def bilinear_upsample_2x_forward(
    x: Tensor, mode: str = "half_pixel"
) -> tuple[Tensor, UpsampleCache]:
    """Doubles H and W. The map is separable, out = Wr @ x @ Wc^T, and the
    backward pass is its exact transpose by construction."""
    if mode not in _UPSAMPLE_MODES:
        raise ValueError(f"mode must be one of {_UPSAMPLE_MODES}, got {mode!r}")
    _, _, h, w = x.shape
    wr = _bilinear_matrix(h, mode, x.dtype)
    wc = _bilinear_matrix(w, mode, x.dtype)
    out = np.matmul(np.matmul(wr, x.data), wc.T)
    return Tensor(out), UpsampleCache(wr, wc, x.shape)


def bilinear_upsample_2x_backward(grad_out: Tensor, cache: UpsampleCache | None) -> Tensor:
    if cache is None:
        raise ValueError("bilinear_upsample_2x_backward requires the forward cache")
    if grad_out.shape[2:] != (2 * cache.input_shape[2], 2 * cache.input_shape[3]):
        raise ValueError(
            f"grad_out spatial {grad_out.shape[2:]} does not match upsampled "
            f"{(2 * cache.input_shape[2], 2 * cache.input_shape[3])}"
        )
    gx = np.matmul(np.matmul(cache.row_matrix.T, grad_out.data), cache.col_matrix)
    return Tensor(gx)


# ---------------------------------------------------------------------------
# channel concatenation
# ---------------------------------------------------------------------------

def concat_channels_forward(inputs: list[Tensor]) -> tuple[Tensor, list[int]]:
    """Stack along the channel axis in argument order."""
    if not inputs:
        raise ValueError("concat_channels requires at least one input")
    first = inputs[0].shape
    for t in inputs[1:]:
        if (t.shape[0],) + t.shape[2:] != (first[0],) + first[2:]:
            raise ValueError(
                f"concat inputs must share N,H,W: got {first} and {t.shape}"
            )
    if len(inputs) == 1:
        return Tensor(inputs[0].data.copy()), [inputs[0].shape[1]]
    channels = [t.shape[1] for t in inputs]
    return Tensor(np.concatenate([t.data for t in inputs], axis=1)), channels


def concat_channels_backward(grad_out: Tensor, channels: list[int] | None) -> list[Tensor]:
    if channels is None:
        raise ValueError("concat_channels_backward requires the forward cache")
    if grad_out.shape[1] != sum(channels):
        raise ValueError(
            f"grad_out has {grad_out.shape[1]} channels, cache expects {sum(channels)}"
        )
    grads = []
    start = 0
    for c in channels:
        grads.append(Tensor(np.ascontiguousarray(grad_out.data[:, start : start + c])))
        start += c
    return grads
