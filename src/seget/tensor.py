"""Dense 4-D tensors, trainable parameters, and convolution specs.

Everything numeric in the network flows through these three types. A
Tensor is a batch of feature maps of shape (N, C, H, W), held either
C-contiguous or channel-major (see seget.ops); a Parameter is a
trainable array with an additively-accumulated gradient; a ConvSpec
pins down one convolution's geometry (kernel size, stride, dilation,
channel counts). The values a Parameter starts at are set in seget.model:
the network makes each at a fixed value, and build() draws the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROLE_CONV_KERNEL = "conv-kernel"
ROLE_CONV_BIAS = "conv-bias"
ROLE_BN_GAMMA = "bn-gamma"
ROLE_BN_BETA = "bn-beta"

_ROLES = (ROLE_CONV_KERNEL, ROLE_CONV_BIAS, ROLE_BN_GAMMA, ROLE_BN_BETA)


@dataclass
class Tensor:
    """Batch of feature maps, shape (N, C, H, W)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if type(self.data) is not np.ndarray:
            self.data = np.asarray(self.data)
        if self.data.ndim != 4:
            raise ValueError(f"Tensor data must be 4-D (N,C,H,W), got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise ValueError(f"Tensor extents must all be >= 1, got shape {self.data.shape}")
        if self.data.dtype.kind != "f":
            raise ValueError(f"Tensor data must be floating point, got {self.data.dtype}")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


@dataclass
class Parameter:
    """Trainable array with role tag and additively-accumulated gradient.

    grad is None until first touched; zero_grad() allocates it. Backward
    passes add into it, and the optimizer zeroes it after each step.
    """

    value: np.ndarray
    role: str
    regularized: bool = False
    grad: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown parameter role {self.role!r}")
        if self.regularized and self.role != ROLE_CONV_KERNEL:
            raise ValueError("only conv kernels are regularized")

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad.fill(0.0)

    def add_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter shape {self.value.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.value.dtype, copy=True)
        else:
            self.grad += g


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one 2-D convolution: "same" padding, 3x3 or 1x1 kernel."""

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    dilation: int = 1

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.dilation > 1 and self.stride != 1:
            raise ValueError("dilated convolutions require stride 1")

    @property
    def effective_kernel(self) -> int:
        """Kernel footprint after dilation: k + (k-1)(d-1)."""
        return self.kernel + (self.kernel - 1) * (self.dilation - 1)

    def out_spatial(self, h: int, w: int) -> tuple[int, int]:
        """"same" semantics: output extent = ceil(extent / stride)."""
        return -(-h // self.stride), -(-w // self.stride)
