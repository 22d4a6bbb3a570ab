"""Training objective and evaluation metrics.

The objective is a three-term sum: stabilized binary cross entropy on
the logits, smoothed Jaccard distance on the sigmoid probabilities, and
an L2 penalty over the conv kernels,

    L = L_b + L_j + lambda * (1/2) sum(w^2).

BCE uses the overflow-free form max(y,0) - y*t + log(1 + exp(-|y|)).
The Jaccard distance is 1 - (I + s)/(U + s) with soft set sums
I = sum(y*t), U = sum(y) + sum(t) - I computed over every pixel of the
tensor passed in.

Evaluation accumulates a pixel confusion matrix and reports mean IoU
(diagonal over row-sum + col-sum - diagonal, averaged over classes) and
pixel accuracy (trace over total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ops import sigmoid, sigmoid_backward
from .tensor import Parameter, Tensor

# s in the Jaccard distance, added to its numerator and denominator
JACCARD_SMOOTH = 1.0


@dataclass
class LossConfig:
    l2_lambda: float = 1e-4       # weight-regularizer coefficient
    weight_cap: float = 2000.0    # read by nothing: [train] weight_cap caps the weights

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError("l2_lambda must be finite and >= 0")
        if not (math.isfinite(self.weight_cap) and self.weight_cap >= 1):
            raise ValueError("weight_cap must be finite and >= 1")


def _require_binary(t: np.ndarray, what: str) -> None:
    if not np.all((t == 0) | (t == 1)):
        raise ValueError(f"{what} must be binary (0/1)")


def _check_targets(y: np.ndarray, t: np.ndarray) -> None:
    if y.shape != t.shape:
        raise ValueError(f"logits shape {y.shape} != targets shape {t.shape}")
    _require_binary(t, "targets")


def _bce(y: np.ndarray, t: np.ndarray, s: np.ndarray,
         weights: Tensor | None) -> tuple[float, Tensor]:
    """bce_stable on checked arrays, given s = sigmoid(y)."""
    per_pixel = np.maximum(y, 0.0) - y * t + np.log1p(np.exp(-np.abs(y)))
    grad = s - t
    if weights is None:
        loss = float(per_pixel.mean())
        grad = grad / y.size
    else:
        w = weights.data
        if w.shape != y.shape:
            raise ValueError(f"weights shape {w.shape} != logits shape {y.shape}")
        wsum = float(w.sum())
        loss = float((w * per_pixel).sum() / wsum)
        grad = grad * w / wsum
    return loss, Tensor(grad)


def bce_stable(
    logits: Tensor, targets: Tensor, weights: Tensor | None = None
) -> tuple[float, Tensor]:
    """Stabilized BCE, finite for |logit| up to 1e4 and beyond.

    Returns (loss, grad wrt logits). The loss is the mean over pixels;
    with weights it is the weighted mean sum(w*l)/sum(w), so all-ones
    weights reduce exactly to the plain mean. The gradient is
    (sigmoid(y) - t), weighted and normalized identically.
    """
    y, t = logits.data, targets.data
    _check_targets(y, t)
    return _bce(y, t, sigmoid(y), weights)


def _jaccard(y: np.ndarray, t: np.ndarray) -> tuple[float, Tensor]:
    """jaccard_distance_loss on checked arrays."""
    inter = float((y * t).sum())
    union = float(y.sum()) + float(t.sum()) - inter
    denom = union + JACCARD_SMOOTH
    loss = 1.0 - (inter + JACCARD_SMOOTH) / denom
    # quotient rule: dJ/dy = (t*(U+s) - (I+s)*(1-t)) / (U+s)^2
    grad = -(t * denom - (inter + JACCARD_SMOOTH) * (1.0 - t)) / (denom * denom)
    return loss, Tensor(grad)


def jaccard_distance_loss(probs: Tensor, targets: Tensor) -> tuple[float, Tensor]:
    """Smoothed Jaccard distance 1 - (I+s)/(U+s) over all pixels.

    probs must already be probabilities; callers apply sigmoid first.
    Returns (loss, grad wrt probs).
    """
    y = probs.data
    t = targets.data
    if y.shape != t.shape:
        raise ValueError(f"probs shape {y.shape} != targets shape {t.shape}")
    if np.any(y < -1e-6) or np.any(y > 1.0 + 1e-6):
        raise ValueError("probs must lie in [0, 1]; apply sigmoid before this loss")
    _require_binary(t, "targets")
    return _jaccard(y, t)


def combined_loss(
    logits: Tensor,
    targets: Tensor,
    params: Mapping[str, Parameter],
    cfg: LossConfig,
    weights: Tensor | None = None,
) -> tuple[float, Tensor]:
    """L_b + L_j + lambda*psi(W); returns (loss, grad wrt logits).

    The sigmoid is computed once: BCE's gradient reads it, and the
    Jaccard gradient is chained through the sigmoid operator's own
    backward. The lambda term adds lambda*w onto each regularized
    parameter's grad buffer as a side effect, matching how the network's
    backward accumulates.
    """
    y, t = logits.data, targets.data
    _check_targets(y, t)
    s = sigmoid(y)
    bce, grad_bce = _bce(y, t, s, weights)
    jac, grad_jac = _jaccard(s, t)
    grad = grad_bce.data + sigmoid_backward(grad_jac, s).data
    total = bce + jac
    if cfg.l2_lambda > 0:
        reg = 0.0
        for p in params.values():
            if p.regularized:
                reg += float((p.value.astype(np.float64) ** 2).sum())
                p.add_grad(cfg.l2_lambda * p.value)
        total += 0.5 * cfg.l2_lambda * reg
    return total, Tensor(grad)


# ---------------------------------------------------------------------------
# confusion counts and metrics
# ---------------------------------------------------------------------------

@dataclass
class ConfusionCounts:
    """Square pixel tally: counts[a, b] = pixels of true class a predicted b."""

    counts: np.ndarray

    @classmethod
    def zeros(cls, num_classes: int = 2) -> "ConfusionCounts":
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate_confusion(
    pred_mask: np.ndarray, gt_mask: np.ndarray, counts: ConfusionCounts
) -> ConfusionCounts:
    """Add one mask pair's pixel tallies into counts (in place)."""
    pred = np.asarray(pred_mask)
    gt = np.asarray(gt_mask)
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if pred.size == 0:
        return counts
    k = counts.num_classes
    pred = pred.astype(np.int64).ravel()
    gt = gt.astype(np.int64).ravel()
    if pred.min() < 0 or pred.max() >= k or gt.min() < 0 or gt.max() >= k:
        raise ValueError(f"class indices must lie in [0, {k})")
    flat = np.bincount(gt * k + pred, minlength=k * k)
    counts.counts += flat.reshape(k, k)
    return counts


def miou(counts: ConfusionCounts) -> float:
    """Mean over classes of p_ii / (row_sum + col_sum - p_ii).

    Classes whose union is zero have an undefined 0/0 IoU and are
    excluded from the mean.
    """
    if counts.total == 0:
        raise ValueError("cannot compute mIOU of empty counts")
    c = counts.counts
    diag = np.diag(c)
    union = c.sum(axis=1) + c.sum(axis=0) - diag
    ious = [int(diag[i]) / int(union[i]) for i in range(counts.num_classes) if union[i]]
    if not ious:
        raise ValueError("every class has zero union; mIOU undefined")
    return sum(ious) / len(ious)


def pixel_accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise ValueError("cannot compute pixel accuracy of empty counts")
    return float(np.trace(counts.counts)) / counts.total


# ---------------------------------------------------------------------------
# adaptive sample-wise weighting
# ---------------------------------------------------------------------------

def bf_ratio(mask: np.ndarray, cap: float = 2000.0) -> float:
    """Background/foreground pixel ratio of one binary patch.

    An all-background patch has no foreground to weight; its ratio is
    reported as the cap purely for bookkeeping.
    """
    m = np.asarray(mask)
    _require_binary(m, "mask")
    fg = int(np.count_nonzero(m))
    if fg == 0:
        return float(cap)
    return (m.size - fg) / fg


def foreground_weight(mask: np.ndarray, cap: float = 2000.0) -> float:
    """Loss weight of one binary patch's foreground pixels (background
    pixels weigh 1.0): its B/F ratio clipped to [1, cap], or 1.0 when the
    patch has no foreground."""
    m = np.asarray(mask)
    _require_binary(m, "mask")
    fg = int(np.count_nonzero(m))
    if fg == 0:
        return 1.0
    return max(min((m.size - fg) / fg, float(cap)), 1.0)
