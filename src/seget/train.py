"""Adam optimization, learning-rate decay, and the callback-driven
epoch loop monitored on validation mIOU.

The per-iteration base rate is alpha/(1 + d*t) with t incremented
before the rate is computed; plateau reductions compose
multiplicatively on top. Callbacks run after each epoch in the order
checkpoint -> LR-reduce -> early-stop, each with its own counters, and
improvement is strict (ties never reset a patience counter).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import pool
from .checkpoint import save_checkpoint
from .errors import NumericError
from .losses import (
    ConfusionCounts,
    LossConfig,
    accumulate_confusion,
    combined_loss,
    miou,
    pixel_accuracy,
)
from .model import SegETNetwork
from .ops import sigmoid
from .tensor import Parameter, Tensor

logger = logging.getLogger(__name__)

# Adam's published defaults (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# a plateau reduction halves the learning rate
REDUCE_FACTOR = 0.5


class Adam:
    """Adam with bias correction; grads are zeroed after each step."""

    def __init__(self, params: Mapping[str, Parameter], lr: float = 1e-4, decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.decay = decay
        self.t = 0
        self.lr_scale = 1.0  # plateau reductions multiply into this
        self.m = {n: np.zeros_like(p.value) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.value) for n, p in self.params.items()}

    @property
    def effective_lr(self) -> float:
        """Base rate after per-iteration decay and plateau scaling."""
        return self.lr / (1.0 + self.decay * self.t) * self.lr_scale

    def step(self) -> None:
        unset = [n for n, p in self.params.items() if p.grad is None]
        if unset:
            raise ValueError(f"adam step with unset gradients: {unset[:3]}")
        self.t += 1
        alpha = self.effective_lr
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for n, p in self.params.items():
            g = p.grad
            self.m[n] = b1 * self.m[n] + (1.0 - b1) * g
            self.v[n] = b2 * self.v[n] + (1.0 - b2) * g * g
            m_hat = self.m[n] / bc1
            v_hat = self.v[n] / bc2
            p.value -= (alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.value.dtype)
            p.grad.fill(0.0)


@dataclass
class TrainConfig:
    epochs: int = 38
    batch_size: int = 12
    learning_rate: float = 1e-4
    lr_decay: float = 1e-6
    early_stop_patience: int = 8
    reduce_patience: int = 3
    oversample_copies: int = 0
    weight_cap: float = 2000.0
    use_weights: bool = True
    threshold: float = 0.5
    seed: int = 0
    checkpoint_path: str = "best.ckpt"

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.early_stop_patience < 1 or self.reduce_patience < 1:
            raise ValueError("patiences must be >= 1")
        if self.oversample_copies < 0:
            raise ValueError("oversample_copies must be >= 0")
        for name in ("learning_rate", "lr_decay", "weight_cap", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0.0 or self.lr_decay < 0.0:
            raise ValueError("learning_rate must be > 0 and lr_decay >= 0")
        if self.weight_cap < 1.0:
            raise ValueError("weight_cap must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int            # 1-based
    train_loss: float
    val_miou: float
    lr: float
    wall_time_s: float    # excluded from the canonical serialization

    def log_line(self) -> str:
        """Stable field order for scripting: epoch, loss, val mIOU, LR."""
        return (
            f"epoch={self.epoch} loss={self.train_loss:.6f} "
            f"val_miou={self.val_miou:.6f} lr={self.lr:.6e}"
        )


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_miou: float = float("-inf")
    stop_reason: str = ""

    def log_lines(self) -> str:
        """Canonical byte-comparable text (wall time deliberately excluded)."""
        lines = [r.log_line() for r in self.records]
        lines.append(
            f"best_epoch={self.best_epoch} best_val_miou={self.best_val_miou:.6f} "
            f"stop_reason={self.stop_reason}"
        )
        return "\n".join(lines) + "\n"


def _as_batch(patches: Sequence, idx: Sequence[int], dtype, use_weights: bool):
    images = np.stack([patches[i].image for i in idx])[:, None].astype(dtype)
    masks = np.stack([patches[i].mask for i in idx])[:, None].astype(dtype)
    weights = None
    if use_weights:
        weights = Tensor(np.stack([patches[i].weights for i in idx])[:, None].astype(dtype))
    return Tensor(images), Tensor(masks), weights


def evaluate(
    net: SegETNetwork,
    patches: Sequence,
    threshold: float = 0.5,
    batch_size: int = 12,
) -> tuple[float, float]:
    """Validation metrics: binarize sigmoid(logits) > threshold per patch and
    accumulate a 2-class confusion over all of them."""
    if not patches:
        raise ValueError("cannot evaluate an empty patch set")
    counts = ConfusionCounts.zeros(2)
    dt = net.config.np_dtype
    for start in range(0, len(patches), batch_size):
        idx = range(start, min(start + batch_size, len(patches)))
        batch, masks, _ = _as_batch(patches, idx, dt, use_weights=False)
        pred = (sigmoid(net.infer(batch)) > threshold).astype(np.int64)
        accumulate_confusion(pred[:, 0], masks.data[:, 0].astype(np.int64), counts)
    return miou(counts), pixel_accuracy(counts)


def fit(
    net: SegETNetwork,
    train_patches: Sequence,
    val_patches: Sequence,
    cfg: TrainConfig,
    loss_cfg: LossConfig | None = None,
    eval_fn: Callable[[SegETNetwork, Sequence], float] | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainReport:
    """Epoch loop: shuffle, minibatch forward/loss/backward/step, validate,
    then apply callbacks (checkpoint, LR-reduce, early-stop).

    eval_fn computes the monitored value (default: validation mIOU at
    cfg.threshold); it is injectable so callback timing can be tested
    against scripted metric sequences.

    The call holds a pool scope, so the large convs of training and
    validation run their column blocks on every worker (seget.pool), with
    the bits of one thread.
    """
    if not train_patches or not val_patches:
        raise ValueError("fit requires non-empty train and validation sets")
    loss_cfg = loss_cfg or LossConfig()
    if eval_fn is None:
        eval_fn = lambda n, v: evaluate(n, v, cfg.threshold, cfg.batch_size)[0]
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(net.parameters, lr=cfg.learning_rate, decay=cfg.lr_decay)
    report = TrainReport()
    dt = net.config.np_dtype

    best = float("-inf")
    es_wait = 0
    lr_wait = 0
    stop_reason = "epoch_cap"

    with pool.scope():
        net.zero_grads()  # once: Adam.step zeroes the gradients after each step
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.monotonic()
            order = rng.permutation(len(train_patches))
            losses = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]  # last partial batch kept
                batch, masks, weights = _as_batch(train_patches, idx, dt, cfg.use_weights)
                logits = net.forward(batch)
                loss, grad = combined_loss(logits, masks, net.parameters, loss_cfg, weights)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite training loss at epoch {epoch}")
                net.backward(Tensor(grad.data.astype(dt)))
                opt.step()
                losses.append(loss)

            val_value = float(eval_fn(net, val_patches))
            record = EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                val_miou=val_value,
                lr=opt.effective_lr,
                wall_time_s=time.monotonic() - t0,
            )
            report.records.append(record)
            if log is not None:
                log(record.log_line())

            # callback order: checkpoint, then LR-reduce, then early-stop
            if val_value > best:
                best = val_value
                report.best_epoch = epoch
                report.best_val_miou = val_value
                save_checkpoint(cfg.checkpoint_path, net, epoch, val_value)
                lr_wait = 0
                es_wait = 0
            else:
                lr_wait += 1
                if lr_wait >= cfg.reduce_patience:
                    opt.lr_scale *= REDUCE_FACTOR
                    lr_wait = 0
                    logger.info("plateau: lr scale reduced to %.3g at epoch %d",
                                opt.lr_scale, epoch)
                es_wait += 1
                if es_wait >= cfg.early_stop_patience:
                    stop_reason = "early_stop"
                    break

    report.stop_reason = stop_reason
    return report
