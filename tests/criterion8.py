"""Acceptance criterion 8's protocol, in one place for the acceptance test
and scripts/criterion8_study.py.

8 synthetic 128^2 slices with one blob class; SegET (base 4, depth 4)
trains for at most 200 epochs (lr 2e-3, early-stop patience 30), and the
best checkpoint must reach train mIOU >= 0.95 and val mIOU >= 0.85.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from seget.checkpoint import load_checkpoint
from seget.data import normalize, oversample_positive, read_mrc, split_train_val
from seget.losses import LossConfig
from seget.model import NetworkConfig, build
from seget.synth import SynthConfig, write_dataset
from seget.train import TrainConfig, TrainReport, evaluate, fit

TRAIN_MIOU = 0.95
VAL_MIOU = 0.85
MAX_EPOCHS = 200


@dataclass(frozen=True)
class Criterion8Run:
    train_miou: float
    val_miou: float
    report: TrainReport

    @property
    def learned(self) -> bool:
        return (self.train_miou >= TRAIN_MIOU and self.val_miou >= VAL_MIOU
                and len(self.report.records) <= MAX_EPOCHS)


def run_criterion_8(work: Path,
                    transform: Callable[[np.ndarray], np.ndarray] | None = None) -> Criterion8Run:
    """Train and score one criterion-8 run in the directory work; transform,
    if given, maps the normalized volume before the patches are cut."""
    paths = write_dataset(SynthConfig(seed=42, size=128, n_slices=8, classes=("blob",)),
                          work / "data")
    images = normalize(read_mrc(paths["volume"]))
    if transform is not None:
        images = transform(images)
    mask = (read_mrc(paths["blob"]).data != 0).astype(np.int8)
    split = split_train_val(images, mask, window=64, stride=32, period=5,
                            weight_cap=2000.0)
    train_patches = oversample_positive(split.train, 0)

    net = build(NetworkConfig(base_filters=4, depth=4), seed=0)
    cfg = TrainConfig(
        epochs=MAX_EPOCHS, batch_size=12, learning_rate=2e-3, lr_decay=1e-6,
        early_stop_patience=30, reduce_patience=10, seed=0,
        checkpoint_path=str(work / "best.ckpt"), weight_cap=2000.0,
    )
    report = fit(net, train_patches, split.val, cfg, LossConfig(weight_cap=2000.0))

    best, _ = load_checkpoint(cfg.checkpoint_path)
    train_miou, _ = evaluate(best, split.train)
    val_miou, _ = evaluate(best, split.val)
    return Criterion8Run(train_miou, val_miou, report)
