"""Workload set-up: what runs between `import seget` and the first
training step or predicted window. Shared by the in-process run and by
probe.py, which times it in fresh interpreters; it imports only numpy and
the seget modules the set-up calls."""

from __future__ import annotations

import numpy as np

from seget import data as dp
from seget.checkpoint import load_checkpoint
from seget.model import NetworkConfig, build

WEIGHT_CAP = 2000.0


def setup_train(volume: str, mask: str, window: int, stride: int, base_filters: int,
                seed: int):
    """read_mrc, normalize, split_train_val and build."""
    images = dp.normalize(dp.read_mrc(volume))
    masks = (dp.read_mrc(mask).data != 0).astype(np.int8)
    split = dp.split_train_val(images, masks, window=window, stride=stride, period=5,
                               weight_cap=WEIGHT_CAP)
    return split, build(NetworkConfig(base_filters=base_filters, depth=4), seed=seed)


def setup_predict(checkpoint: str, volume: str):
    """load_checkpoint, read_mrc and normalize."""
    net, _ = load_checkpoint(checkpoint)
    return net, dp.normalize(dp.read_mrc(volume))
