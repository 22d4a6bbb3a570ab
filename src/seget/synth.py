"""Deterministic synthetic tomography stand-in: blobs, tubes, and rings
on a noisy background, emitted as mode-0 MRC volumes with one binary
mask volume per class.

The tube class is drawn thin on purpose so its background/foreground
ratio stays high (well above 50), reproducing the imbalance regime the
adaptive weighting exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import mrc_bytes

DEFAULT_CLASSES = ("blob", "tube", "ring")
NOISE_SIGMA = 10.0   # std of the Gaussian background noise, in int8 grey levels


@dataclass
class SynthConfig:
    seed: int = 0
    size: int = 128          # square slice extent, a positive multiple of 16
    n_slices: int = 8
    classes: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.size < 16 or self.size % 16:
            raise ValueError(f"size must be positive and divisible by 16, got {self.size}")
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        unknown = [c for c in self.classes if c not in DEFAULT_CLASSES]
        if unknown:
            raise ValueError(f"unknown classes {unknown}; choose from {DEFAULT_CLASSES}")


def _disk(size: int, cy: float, cx: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _draw_blob(mask: np.ndarray, rng: np.random.Generator) -> None:
    size = mask.shape[0]
    for _ in range(rng.integers(1, 3)):
        r = rng.uniform(size * 0.07, size * 0.14)
        cy = rng.uniform(r + 2, size - r - 2)
        cx = rng.uniform(r + 2, size - r - 2)
        mask |= _disk(size, cy, cx, r)


def _draw_ring(mask: np.ndarray, rng: np.random.Generator) -> None:
    size = mask.shape[0]
    r_out = rng.uniform(size * 0.10, size * 0.18)
    r_in = r_out - rng.uniform(2.0, 4.0)
    cy = rng.uniform(r_out + 2, size - r_out - 2)
    cx = rng.uniform(r_out + 2, size - r_out - 2)
    mask |= _disk(size, cy, cx, r_out) & ~_disk(size, cy, cx, r_in)


def _draw_tube(mask: np.ndarray, rng: np.random.Generator) -> None:
    # one thin near-diagonal polyline per slice keeps B/F large
    size = mask.shape[0]
    y = rng.uniform(0.2, 0.8) * size
    x = 0.0
    angle = rng.uniform(-0.5, 0.5)
    for _ in range(4 * size):
        if not (0 <= y < size and 0 <= x < size):
            break
        mask[int(y), int(x)] = True
        angle += rng.uniform(-0.08, 0.08)
        y += np.sin(angle)
        x += np.cos(angle)


_DRAWERS = {"blob": _draw_blob, "tube": _draw_tube, "ring": _draw_ring}
_INTENSITY = {"blob": 70.0, "tube": 80.0, "ring": 60.0}


def generate(cfg: SynthConfig) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns (volume int8 (nz, size, size), {class: binary mask volume})."""
    rng = np.random.default_rng(cfg.seed)
    nz, size = cfg.n_slices, cfg.size
    volume = np.full((nz, size, size), -40.0)
    masks = {name: np.zeros((nz, size, size), dtype=np.int8) for name in cfg.classes}
    for s in range(nz):
        for name in cfg.classes:
            m = np.zeros((size, size), dtype=bool)
            _DRAWERS[name](m, rng)
            masks[name][s] = m.astype(np.int8)
            volume[s][m] += _INTENSITY[name]
    volume += rng.normal(0.0, NOISE_SIGMA, volume.shape)
    volume = np.clip(np.rint(volume), -128, 127).astype(np.int8)
    return volume, masks


def write_dataset(cfg: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Emit volume.mrc plus mask_<class>.mrc files; same seed, same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    volume, masks = generate(cfg)
    paths = {"volume": out / "volume.mrc"}
    paths["volume"].write_bytes(mrc_bytes(volume))
    for name, mask in masks.items():
        p = out / f"mask_{name}.mrc"
        p.write_bytes(mrc_bytes(mask))
        paths[name] = p
    return paths
