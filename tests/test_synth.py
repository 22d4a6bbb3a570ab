"""Synthetic dataset generator: determinism, mask validity, the tube
imbalance regime, and MRC round trips through the real parser."""

import numpy as np
import pytest

from seget.data import parse_mrc
from seget.losses import bf_ratio
from seget.synth import DEFAULT_CLASSES, SynthConfig, generate, mrc_bytes, write_dataset


def test_same_seed_same_bytes(tmp_path):
    a = write_dataset(SynthConfig(seed=5, size=64, n_slices=3), tmp_path / "a")
    b = write_dataset(SynthConfig(seed=5, size=64, n_slices=3), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_different_seed_different_volume(tmp_path):
    a = write_dataset(SynthConfig(seed=1, size=64, n_slices=2), tmp_path / "a")
    b = write_dataset(SynthConfig(seed=2, size=64, n_slices=2), tmp_path / "b")
    assert a["volume"].read_bytes() != b["volume"].read_bytes()


def test_masks_strictly_binary():
    _, masks = generate(SynthConfig(seed=0, size=64, n_slices=4))
    for name, m in masks.items():
        assert set(np.unique(m)).issubset({0, 1}), name


def test_every_class_draws_something():
    _, masks = generate(SynthConfig(seed=3, size=128, n_slices=4))
    for name in DEFAULT_CLASSES:
        assert masks[name].sum() > 0


def test_tube_class_is_heavily_imbalanced():
    """The thin-tube regime: background/foreground ratio above 50."""
    _, masks = generate(SynthConfig(seed=0, size=128, n_slices=8))
    tube = masks["tube"]
    total_ratio = (tube.size - tube.sum()) / tube.sum()
    assert total_ratio > 50
    for s in range(tube.shape[0]):
        assert bf_ratio(tube[s], cap=1e9) > 50


def test_emitted_mrc_parses_back_exactly(tmp_path):
    cfg = SynthConfig(seed=7, size=32, n_slices=2)
    volume, masks = generate(cfg)
    paths = write_dataset(cfg, tmp_path)
    parsed = parse_mrc(paths["volume"].read_bytes())
    assert parsed.mode == 0
    np.testing.assert_array_equal(parsed.data, volume)
    parsed_mask = parse_mrc(paths["blob"].read_bytes())
    np.testing.assert_array_equal(parsed_mask.data, masks["blob"])


def test_mrc_bytes_header_words():
    import struct
    raw = mrc_bytes(np.zeros((2, 3, 4), dtype=np.int8))
    assert struct.unpack_from("<3i", raw, 0) == (4, 3, 2)
    assert len(raw) == 1024 + 24


def test_geometry_must_divide_16():
    with pytest.raises(ValueError, match="divisible by 16"):
        SynthConfig(size=100)


@pytest.mark.parametrize("size", [0, -16])
def test_size_must_be_positive(size):
    with pytest.raises(ValueError, match="positive"):
        SynthConfig(size=size)
