"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured quantity. Run it alone with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from seget.data import extract_patches, oversample_positive, parse_mrc
from seget.errors import DataFormatError
from seget.gradcheck import run_network_suite, run_operator_suite
from seget.losses import (
    ConfusionCounts,
    accumulate_confusion,
    bce_stable,
    foreground_weight,
    miou,
)
from seget.model import NetworkConfig, build, probe_center_branches
from seget.tensor import Tensor
from seget.train import TrainConfig, fit
from criterion8 import TRAIN_MIOU, VAL_MIOU, run_criterion_8
from oracles import brute_force_miou
from test_data import mrc_fixture


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_operator_gradient_suite():
    """Every differentiable op, 10 seeds, central differences at double
    precision, max relative error <= 1e-4, under 60 s."""
    t0 = time.monotonic()
    reports = run_operator_suite(seeds=range(10), tolerance=1e-4)
    elapsed = time.monotonic() - t0
    worst = max(reports, key=lambda r: r.max_rel_err)
    ok = all(r.passed for r in reports) and elapsed < 60.0
    _report(1, ok, f"{len(reports)} checks, worst rel err {worst.max_rel_err:.2e} "
                   f"({worst.name}), {elapsed:.1f}s")


def test_criterion_2_whole_network_gradcheck():
    """Tiny SegET (base 2, depth 1, rates (1,2), 1x1x8x8): every parameter
    gradient of sum-of-logits within 1e-3 of finite differences, under 120 s."""
    t0 = time.monotonic()
    reports = run_network_suite(seed=0, tolerance=1e-3)
    elapsed = time.monotonic() - t0
    worst = max(reports, key=lambda r: r.max_rel_err)
    ok = all(r.passed for r in reports) and elapsed < 120.0
    _report(2, ok, f"{len(reports)} parameters, worst rel err "
                   f"{worst.max_rel_err:.2e} ({worst.name}), {elapsed:.1f}s")


def test_criterion_3_loss_equivalence():
    """Stabilized BCE equals the naive form within 1e-9 for |y| <= 20 over
    1e4 random pairs, and stays finite at y = +-1000."""
    rng = np.random.default_rng(0)
    ys = rng.uniform(-20.0, 20.0, 10_000)
    ts = rng.integers(0, 2, 10_000).astype(np.float64)
    worst = 0.0
    for y, t in zip(ys, ts):
        stable, _ = bce_stable(Tensor(np.full((1, 1, 1, 1), y)),
                               Tensor(np.full((1, 1, 1, 1), t)))
        naive = y - y * t + math.log(1.0 + math.exp(-y))
        worst = max(worst, abs(stable - naive))
    finite = all(
        np.isfinite(bce_stable(Tensor(np.full((1, 1, 1, 1), y)),
                               Tensor(np.full((1, 1, 1, 1), t)))[0])
        for y in (-1000.0, 1000.0) for t in (0.0, 1.0)
    )
    ok = worst <= 1e-9 and finite
    _report(3, ok, f"max |stable - naive| = {worst:.2e} over 1e4 pairs; "
                   f"finite at +-1000: {finite}")


def test_criterion_4_metric_oracle():
    """miou on 100 random mask pairs equals brute-force integer counting
    exactly; the worked 4-pixel case yields 7/12."""
    rng = np.random.default_rng(1)
    exact = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        gt = rng.integers(0, k, size=(5, 7))
        pred = rng.integers(0, k, size=(5, 7))
        counts = ConfusionCounts.zeros(k)
        accumulate_confusion(pred, gt, counts)
        if miou(counts) == brute_force_miou(pred, gt, k):
            exact += 1
    counts = ConfusionCounts.zeros(2)
    accumulate_confusion(np.array([1, 0, 0, 0]), np.array([1, 1, 0, 0]), counts)
    worked = miou(counts)
    # (1/2 + 2/3)/2 vs 7/12 differ by one ulp from summation order
    ok = exact == 100 and abs(worked - 7.0 / 12.0) < 1e-15
    _report(4, ok, f"{exact}/100 exact matches; 4-pixel case = {worked:.6f} "
                   f"(7/12 = {7/12:.6f})")


def test_criterion_5_shape_contract():
    """Depth-4 forward preserves H = W in {16, 32, 48, 64, 512} (all are
    divisible by 16, including 48); an indivisible size is rejected."""
    cfg = NetworkConfig(base_filters=4, depth=4)
    net = build(cfg, seed=0)
    passed_sizes = []
    for hw in (16, 32, 48, 64, 512):
        x = Tensor(np.zeros((1, 1, hw, hw), dtype=np.float32))
        y = net.infer(x)
        assert y.shape == (1, 1, hw, hw)
        passed_sizes.append(hw)
    with pytest.raises(ValueError, match="divisible"):
        net.forward(Tensor(np.zeros((1, 1, 40, 40), dtype=np.float32)))
    _report(5, len(passed_sizes) == 5,
            f"sizes {passed_sizes} round-trip; 40 rejected per divisibility rule")


def test_criterion_6_pipeline_arithmetic():
    """49 patches from a 2048^2 slice at window 512 / stride 256;
    oversample x4 on 2 positives of 10 gives 18; a single-foreground-pixel
    512^2 patch weights exactly 2000."""
    from seget.data import Patch

    image = np.zeros((2048, 2048), dtype=np.float32)
    mask = np.zeros((2048, 2048), dtype=np.int8)
    n_patches = len(extract_patches(image, mask, 512, 256))

    def patch(positive):
        m = np.zeros((8, 8), dtype=np.int8)
        if positive:
            m[0, 0] = 1
        return Patch(np.zeros((8, 8)), m, foreground_weight(m), 0, 0, 0)

    ten = [patch(i < 2) for i in range(10)]  # 2 positive, 8 negative
    oversampled = len(oversample_positive(ten, copies=4))

    lone = np.zeros((512, 512), dtype=np.int8)
    lone[5, 5] = 1
    [single] = extract_patches(np.zeros((512, 512)), lone, 512, 512, weight_cap=2000.0)
    weight = single.weights[5, 5]

    ok = n_patches == 49 and oversampled == 18 and weight == 2000.0
    _report(6, ok, f"patches={n_patches} (want 49), oversampled={oversampled} "
                   f"(want 18), capped weight={weight} (want 2000.0)")


def test_criterion_7_mrc_parsing():
    """Fixture files parse to exact voxel grids; malformed fixtures raise
    the data-format error class."""
    plain = parse_mrc(mrc_fixture(4, 3, 2, payload=bytes(range(24))))
    ok_plain = (
        plain.data.shape == (2, 3, 4)
        and np.array_equal(plain.data[0, 0], [0, 1, 2, 3])
        and plain.data[1, 2, 3] == 23
    )
    ext = parse_mrc(mrc_fixture(2, 1, 1, payload=bytes([9, 8]), ext=b"\x55" * 128))
    ok_ext = np.array_equal(ext.data[0, 0], [9, 8])

    failures = 0
    for bad in (
        b"\x00" * 64,                                        # short file
        mrc_fixture(1, 1, 1, mode=7, payload=b"\x00"),       # unsupported mode
        mrc_fixture(4, 4, 100, payload=bytes(160)),          # payload shortfall
    ):
        try:
            parse_mrc(bad)
        except DataFormatError:
            failures += 1
    ok = ok_plain and ok_ext and failures == 3
    _report(7, ok, f"plain grid exact: {ok_plain}, extended-header grid exact: "
                   f"{ok_ext}, {failures}/3 malformed fixtures rejected")


@pytest.mark.slow
def test_criterion_8_end_to_end_learning(tmp_path):
    """8 synthetic 128^2 slices, one blob class; SegET (base 4, depth 4)
    reaches train mIOU >= 0.95 and val mIOU >= 0.85 within 200 epochs.

    The stated budget is 15 minutes single-threaded; this run finishes in
    a fraction of that even without pinning BLAS threads."""
    t0 = time.monotonic()
    run = run_criterion_8(tmp_path)
    elapsed = time.monotonic() - t0
    ok = run.learned and elapsed < 900.0
    _report(8, ok, f"train mIOU {run.train_miou:.4f} (>= {TRAIN_MIOU}), val mIOU "
                   f"{run.val_miou:.4f} (>= {VAL_MIOU}), {len(run.report.records)} epochs, "
                   f"{elapsed:.0f}s (< 900s)")


def test_criterion_9_training_protocol_determinism(tmp_path):
    """Identical seeds give byte-identical reports; scripted metric
    sequences fire the callbacks at exactly the declared epochs."""
    from test_train import make_patches

    net_cfg = NetworkConfig(base_filters=2, depth=2, dilation_rates=(1, 2))

    def run(sub):
        (tmp_path / sub).mkdir(exist_ok=True)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3,
                          early_stop_patience=8, seed=7,
                          checkpoint_path=str(tmp_path / sub / "b.ckpt"))
        return fit(build(net_cfg, seed=7), make_patches(6), make_patches(2, seed=9), cfg)

    identical = run("a").log_lines() == run("b").log_lines()

    seq = iter([0.5, 0.6, 0.6, 0.6, 0.6, 0.6])
    cfg = TrainConfig(epochs=10, batch_size=2, early_stop_patience=2,
                      checkpoint_path=str(tmp_path / "es.ckpt"))
    es_report = fit(build(net_cfg), make_patches(4), make_patches(2, seed=9), cfg,
                    eval_fn=lambda n, v: next(seq))
    es_ok = len(es_report.records) == 4 and es_report.best_epoch == 2

    seq2 = iter([0.5] + [0.4] * 7)
    cfg2 = TrainConfig(epochs=8, batch_size=2, early_stop_patience=8,
                       reduce_patience=3, learning_rate=1e-3,
                       lr_decay=0.0, checkpoint_path=str(tmp_path / "lr.ckpt"))
    lr_report = fit(build(net_cfg), make_patches(4), make_patches(2, seed=9), cfg2,
                    eval_fn=lambda n, v: next(seq2))
    lrs = [r.lr for r in lr_report.records]
    lr_ok = lrs[:4] == [1e-3] * 4 and lrs[4:7] == [5e-4] * 3 and lrs[7] == 2.5e-4

    ok = identical and es_ok and lr_ok
    _report(9, ok, f"byte-identical reports: {identical}; early-stop after epoch "
                   f"{len(es_report.records)} best {es_report.best_epoch} "
                   f"(want 4/2); LR halves at epochs 5 and 8 records: {lr_ok}")


def test_criterion_10_receptive_field_probe():
    """The four center branches respond over supports 3, 5, 9, 17 on an
    impulse through a linearized tiny network."""
    net = build(NetworkConfig(base_filters=2, depth=1, dilation_rates=(1, 2, 4, 8)))
    probe = probe_center_branches(net, spatial=33)
    supports = [(h, w) for _, h, w in probe]
    ok = supports == [(3, 3), (5, 5), (9, 9), (17, 17)]
    _report(10, ok, f"dilation rates {[d for d, _, _ in probe]} respond over "
                    f"supports {[h for h, _ in supports]} (want [3, 5, 9, 17])")
