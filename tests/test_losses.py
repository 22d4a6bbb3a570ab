"""Loss terms against hand-worked values and naive/extended-precision
oracles; metric oracle via brute-force integer counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seget.data import Patch
from seget.losses import (
    ConfusionCounts,
    LossConfig,
    accumulate_confusion,
    bce_stable,
    bf_ratio,
    combined_loss,
    foreground_weight,
    jaccard_distance_loss,
    miou,
    pixel_accuracy,
)
from seget.ops import sigmoid
from seget.tensor import Parameter, Tensor
from oracles import brute_force_miou


def t4(values) -> Tensor:
    a = np.asarray(values, dtype=np.float64)
    while a.ndim < 4:
        a = a[np.newaxis]
    return Tensor(a)


def naive_bce(y, t):
    """The un-stabilized textbook form: y - y*t + log(1 + e^(-y))."""
    return y - y * t + np.log(1.0 + np.exp(-y))


class TestBceStable:
    def test_zero_logit_zero_target_is_ln2(self):
        loss, _ = bce_stable(t4([0.0]), t4([0.0]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_positive_matches_naive_oracle(self):
        loss, _ = bce_stable(t4([10.0]), t4([1.0]))
        assert loss == pytest.approx(naive_bce(10.0, 1.0), abs=1e-15)
        assert loss == pytest.approx(4.5398e-5, rel=1e-3)

    def test_extreme_logits_stay_finite_where_naive_overflows(self):
        mpmath = pytest.importorskip("mpmath")
        with np.errstate(over="ignore"):
            assert not np.isfinite(naive_bce(-1000.0, 0.0))
        for y, t in [(1000.0, 0.0), (-1000.0, 0.0), (1000.0, 1.0), (-1000.0, 1.0)]:
            loss, grad = bce_stable(t4([y]), t4([t]))
            assert np.isfinite(loss) and np.all(np.isfinite(grad.data))
            exact = float(mpmath.mpf(y) - y * t + mpmath.log1p(mpmath.e ** mpmath.mpf(-y)))
            assert loss == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ValueError, match="binary"):
            bce_stable(t4([0.0]), t4([0.5]))

    @given(
        hnp.arrays(np.float64, (2, 1, 3, 3), elements=st.floats(-20, 20)),
        hnp.arrays(np.int64, (2, 1, 3, 3), elements=st.integers(0, 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_naive_form_within_1e9(self, y, t):
        loss, _ = bce_stable(Tensor(y), Tensor(t.astype(np.float64)))
        assert loss == pytest.approx(float(naive_bce(y, t).mean()), abs=1e-9)

    def test_gradient_is_sigmoid_minus_target(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((2, 1, 4, 4)) * 3
        t = (rng.random((2, 1, 4, 4)) > 0.7).astype(np.float64)
        w = 1.0 + 4.0 * t
        _, grad = bce_stable(Tensor(y), Tensor(t), Tensor(w))
        expected = (sigmoid(y) - t) * w / w.sum()
        assert np.max(np.abs(grad.data - expected)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((1, 1, 3, 3))
        t = (rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64)
        _, grad = bce_stable(Tensor(y), Tensor(t))
        step = 1e-6
        for idx in np.ndindex(y.shape):
            yp = y.copy(); yp[idx] += step
            ym = y.copy(); ym[idx] -= step
            fd = (bce_stable(Tensor(yp), Tensor(t))[0] - bce_stable(Tensor(ym), Tensor(t))[0]) / (2 * step)
            assert grad.data[idx] == pytest.approx(fd, abs=1e-6)

    def test_weighted_mean_reduces_to_plain_mean_for_unit_weights(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((1, 1, 4, 4))
        t = (rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64)
        plain, _ = bce_stable(Tensor(y), Tensor(t))
        weighted, _ = bce_stable(Tensor(y), Tensor(t), Tensor(np.ones_like(y)))
        assert plain == pytest.approx(weighted, abs=1e-15)


class TestJaccard:
    def test_perfect_binary_match_is_zero(self):
        t = t4([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = jaccard_distance_loss(t, t)
        assert loss == 0.0

    def test_hand_worked_empty_prediction(self):
        """y all zeros against four foreground pixels: J = 1/5, loss = 0.8."""
        y = t4(np.zeros((2, 2)))
        t = t4(np.ones((2, 2)))
        loss, _ = jaccard_distance_loss(y, t)
        assert loss == pytest.approx(0.8, abs=1e-12)

    def test_both_empty_is_zero_thanks_to_smoothing(self):
        z = t4(np.zeros((3, 3)))
        loss, _ = jaccard_distance_loss(z, z)
        assert loss == 0.0

    def test_rejects_probs_outside_unit_interval(self):
        with pytest.raises(ValueError, match="sigmoid"):
            jaccard_distance_loss(t4([1.5]), t4([1.0]))

    @given(
        hnp.arrays(np.float64, (1, 1, 3, 3), elements=st.floats(0, 1)),
        hnp.arrays(np.int64, (1, 1, 3, 3), elements=st.integers(0, 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_in_unit_interval(self, y, t):
        loss, _ = jaccard_distance_loss(Tensor(y), Tensor(t.astype(np.float64)))
        assert 0.0 <= loss < 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        y = rng.random((1, 1, 3, 3)) * 0.96 + 0.02
        t = (rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64)
        _, grad = jaccard_distance_loss(Tensor(y), Tensor(t))
        step = 1e-7
        for idx in np.ndindex(y.shape):
            yp = y.copy(); yp[idx] += step
            ym = y.copy(); ym[idx] -= step
            fd = (
                jaccard_distance_loss(Tensor(yp), Tensor(t))[0]
                - jaccard_distance_loss(Tensor(ym), Tensor(t))[0]
            ) / (2 * step)
            assert grad.data[idx] == pytest.approx(fd, abs=1e-5)


class TestCombinedLoss:
    def test_lambda_zero_is_exact_sum_of_components(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((1, 1, 4, 4))
        t = (rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64)
        cfg = LossConfig(l2_lambda=0.0)
        total, _ = combined_loss(Tensor(y), Tensor(t), {}, cfg)
        b, _ = bce_stable(Tensor(y), Tensor(t))
        j, _ = jaccard_distance_loss(Tensor(sigmoid(y)), Tensor(t))
        assert total == b + j

    def test_saturated_prediction_is_tiny(self):
        t = np.zeros((1, 1, 4, 4))
        t[0, 0, :2] = 1.0
        y = np.where(t == 1.0, 40.0, -40.0)
        total, _ = combined_loss(Tensor(y), Tensor(t), {}, LossConfig(l2_lambda=0.0))
        assert total < 1e-6

    def test_regularizer_contribution(self):
        """w = 3 at lambda 0.1 adds 0.45 to the loss and 0.3 to w's grad."""
        rng = np.random.default_rng(5)
        y = rng.standard_normal((1, 1, 2, 2))
        t = (rng.random((1, 1, 2, 2)) > 0.5).astype(np.float64)
        w = Parameter(np.array([[[[3.0]]]]), "conv-kernel", regularized=True)
        w.zero_grad()
        base, _ = combined_loss(Tensor(y), Tensor(t), {"w": w}, LossConfig(l2_lambda=0.0))
        total, _ = combined_loss(Tensor(y), Tensor(t), {"w": w}, LossConfig(l2_lambda=0.1))
        assert total - base == pytest.approx(0.45, abs=1e-12)
        assert w.grad.item() == pytest.approx(0.3, abs=1e-12)

    def test_unregularized_params_untouched(self):
        y = t4([0.0])
        t = t4([0.0])
        gamma = Parameter(np.array([5.0]), "bn-gamma")
        combined_loss(y, t, {"g": gamma}, LossConfig(l2_lambda=0.1))
        assert gamma.grad is None


class TestConfusionAndMetrics:
    def test_perfect_prediction_diagonal_only(self):
        counts = ConfusionCounts.zeros(3)
        m = np.array([[0, 1], [2, 1]])
        accumulate_confusion(m, m, counts)
        assert np.all(counts.counts == np.diag([1, 2, 1]))
        assert miou(counts) == 1.0
        assert pixel_accuracy(counts) == 1.0

    def test_worked_four_pixel_case(self):
        """gt [1,1,0,0] vs pred [1,0,0,0]: p11=1, p10=1, p00=2, mIOU 7/12."""
        counts = ConfusionCounts.zeros(2)
        accumulate_confusion(np.array([1, 0, 0, 0]), np.array([1, 1, 0, 0]), counts)
        assert counts.counts[1, 1] == 1
        assert counts.counts[1, 0] == 1
        assert counts.counts[0, 0] == 2
        assert miou(counts) == pytest.approx(7.0 / 12.0, abs=1e-15)
        assert pixel_accuracy(counts) == pytest.approx(0.75)

    def test_empty_update_changes_nothing(self):
        counts = ConfusionCounts.zeros(2)
        accumulate_confusion(np.zeros((0,)), np.zeros((0,)), counts)
        assert counts.total == 0

    def test_complement_prediction_scores_zero(self):
        counts = ConfusionCounts.zeros(2)
        accumulate_confusion(np.array([1, 0]), np.array([0, 1]), counts)
        assert miou(counts) == 0.0
        assert pixel_accuracy(counts) == 0.0

    def test_out_of_range_class_rejected(self):
        counts = ConfusionCounts.zeros(2)
        with pytest.raises(ValueError, match="class indices"):
            accumulate_confusion(np.array([2]), np.array([0]), counts)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            miou(ConfusionCounts.zeros(2))
        with pytest.raises(ValueError):
            pixel_accuracy(ConfusionCounts.zeros(2))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            gt = rng.integers(0, k, size=(6, 6))
            pred = rng.integers(0, k, size=(6, 6))
            counts = ConfusionCounts.zeros(k)
            accumulate_confusion(pred, gt, counts)
            assert miou(counts) == brute_force_miou(pred, gt, k)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        gt = rng.integers(0, 3, size=(8, 8))
        pred = rng.integers(0, 3, size=(8, 8))
        perm = np.array([2, 0, 1])
        c1 = ConfusionCounts.zeros(3)
        accumulate_confusion(pred, gt, c1)
        c2 = ConfusionCounts.zeros(3)
        accumulate_confusion(perm[pred], perm[gt], c2)
        assert miou(c1) == pytest.approx(miou(c2), abs=1e-15)

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_count_scaling_invariance(self, scale):
        counts = ConfusionCounts(np.array([[5, 2], [1, 7]], dtype=np.int64))
        scaled = ConfusionCounts(counts.counts * scale)
        assert miou(scaled) == pytest.approx(miou(counts), abs=1e-15)
        assert pixel_accuracy(scaled) == pytest.approx(pixel_accuracy(counts), abs=1e-15)

    def test_both_metrics_one_iff_diagonal(self):
        diag = ConfusionCounts(np.diag([3, 4]).astype(np.int64))
        assert miou(diag) == 1.0 and pixel_accuracy(diag) == 1.0
        off = ConfusionCounts(np.array([[3, 1], [0, 4]], dtype=np.int64))
        assert miou(off) < 1.0 and pixel_accuracy(off) < 1.0

    def test_zero_union_conventions(self):
        # only background present and predicted: foreground union is zero,
        # so the class is excluded from the mean
        counts = ConfusionCounts(np.array([[4, 0], [0, 0]], dtype=np.int64))
        assert miou(counts) == 1.0


class TestWeighting:
    def test_four_foreground_pixels_ratio_three(self):
        mask = np.zeros((4, 4), dtype=np.int64)
        mask[0, :4] = 1
        assert bf_ratio(mask) == 3.0
        assert foreground_weight(mask) == 3.0

    def test_single_pixel_patch_hits_cap(self):
        mask = np.zeros((512, 512), dtype=np.int64)
        mask[100, 100] = 1
        assert bf_ratio(mask, cap=2000.0) == 262143.0
        assert foreground_weight(mask, cap=2000.0) == 2000.0

    def test_all_background_patch(self):
        mask = np.zeros((8, 8), dtype=np.int64)
        assert bf_ratio(mask, cap=2000.0) == 2000.0  # reporting convention
        assert foreground_weight(mask) == 1.0

    @given(
        hnp.arrays(np.int64, (6, 6), elements=st.integers(0, 1)),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_weight_matrix_invariants(self, mask, cap):
        w = Patch(np.zeros(mask.shape), mask, foreground_weight(mask, cap), 0, 0, 0).weights
        assert np.all(w[mask == 0] == 1.0)
        assert np.all(w[mask == 1] >= 1.0)
        assert np.all(w[mask == 1] <= max(cap, 1.0))
