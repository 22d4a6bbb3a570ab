"""Adam update values, callback timing against scripted metric
sequences, training determinism, and evaluation semantics."""

import threading

import numpy as np
import pytest

from seget import ops, pool
from seget.checkpoint import load_checkpoint
from seget.data import Patch
from seget.losses import ConfusionCounts, accumulate_confusion, foreground_weight, miou
from seget.model import NetworkConfig, build
from seget.tensor import Parameter, Tensor
from seget.train import Adam, TrainConfig, evaluate, fit


def scalar_param(value=0.0):
    return Parameter(np.array([value]), "conv-kernel", regularized=True)


def make_patches(n, hw=16, seed=0):
    """Simple bright-disk patches: mask is the disk, image is mask + noise."""
    rng = np.random.default_rng(seed)
    patches = []
    for i in range(n):
        mask = np.zeros((hw, hw), dtype=np.int64)
        cy, cx = rng.integers(4, hw - 4, size=2)
        yy, xx = np.mgrid[0:hw, 0:hw]
        mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= 9] = 1
        image = 0.2 + 0.6 * mask + rng.normal(0, 0.05, (hw, hw))
        patches.append(
            Patch(image=np.clip(image, 0, 1), mask=mask,
                  fg_weight=foreground_weight(mask, 100.0), slice_index=i, y=0, x=0)
        )
    return patches


SMALL = NetworkConfig(base_filters=2, depth=2, dilation_rates=(1, 2))


def small_cfg(tmp_path, **kw):
    defaults = dict(
        epochs=3, batch_size=2, learning_rate=1e-3, lr_decay=0.0,
        early_stop_patience=8, reduce_patience=3, seed=0,
        checkpoint_path=str(tmp_path / "best.ckpt"),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def test_first_step_hand_value(self):
        """grad 1 at alpha 1e-3: bias-corrected update is ~ -alpha*g/(|g|+eps)."""
        p = scalar_param(0.0)
        p.zero_grad()
        p.add_grad(np.array([1.0]))
        opt = Adam({"p": p}, lr=1e-3, decay=0.0)
        opt.step()
        assert p.value.item() == pytest.approx(-0.000999999995, abs=1e-11)

    def test_zero_grad_leaves_params_but_increments_t(self):
        p = scalar_param(1.5)
        p.zero_grad()
        opt = Adam({"p": p}, lr=1e-2)
        opt.step()
        assert p.value.item() == 1.5
        assert opt.t == 1

    def test_decay_halves_rate_at_one_million_steps(self):
        opt = Adam({"p": scalar_param()}, lr=1e-3, decay=1e-6)
        opt.t = 10 ** 6
        assert opt.effective_lr == pytest.approx(5e-4)

    def test_unset_grad_rejected(self):
        p = scalar_param()
        opt = Adam({"p": p}, lr=1e-3)
        with pytest.raises(ValueError, match="unset"):
            opt.step()

    def test_grads_zeroed_after_step(self):
        p = scalar_param()
        p.zero_grad()
        p.add_grad(np.array([2.0]))
        Adam({"p": p}, lr=1e-3).step()
        assert np.all(p.grad == 0)

    @pytest.mark.parametrize("g", [1e-8, 1e-3, 1.0, 1e6])
    def test_step_magnitude_bounded_by_rate(self, g):
        """Bias-corrected, eps-bounded: |step| <= alpha for any grad scale."""
        p = scalar_param(0.0)
        p.zero_grad()
        p.add_grad(np.array([g]))
        opt = Adam({"p": p}, lr=1e-3)
        opt.step()
        assert abs(p.value.item()) <= 1e-3 * (1 + 1e-12)


class TestCallbacks:
    def test_early_stop_and_best_epoch(self, tmp_path):
        """0.5, 0.6, 0.6, 0.6, ... with patience 2 stops after epoch 4."""
        seq = iter([0.5, 0.6, 0.6, 0.6, 0.6, 0.6])
        net = build(SMALL, seed=0)
        cfg = small_cfg(tmp_path, epochs=10, early_stop_patience=2)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg,
                     eval_fn=lambda n, v: next(seq))
        assert len(report.records) == 4
        assert report.best_epoch == 2
        assert report.best_val_miou == 0.6
        assert report.stop_reason == "early_stop"

    def test_ties_do_not_reset_patience(self, tmp_path):
        seq = iter([0.6, 0.6, 0.6, 0.6])
        net = build(SMALL, seed=0)
        cfg = small_cfg(tmp_path, epochs=10, early_stop_patience=3)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg,
                     eval_fn=lambda n, v: next(seq))
        # epoch 1 improves over -inf; epochs 2-4 are ties -> stop after 4
        assert len(report.records) == 4
        assert report.best_epoch == 1

    def test_plateau_reducer_fires_once_per_run(self, tmp_path):
        seq = iter([0.5] + [0.4] * 7)
        net = build(SMALL, seed=0)
        cfg = small_cfg(tmp_path, epochs=8, early_stop_patience=8, reduce_patience=3,
                        learning_rate=1e-3, lr_decay=0.0)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg,
                     eval_fn=lambda n, v: next(seq))
        lrs = [r.lr for r in report.records]
        # recorded LR is the one in force during that epoch; the cut at the
        # end of epoch 4 (first 3-epoch no-improvement run) shows from epoch 5,
        # and the second cut only after another full run (epochs 5-7)
        assert lrs[:4] == [1e-3] * 4
        assert lrs[4:7] == [5e-4] * 3
        assert lrs[7] == 2.5e-4

    def test_lr_never_increases(self, tmp_path):
        net = build(SMALL, seed=1)
        cfg = small_cfg(tmp_path, epochs=6, lr_decay=1e-3, reduce_patience=2)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg)
        lrs = [r.lr for r in report.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_best_epoch_record_is_max(self, tmp_path):
        net = build(SMALL, seed=2)
        cfg = small_cfg(tmp_path, epochs=4)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg)
        assert report.best_val_miou == max(r.val_miou for r in report.records)


class TestFit:
    def test_deterministic_reports(self, tmp_path):
        def run(sub):
            net = build(SMALL, seed=3)
            cfg = small_cfg(tmp_path / sub, epochs=3)
            (tmp_path / sub).mkdir(exist_ok=True)
            return fit(net, make_patches(6), make_patches(2, seed=9), cfg)

        assert run("a").log_lines() == run("b").log_lines()

    @pytest.mark.threaded_blas
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        """Criterion 9's run with every conv split over its column blocks
        (blocks of 128 columns, so that the forward has several) and every
        per-channel op (BN, ReLU, upsample, the layout and gradient copies)
        over its channels writes the same log and checkpoint bytes at 1 and
        2 workers."""
        threads = set()
        matmul = ops._matmul

        def recording_matmul(a, b, out):
            threads.add(threading.get_ident())
            matmul(a, b, out)

        monkeypatch.setattr(ops, "_matmul", recording_matmul)
        monkeypatch.setattr(ops, "_SPLIT_MACS", 0)
        monkeypatch.setattr(ops, "_SPLIT_VALUES", 0)
        monkeypatch.setattr(ops, "_BLOCK_COLS", 128)
        net_cfg = NetworkConfig(base_filters=2, depth=2, dilation_rates=(1, 2))
        out = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda: workers)
            threads.clear()
            sub = tmp_path / str(workers)
            sub.mkdir()
            cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3,
                              early_stop_patience=8, seed=7,
                              checkpoint_path=str(sub / "b.ckpt"))
            report = fit(build(net_cfg, seed=7), make_patches(6), make_patches(2, seed=9), cfg)
            out[workers] = (report.log_lines(), (sub / "b.ckpt").read_bytes())
            assert len(threads) == workers
        assert out[2] == out[1]

    def test_checkpoint_reloads_to_reported_best(self, tmp_path):
        net = build(SMALL, seed=4)
        cfg = small_cfg(tmp_path, epochs=4)
        val = make_patches(3, seed=9)
        report = fit(net, make_patches(6), val, cfg)
        restored, meta = load_checkpoint(cfg.checkpoint_path)
        m, _ = evaluate(restored, val, cfg.threshold)
        assert abs(m - report.best_val_miou) < 1e-12
        assert meta["epoch"] == report.best_epoch

    def test_empty_sets_rejected(self, tmp_path):
        net = build(SMALL)
        cfg = small_cfg(tmp_path)
        with pytest.raises(ValueError, match="non-empty"):
            fit(net, [], make_patches(2), cfg)

    def test_log_lines_field_order(self, tmp_path):
        net = build(SMALL, seed=5)
        cfg = small_cfg(tmp_path, epochs=2)
        report = fit(net, make_patches(4), make_patches(2, seed=9), cfg)
        first = report.log_lines().splitlines()[0]
        assert first.startswith("epoch=1 loss=")
        assert " val_miou=" in first and " lr=" in first


class TestEvaluate:
    def _forced_logit_net(self, logit_value):
        net = build(SMALL, seed=0)
        net.head_logit.kernel.value[...] = 0.0
        net.head_logit.bias.value[...] = logit_value
        return net

    def test_saturated_positive_net_on_all_foreground(self):
        net = self._forced_logit_net(40.0)
        patches = make_patches(2)
        for p in patches:
            p.mask[...] = 1
        m, acc = evaluate(net, patches)
        assert m == 1.0 and acc == 1.0  # background class has zero union

    def test_zero_logit_is_background_at_default_threshold(self):
        net = self._forced_logit_net(0.0)
        patches = make_patches(2)
        for p in patches:
            p.mask[...] = 0
        m, acc = evaluate(net, patches, threshold=0.5)
        assert acc == 1.0  # sigmoid(0) = 0.5 is not > 0.5, so all background

    def test_matches_single_pass_confusion_oracle(self):
        net = build(SMALL, seed=6)
        patches = make_patches(5, seed=11)
        m, acc = evaluate(net, patches, threshold=0.5, batch_size=2)
        from seget.ops import sigmoid
        counts = ConfusionCounts.zeros(2)
        preds, gts = [], []
        for p in patches:
            logits = net.infer(Tensor(p.image[None, None].astype(np.float32)))
            preds.append((sigmoid(logits[0, 0]) > 0.5).astype(np.int64))
            gts.append(p.mask)
        accumulate_confusion(np.concatenate(preds), np.concatenate(gts), counts)
        assert m == pytest.approx(miou(counts), abs=1e-15)

    def test_empty_val_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(build(SMALL), [])

    def test_independent_of_batch_sharding(self):
        """Infer-mode results never couple patches, so any shard size gives
        the same metrics."""
        net = build(SMALL, seed=7)
        patches = make_patches(7, seed=13)
        results = {evaluate(net, patches, batch_size=b) for b in (1, 3, 7)}
        assert len(results) == 1
