"""Network topology, shape contracts, backward wiring, describe(),
probes, and the checkpoint container."""

import copy
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seget import ops
from seget.checkpoint import _array_items, load_checkpoint, save_checkpoint
from seget.errors import DataFormatError
from seget.model import NetworkConfig, SegETNetwork, _ConvBnRelu, build, probe_center_branches
from seget.tensor import ConvSpec, Tensor
from oracles import infer_reference

TINY = NetworkConfig(base_filters=2, depth=1, dilation_rates=(1, 2), dtype="float64")
SMALL = NetworkConfig(base_filters=4, depth=2, dilation_rates=(1, 2))


def rand_input(cfg, n=1, hw=None, seed=0):
    hw = hw or 4 * cfg.downsample_factor
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, 1, hw, hw)).astype(cfg.np_dtype))


class TestBuild:
    def test_encoder_filter_ladder_doubles(self):
        rows = build(NetworkConfig()).describe().rows  # full-size defaults
        c1 = [r.out_shape[1] for r in rows if r.name.startswith("enc") and r.name.endswith(".c1")]
        assert c1 == [16, 32, 64, 128]

    def test_bottleneck_spatial_for_512_input(self):
        net = build(NetworkConfig())
        rows = net.describe(ref_hw=(512, 512)).rows
        center_in = next(r for r in rows if r.name == "center.c1")
        assert center_in.in_shape[2:] == (32, 32)

    def test_param_count_matches_independent_tally(self):
        """base 4, depth 2, rates (1, 2): closed-form channel arithmetic."""
        cfg = NetworkConfig(base_filters=4, depth=2, dilation_rates=(1, 2))
        net = build(cfg)

        def conv_bn(cin, cout, k=3):
            return k * k * cin * cout + 2 * cout  # kernel + gamma + beta (no bias)

        expected = 0
        # encoder block 0: 1->4, 4->4, 4->2 (skip), 2->4 stride 2
        expected += conv_bn(1, 4) + conv_bn(4, 4) + conv_bn(4, 2) + conv_bn(2, 4)
        # encoder block 1: 4->8, 8->8, 8->4 (skip), 4->8 stride 2
        expected += conv_bn(4, 8) + conv_bn(8, 8) + conv_bn(8, 4) + conv_bn(4, 8)
        # center: 8->16, 16->16, two branches 16->8, 1x1 reduce (2*8+8)->16
        expected += conv_bn(8, 16) + conv_bn(16, 16) + 2 * conv_bn(16, 8)
        expected += conv_bn(24, 16, k=1)
        # decoder block 0: up(16) + skip1(4) -> 8, 8->8
        expected += conv_bn(20, 8) + conv_bn(8, 8)
        # decoder block 1: up(8) + skip0(2) -> 4, 4->4
        expected += conv_bn(10, 4) + conv_bn(4, 4)
        # head (depth 2: no intermediate fusion convs): up(d0=8) + d1(4) -> 4, 4->4
        expected += conv_bn(12, 4) + conv_bn(4, 4)
        # logit 1x1 conv keeps its bias
        expected += 1 * 1 * 4 * 1 + 1

        total = sum(p.value.size for p in net.parameters.values())
        assert total == expected
        assert net.describe().total_params == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=0)
        with pytest.raises(ValueError):
            NetworkConfig(dilation_rates=())
        with pytest.raises(ValueError):
            NetworkConfig(dilation_rates=(0, 2))


def _refuse_draws(monkeypatch):
    """Make build and every new random generator raise."""
    import seget.model as model

    def refused(*args, **kwargs):
        raise AssertionError("drew weights")

    monkeypatch.setattr(model, "build", refused)
    monkeypatch.setattr(np.random, "default_rng", refused)


def _stored_array(net, name):
    """The array a checkpoint stores under `name`, in place."""
    unit, _, field = name.rpartition(".")
    if field.startswith("running_"):
        return getattr(net.bn_states[unit], field)
    return net.parameters[name].value


class TestStartingValues:
    """SegETNetwork(config) makes every parameter at a fixed value and
    draws nothing; test_checkpoint_bytes_are_pinned covers build's draws."""

    @pytest.mark.parametrize("cfg", [TINY, SMALL])
    def test_network_draws_nothing(self, monkeypatch, cfg):
        _refuse_draws(monkeypatch)
        net = SegETNetwork(cfg)
        starts = {"kernel": 0.0, "bias": 0.0, "gamma": 1.0, "beta": 0.0}
        for name, p in net.parameters.items():
            assert p.value.dtype == cfg.np_dtype
            assert np.all(p.value == starts[name.rpartition(".")[2]]), name
        for state in net.bn_states.values():
            assert np.all(state.running_mean == 0.0) and np.all(state.running_var == 1.0)
            assert state.num_updates == 0


class TestForward:
    def test_64x64_through_depth4(self):
        cfg = NetworkConfig(base_filters=4, depth=4)
        net = build(cfg)
        y = net.infer(rand_input(cfg, hw=64))
        assert y.shape == (1, 1, 64, 64)

    @pytest.mark.slow
    def test_full_size_config_512_batch2(self):
        cfg = NetworkConfig()
        net = build(cfg)
        x = Tensor(np.zeros((2, 1, 512, 512), dtype=np.float32))
        y = net.infer(x)
        assert y.shape == (2, 1, 512, 512)

    def test_48_is_divisible_by_16_and_accepted(self):
        cfg = NetworkConfig(base_filters=2, depth=4)
        net = build(cfg)
        y = net.infer(rand_input(cfg, hw=48))
        assert y.shape == (1, 1, 48, 48)

    def test_indivisible_extent_rejected_with_divisibility_diagnostic(self):
        cfg = NetworkConfig(base_filters=2, depth=4)
        net = build(cfg)
        with pytest.raises(ValueError, match="divisible by 2\\^depth = 16"):
            net.forward(rand_input(cfg, hw=40))

    def test_shape_round_trip_over_divisible_sizes(self):
        cfg = NetworkConfig(base_filters=2, depth=2)
        net = build(cfg)
        for hw in range(16, 129, 2 ** cfg.depth * 2):
            y = net.infer(rand_input(cfg, hw=hw))
            assert y.shape[2:] == (hw, hw)

    def test_infer_is_deterministic_bitwise(self):
        cfg = SMALL
        net = build(cfg, seed=1)
        x = rand_input(cfg, seed=9)
        assert np.array_equal(net.infer(x), net.infer(x))

    def test_forward_accepts_no_mode_but_train(self):
        """forward is the training walk; inference is infer()."""
        net = build(TINY)
        with pytest.raises(ValueError, match="use infer"):
            net.forward(rand_input(TINY), mode="infer")

    def test_forward_with_mode_train_is_forward(self):
        """mode="train", which older callers still pass, names the one walk:
        the same logits and the same running statistics."""
        x = rand_input(TINY, n=2, seed=3)
        nets = [build(TINY, seed=1) for _ in range(2)]
        a = nets[0].forward(x, mode="train")
        b = nets[1].forward(x)
        assert np.array_equal(a.data, b.data)
        for (na, va), (nb, vb) in zip(_array_items(nets[0]), _array_items(nets[1])):
            assert na == nb and np.array_equal(va, vb), na

    def test_skip_paths_are_live(self):
        """With block i's stride-2 conv zeroed, the block reaches the logits
        only through its skip tap, so scaling the tap's conv must change
        the logits."""
        cfg = NetworkConfig(base_filters=4, depth=3)
        x = rand_input(cfg, seed=3)
        for i in range(cfg.depth):
            net = build(cfg, seed=2)
            net.parameters[f"enc{i}.c4.kernel"].value[...] = 0.0
            base = net.infer(x)
            net.parameters[f"enc{i}.c3.kernel"].value[...] *= 2.0
            scaled = net.infer(x)
            assert not np.allclose(base, scaled), f"skip_{i} appears dead"


class TestBackward:
    def test_zero_grad_logits_gives_zero_param_grads(self):
        net = build(TINY)
        x = rand_input(TINY)
        y = net.forward(x)
        net.zero_grads()
        net.backward(Tensor(np.zeros_like(y.data)))
        for name, p in net.parameters.items():
            assert np.all(p.grad == 0), name

    def test_double_backward_doubles_grads_exactly(self):
        net = build(TINY, seed=4)
        x = rand_input(TINY, seed=5)
        y = net.forward(x)
        g = Tensor(np.ones_like(y.data))
        net.zero_grads()
        net.backward(g)
        once = {n: p.grad.copy() for n, p in net.parameters.items()}
        net.backward(g)
        for n, p in net.parameters.items():
            np.testing.assert_array_equal(p.grad, 2 * once[n])

    def test_backward_without_forward_rejected(self):
        net = build(TINY)
        with pytest.raises(ValueError, match="forward"):
            net.backward(Tensor(np.zeros((1, 1, 8, 8))))

    def test_backward_shape_mismatch_rejected(self):
        net = build(TINY)
        net.forward(rand_input(TINY))
        with pytest.raises(ValueError, match="does not match"):
            net.backward(Tensor(np.zeros((1, 1, 4, 4))))

    @pytest.mark.threaded_blas
    def test_training_walk_runs_no_concat(self, monkeypatch):
        """A train-mode forward and backward of a depth-4 net call no concat
        op; their logits and gradients equal, bit for bit, an unpatched
        run's and those of a walk that concatenates each conv's sources
        with the reference concat ops first."""
        cfg = NetworkConfig(base_filters=3, depth=4, dilation_rates=(1, 2, 4, 8))

        def run():
            net = build(cfg, seed=2)
            y = net.forward(rand_input(cfg, n=2, seed=3))
            g = np.random.default_rng(4).standard_normal(y.shape).astype(y.data.dtype)
            net.zero_grads()
            net.backward(Tensor(g))
            return [y.data] + [p.grad.copy() for p in net.parameters.values()]

        def refuse(*args):
            raise AssertionError("a concat op ran")

        fwd, bwd = ops.conv2d_forward, ops.conv2d_backward

        def concat_then_forward(x, spec, kernel, bias):
            if not isinstance(x, list):
                return fwd(x, spec, kernel, bias)
            x, channels = ops.concat_channels_forward(x)
            y, cache = fwd(x, spec, kernel, bias)
            return y, (cache, channels)

        def backward_then_split(g, cache, spec, kernel, bias):
            if not isinstance(cache, tuple):
                return bwd(g, cache, spec, kernel, bias)
            return ops.concat_channels_backward(bwd(g, cache[0], spec, kernel, bias), cache[1])

        unpatched = run()
        with monkeypatch.context() as m:
            m.setattr(ops, "concat_channels_forward", refuse)
            m.setattr(ops, "concat_channels_backward", refuse)
            patched = run()
        with monkeypatch.context() as m:
            m.setattr(ops, "conv2d_forward", concat_then_forward)
            m.setattr(ops, "conv2d_backward", backward_then_split)
            concatenated = run()
        for a, b, c in zip(unpatched, patched, concatenated):
            assert a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_everything_finite_after_forward_backward(self):
        cfg = NetworkConfig(base_filters=4, depth=3)
        net = build(cfg, seed=8)
        y = net.forward(rand_input(cfg, n=2, seed=9))
        assert np.all(np.isfinite(y.data))
        net.zero_grads()
        net.backward(Tensor(np.ones_like(y.data)))
        for name, p in net.parameters.items():
            assert np.all(np.isfinite(p.grad)), name


def trained(cfg, shape, updates, seed=0):
    """A network whose BN running statistics came from `updates` train-mode
    forwards on random batches of `shape`, with gammas, betas and the logit
    bias moved off their initial 1 and 0, and a fresh input batch."""
    net = build(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, p in net.parameters.items():
        if not name.endswith(".kernel"):
            p.value += (0.3 * rng.standard_normal(p.value.shape)).astype(p.value.dtype)
    for _ in range(updates):
        net.forward(Tensor(rng.random(shape).astype(cfg.np_dtype)))
    return net, Tensor(rng.random(shape).astype(cfg.np_dtype))


@pytest.mark.threaded_blas
class TestInfer:
    """net.infer gives the bits of the reference inference walk
    (oracles.infer_reference) and touches no state."""

    @pytest.mark.parametrize("cfg, shape, updates", [
        (NetworkConfig(base_filters=4, depth=4), (12, 1, 64, 64), 2),
        (NetworkConfig(base_filters=3, depth=3, dilation_rates=(1, 2, 4), dtype="float64"),
         (3, 1, 32, 48), 3),
        (NetworkConfig(base_filters=2, depth=1, dilation_rates=(1,)), (5, 1, 18, 10), 1),
        (NetworkConfig(base_filters=8, depth=2, dilation_rates=(2, 3)), (1, 1, 16, 36), 1),
    ], ids=["base4-depth4", "float64-depth3", "depth1-non-square", "batch1-rates23"])
    def test_logits_equal_reference_walk(self, cfg, shape, updates):
        net, x = trained(cfg, shape, updates)
        expected = infer_reference(net, x)
        got = net.infer(x)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @settings(max_examples=12, deadline=None)
    @given(
        dtype=st.sampled_from(["float32", "float64"]),
        depth=st.integers(1, 4),
        base=st.integers(1, 3),
        rates=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        n=st.integers(1, 12),
        hw=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        updates=st.integers(1, 3),
    )
    def test_logits_equal_reference_walk_property(self, dtype, depth, base, rates, n, hw,
                                                  updates):
        cfg = NetworkConfig(base_filters=base, depth=depth, dilation_rates=tuple(rates),
                            dtype=dtype)
        shape = (n, 1, hw[0] * cfg.downsample_factor, hw[1] * cfg.downsample_factor)
        net, x = trained(cfg, shape, updates)
        assert np.array_equal(net.infer(x), infer_reference(net, x))

    def test_leaves_training_state_alone(self):
        """forward(train), infer, backward gives every gradient of
        forward(train), backward, bit for bit; infer changes no BN
        statistic, update count or cache."""
        cfg = NetworkConfig(base_filters=3, depth=3, dilation_rates=(1, 2))

        def state(net):
            convs = [nd.unit for nd in net._nodes if nd.kind == "conv"]
            caches = [u._cache for u in convs]
            caches += [getattr(u, "_bn_cache", None) for u in convs]
            stats = [(st.running_mean.copy(), st.running_var.copy(), st.num_updates)
                     for st in net.bn_states.values()]
            return caches + list(net._op_caches.values()), stats

        grads = []
        for run_infer in (False, True):
            net, x = trained(cfg, (4, 1, 32, 32), 1, seed=3)
            y = net.forward(x)
            caches, stats = state(net)
            if run_infer:
                net.infer(rand_input(cfg, n=2, hw=48, seed=4))
            caches_after, stats_after = state(net)
            assert all(a is b for a, b in zip(caches, caches_after))
            for (mean, var, t), (mean2, var2, t2) in zip(stats, stats_after):
                assert np.array_equal(mean, mean2) and np.array_equal(var, var2) and t == t2
            net.zero_grads()
            net.backward(Tensor(np.ones_like(y.data)))
            grads.append({n: p.grad.copy() for n, p in net.parameters.items()})
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    def test_on_a_fresh_network_logs_nothing_and_keeps_the_bn_state(self, caplog):
        """Before any update infer reads the running statistics as they are:
        no warning (load_checkpoint gives it), and every BatchNormState
        field keeps its value, with no field added."""
        net = build(SMALL)
        before = {n: {k: copy.deepcopy(v) for k, v in vars(st).items()}
                  for n, st in net.bn_states.items()}
        with caplog.at_level("DEBUG"):
            net.infer(rand_input(SMALL, n=2))
        assert not caplog.records
        for name, st in net.bn_states.items():
            after = vars(st)
            assert after.keys() == before[name].keys(), name
            for key, value in before[name].items():
                assert np.array_equal(after[key], value), (name, key)

    def test_runs_the_training_ops_and_drops_their_caches(self, monkeypatch):
        """One infer of a depth-4 net calls ops.conv2d_forward once per conv
        (36) and ops.bilinear_upsample_2x_forward once per upsample node
        (7), and leaves the caches of the last forward as they were. Every
        conv but the logit conv passes an epilogue, which gets the
        (OC, columns) grid, and returns a view of that grid's crop."""
        cfg = NetworkConfig(base_filters=2, depth=4)
        net, x = trained(cfg, (2, 1, 32, 32), 1)
        net.forward(x)

        def caches():
            units = [nd.unit for nd in net._nodes if nd.kind == "conv"]
            return ([u._cache for u in units] + [getattr(u, "_bn_cache", None) for u in units]
                    + list(net._op_caches.values()))

        before = caches()
        calls = {"conv": 0, "epilogue": 0, "upsample": 0}
        conv, upsample = ops.conv2d_forward, ops.bilinear_upsample_2x_forward

        def counted_conv(x, spec, kernel, bias, *, epilogue=None):
            calls["conv"] += 1
            if epilogue is None:
                return conv(x, spec, kernel, bias)
            calls["epilogue"] += 1
            grids = []

            def seen(grid):
                grids.append(grid)
                epilogue(grid)

            y, cache = conv(x, spec, kernel, bias, epilogue=seen)
            (grid,) = grids
            n, _, h, w = (x[0] if isinstance(x, list) else x).shape
            assert grid.ndim == 2 and grid.shape[0] == spec.out_channels
            assert np.shares_memory(y.data, grid)
            crop = ops._crop(grid, n, ops._geometry(n, h, w, spec))
            assert np.array_equal(y.data, crop.transpose(1, 0, 2, 3))
            return y, cache

        def counted_upsample(x):
            calls["upsample"] += 1
            return upsample(x)

        monkeypatch.setattr(ops, "conv2d_forward", counted_conv)
        monkeypatch.setattr(ops, "bilinear_upsample_2x_forward", counted_upsample)
        net.infer(x)
        assert calls == {"conv": 36, "epilogue": 35, "upsample": 7}
        after = caches()
        assert len(after) == len(before) and all(a is b for a, b in zip(before, after))

    def test_infer_reproduces_the_train_batch_after_one_update(self):
        """With the bias-corrected running statistics, one training forward
        leaves statistics equal to that batch's own, so infer gives the
        training logits back (up to the rounding of the EMA)."""
        cfg = NetworkConfig(base_filters=3, depth=2, dilation_rates=(1, 2), dtype="float64")
        net = build(cfg, seed=5)
        x = rand_input(cfg, n=3, hw=32, seed=6)
        train = net.forward(x).data
        np.testing.assert_allclose(net.infer(x), train, rtol=1e-9, atol=1e-9)

    def test_rejects_what_forward_rejects(self):
        cfg = NetworkConfig(base_filters=2, depth=4)
        net = build(cfg)
        with pytest.raises(ValueError, match="divisible by 2\\^depth = 16"):
            net.infer(rand_input(cfg, hw=40))
        with pytest.raises(ValueError, match="2 channels"):
            net.infer(Tensor(np.zeros((1, 2, 16, 16), dtype=np.float32)))


@pytest.mark.threaded_blas
class TestConvBnReluUnit:
    """A training unit keeps no ReLU mask: backward recomputes it from BN's
    xhat, and it must be forward's `out > 0` bit for bit."""

    @staticmethod
    def unit_with_zero_outputs(dtype, seed=7):
        """Channel 0 has a zero kernel and beta 0, so xhat = 0 and every
        output is exactly 0; channel 1 has a zero kernel and beta 0.5; the
        others are random with random gamma and beta."""
        rng = np.random.default_rng(seed)
        unit = _ConvBnRelu("u", ConvSpec(3, 6), dtype)
        unit.kernel.value[...] = rng.normal(0.0, np.sqrt(2.0 / 27), size=(6, 3, 3, 3))
        unit.kernel.value[:2] = 0.0
        unit.gamma.value[:] = rng.standard_normal(6)
        unit.beta.value[:] = rng.standard_normal(6)
        unit.beta.value[:2] = (0.0, 0.5)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype))
        return unit, x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recomputed_mask_equals_forward_mask(self, dtype):
        unit, x = self.unit_with_zero_outputs(dtype)
        out = unit.forward(x).data.copy()
        assert np.all(out[:, 0] == 0) and np.all(out[:, 1] == 0.5)
        assert (out > 0).any() and (out[:, 2:] == 0).any()
        assert np.array_equal(ops._relu_mask(unit._bn_cache, unit.gamma, unit.beta), out > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_relu_batchnorm_conv_backward(self, dtype):
        """The unit's gradients are those of relu_backward on forward's
        mask, then batchnorm_backward, then the conv's backward."""
        unit, x = self.unit_with_zero_outputs(dtype)
        out = unit.forward(x).data.copy()
        g = Tensor(np.random.default_rng(8).standard_normal(out.shape).astype(dtype))
        results = []
        for reference in (False, True):
            for p in unit.parameters().values():
                p.zero_grad()
            if reference:
                gr = ops.relu_backward(g, out > 0)
                gr = ops.batchnorm_backward(gr, unit._bn_cache, unit.gamma, unit.beta)
                gx = ops.conv2d_backward(gr, unit._cache, unit.spec, unit.kernel, None)
            else:
                gx = unit.backward(g)
            results.append([gx.data] + [p.grad.copy() for p in unit.parameters().values()])
        for got, expected in zip(*results):
            assert np.array_equal(got, expected)


class TestDescribe:
    def test_summary_counters_for_default_config(self):
        summary = build(NetworkConfig()).describe()
        assert summary.downsample_factor == 16
        assert summary.center_conv_count == 7
        assert summary.encoder_convs_per_block == 4
        names = [r.name for r in summary.rows]
        assert sum(n.startswith("dec") and n.endswith(".c1") for n in names) == 4

    def test_totals_equal_registry(self):
        net = build(SMALL)
        summary = net.describe()
        assert summary.total_params == sum(p.value.size for p in net.parameters.values())
        assert sum(r.params for r in summary.rows) == summary.total_params

    def test_static_shapes_match_real_forward(self):
        cfg = NetworkConfig(base_filters=2, depth=3, dilation_rates=(1, 2, 4))
        net = build(cfg)
        hw = 4 * cfg.downsample_factor
        summary = net.describe(ref_hw=(hw, hw))
        y = net.infer(rand_input(cfg, hw=hw))
        assert tuple(summary.rows[-1].out_shape) == (1,) + y.shape[1:]

    def test_table_renders(self):
        text = build(TINY).describe().table()
        assert "total params" in text and "enc0.c1" in text

    @pytest.mark.parametrize("cfg, expected", [
        (NetworkConfig(base_filters=4, depth=3, dilation_rates=(1, 2)), "depth3"),
    ])
    def test_table_is_byte_stable(self, cfg, expected):
        """center.concat's `in` column is the summed branch outputs."""
        assert build(cfg).describe().table() == GOLDEN_TABLES[expected]


GOLDEN_TABLES = {
    "depth3": """\
name              kind      in              out               params  s  d
enc0.c1           conv      (1, 1, 32, 32)  (1, 4, 32, 32)        44  1  1
enc0.c2           conv      (1, 4, 32, 32)  (1, 4, 32, 32)       152  1  1
enc0.c3           conv      (1, 4, 32, 32)  (1, 2, 32, 32)        76  1  1
enc0.c4           conv      (1, 2, 32, 32)  (1, 4, 16, 16)        80  2  1
enc1.c1           conv      (1, 4, 16, 16)  (1, 8, 16, 16)       304  1  1
enc1.c2           conv      (1, 8, 16, 16)  (1, 8, 16, 16)       592  1  1
enc1.c3           conv      (1, 8, 16, 16)  (1, 4, 16, 16)       296  1  1
enc1.c4           conv      (1, 4, 16, 16)  (1, 8, 8, 8)         304  2  1
enc2.c1           conv      (1, 8, 8, 8)    (1, 16, 8, 8)       1184  1  1
enc2.c2           conv      (1, 16, 8, 8)   (1, 16, 8, 8)       2336  1  1
enc2.c3           conv      (1, 16, 8, 8)   (1, 8, 8, 8)        1168  1  1
enc2.c4           conv      (1, 8, 8, 8)    (1, 16, 4, 4)       1184  2  1
center.c1         conv      (1, 16, 4, 4)   (1, 32, 4, 4)       4672  1  1
center.c2         conv      (1, 32, 4, 4)   (1, 32, 4, 4)       9280  1  1
center.b0         conv      (1, 32, 4, 4)   (1, 16, 4, 4)       4640  1  1
center.b1         conv      (1, 32, 4, 4)   (1, 16, 4, 4)       4640  1  2
center.concat     concat    (1, 32, 4, 4)   (1, 48, 4, 4)          0  1  1
center.reduce     conv      (1, 48, 4, 4)   (1, 32, 4, 4)       1600  1  1
dec0.up           upsample  (1, 32, 4, 4)   (1, 32, 8, 8)          0  2  1
dec0.concat       concat    (1, 32, 8, 8)   (1, 40, 8, 8)          0  1  1
dec0.c1           conv      (1, 40, 8, 8)   (1, 16, 8, 8)       5792  1  1
dec0.c2           conv      (1, 16, 8, 8)   (1, 16, 8, 8)       2336  1  1
dec1.up           upsample  (1, 16, 8, 8)   (1, 16, 16, 16)        0  2  1
dec1.concat       concat    (1, 16, 16, 16) (1, 20, 16, 16)        0  1  1
dec1.c1           conv      (1, 20, 16, 16) (1, 8, 16, 16)      1456  1  1
dec1.c2           conv      (1, 8, 16, 16)  (1, 8, 16, 16)       592  1  1
dec2.up           upsample  (1, 8, 16, 16)  (1, 8, 32, 32)         0  2  1
dec2.concat       concat    (1, 8, 32, 32)  (1, 10, 32, 32)        0  1  1
dec2.c1           conv      (1, 10, 32, 32) (1, 4, 32, 32)       368  1  1
dec2.c2           conv      (1, 4, 32, 32)  (1, 4, 32, 32)       152  1  1
fuse1.up          upsample  (1, 16, 8, 8)   (1, 16, 16, 16)        0  2  1
fuse1.concat      concat    (1, 16, 16, 16) (1, 24, 16, 16)        0  1  1
fuse1.c           conv      (1, 24, 16, 16) (1, 8, 16, 16)      1744  1  1
head.up           upsample  (1, 8, 16, 16)  (1, 8, 32, 32)         0  2  1
head.concat       concat    (1, 8, 32, 32)  (1, 12, 32, 32)        0  1  1
head.c1           conv      (1, 12, 32, 32) (1, 4, 32, 32)       440  1  1
head.c2           conv      (1, 4, 32, 32)  (1, 4, 32, 32)       152  1  1
head.logit        conv      (1, 4, 32, 32)  (1, 1, 32, 32)         5  1  1
total params 45589; downsample x8; center convs 5; encoder convs/block 4""",
}


class TestProbes:
    def test_center_branch_receptive_fields(self):
        """Dilation rates 1, 2, 4, 8 respond over supports 3, 5, 9, 17."""
        net = build(NetworkConfig(base_filters=2, depth=1, dilation_rates=(1, 2, 4, 8)))
        probe = probe_center_branches(net, spatial=33)
        assert [(d, h, w) for d, h, w in probe] == [
            (1, 3, 3), (2, 5, 5), (4, 9, 9), (8, 17, 17),
        ]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory) -> bytes:
    """A depth-1, base-1 checkpoint, so that a flipped digit in its config
    cannot ask for a large network."""
    path = tmp_path_factory.mktemp("fuzz") / "small.ckpt"
    net = build(NetworkConfig(base_filters=1, depth=1, dilation_rates=(1,)), seed=0)
    save_checkpoint(path, net, epoch=1, val_miou=0.5)
    return path.read_bytes()


class TestCheckpoint:
    def test_round_trip_preserves_inference(self, tmp_path):
        cfg = SMALL
        net = build(cfg, seed=6)
        x = rand_input(cfg, seed=7)
        net.forward(x)  # populate running stats
        before = net.infer(x)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, epoch=3, val_miou=0.5)
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.infer(x), before)
        assert meta == {"epoch": 3, "val_miou": 0.5}

    def test_never_updated_bn_layers_warn_once_each_on_load(self, tmp_path, caplog):
        net = build(SMALL, seed=6)
        net.forward(rand_input(SMALL, seed=7))  # one update for every layer
        fresh = sorted(net.bn_states)[::3]
        for name in fresh:
            net.bn_states[name].num_updates = 0
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, epoch=1, val_miou=0.5)
        with caplog.at_level("WARNING"):
            loaded, _ = load_checkpoint(path)
            loaded.infer(rand_input(SMALL, seed=8))
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == len(fresh)
        assert all("default-initialized" in m for m in warned)
        for name in net.bn_states:
            hits = [m for m in warned if f"batchnorm {name} " in m]
            assert len(hits) == (name in fresh), name

    @settings(max_examples=200, deadline=None)
    @given(
        cut=st.integers(0, 2**16),
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 7)), max_size=3),
    )
    def test_fuzzed_checkpoint_loads_or_is_data_error(self, small_checkpoint, tmp_path_factory,
                                                      cut, flips):
        """Truncations and bit flips, mostly in the header, of a small
        checkpoint either load or raise DataFormatError."""
        raw = bytearray(small_checkpoint)
        header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
        for pos, bit in flips:
            raw[pos % header_end if pos % 4 else pos % len(raw)] ^= 1 << bit
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        path.write_bytes(bytes(raw[: cut % (len(raw) + 1)]))
        try:
            load_checkpoint(path)
        except DataFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(prefix=st.sampled_from([b"", b"SGET", b"SGET\x01\x00\x00\x00"]),
           body=st.binary(max_size=256))
    def test_random_bytes_load_or_are_data_error(self, tmp_path_factory, prefix, body):
        path = tmp_path_factory.getbasetemp() / "random.ckpt"
        path.write_bytes(prefix + body)
        try:
            load_checkpoint(path)
        except DataFormatError:
            pass

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_rejects_version_mismatch(self, tmp_path):
        net = build(TINY)
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_rejects_name_set_mismatch(self, tmp_path):
        """A checkpoint whose config echo disagrees with its array names."""
        net = build(TINY)
        path = tmp_path / "names.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        raw = path.read_bytes()
        # corrupt the config echo so the rebuilt net expects other arrays
        swapped = raw.replace(b'"depth": 1', b'"depth": 2')
        path.write_bytes(swapped)
        with pytest.raises(DataFormatError, match="registry"):
            load_checkpoint(path)

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        net = build(SMALL, seed=6)
        net.forward(rand_input(SMALL, n=2, seed=7))  # BN state off its start
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, epoch=3, val_miou=0.5)
        _refuse_draws(monkeypatch)
        loaded, _ = load_checkpoint(path)
        for name, p in net.parameters.items():
            assert np.array_equal(loaded.parameters[name].value, p.value), name
        for name, state in net.bn_states.items():
            got = loaded.bn_states[name]
            assert np.array_equal(got.running_mean, state.running_mean), name
            assert np.array_equal(got.running_var, state.running_var), name
            assert got.num_updates == state.num_updates == 1

    @pytest.mark.parametrize("name, value, why", [
        ("head.logit.bias", np.nan, "NaN or infinite"),
        ("enc0.c1.kernel", np.inf, "NaN or infinite"),
        ("center.b1.gamma", -np.inf, "NaN or infinite"),
        ("dec0.c2.beta", np.nan, "NaN or infinite"),
        ("center.reduce.running_mean", np.nan, "NaN or infinite"),
        ("head.c2.running_var", np.inf, "NaN or infinite"),
        ("enc0.c2.running_var", -1e-3, "negative variance"),
    ])
    def test_rejects_a_non_finite_array_or_negative_variance(self, tmp_path, name, value, why):
        net = build(TINY, seed=2)
        _stored_array(net, name).flat[-1] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        with pytest.raises(DataFormatError, match=f"array {name} holds a {why}"):
            load_checkpoint(path)

    def test_zero_variance_loads(self, tmp_path):
        net = build(TINY)
        net.bn_states["enc0.c2"].running_var[:] = (0.0, -0.0)
        path = tmp_path / "zero.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        loaded, _ = load_checkpoint(path)
        assert np.all(loaded.bn_states["enc0.c2"].running_var == 0.0)

    @staticmethod
    def _with_header(path, blob):
        """Rewrite a saved checkpoint with another header blob."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])

    # the config echo of earlier versions carried the network's fixed
    # choices as fields, at these values
    LEGACY_ECHO = {"input_channels": 1, "skip_reduction": 2,
                   "center_concat_input": True, "upsample_mode": "half_pixel"}

    @classmethod
    def _with_config_echo(cls, path, **keys):
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + hlen])
        header["config"].update(keys)
        cls._with_header(path, json.dumps(header, sort_keys=True).encode())

    def test_legacy_config_echo_loads_and_infers_identically(self, tmp_path):
        net = build(SMALL, seed=6)
        x = rand_input(SMALL, seed=7)
        net.forward(x)
        before = net.infer(x)
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(path, net, epoch=3, val_miou=0.5)
        self._with_config_echo(path, **self.LEGACY_ECHO)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.infer(x), before)

    @pytest.mark.parametrize("key, value", [
        ("input_channels", 3), ("skip_reduction", 4),
        ("center_concat_input", False), ("upsample_mode", "align_corners"),
    ])
    def test_rejects_an_echo_of_another_variant(self, tmp_path, key, value):
        path = tmp_path / "variant.ckpt"
        save_checkpoint(path, build(TINY), 0, 0.0)
        self._with_config_echo(path, **{**self.LEGACY_ECHO, key: value})
        with pytest.raises(DataFormatError, match=key):
            load_checkpoint(path)

    # the checkpoint format and the registry order, pinned: a fresh depth-3
    # network (every kind of unit) at seed 3, saved at epoch 1, val mIOU 0.5
    GOLDEN_CONFIG = NetworkConfig(base_filters=1, depth=3, dilation_rates=(1, 2))
    GOLDEN_SHA256 = "6015e1e77b233a138d351ef6fb124e28e990ce14d2ea93f78d4dab1752bd54a3"
    GOLDEN_UNITS = [
        *[f"enc{i}.c{j}" for i in range(3) for j in range(1, 5)],
        "center.c1", "center.c2", "center.b0", "center.b1", "center.reduce",
        *[f"dec{i}.c{j}" for i in range(3) for j in (1, 2)],
        "fuse1.c", "head.c1", "head.c2",
    ]

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        save_checkpoint(path, build(self.GOLDEN_CONFIG, seed=3), 1, 0.5)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_SHA256

    def test_registry_order_is_pinned(self):
        names = [f"{u}.{p}" for u in self.GOLDEN_UNITS for p in ("kernel", "gamma", "beta")]
        names += ["head.logit.kernel", "head.logit.bias"]
        assert list(build(self.GOLDEN_CONFIG).parameters) == names

    # (key named by the refusal, path to the value in the header, value)
    MALFORMED_VALUES = [
        *[("bn_updates", ("bn_updates", "enc0.c1"), v) for v in (-5, 2.7, True, "3", None)],
        *[("val_miou", ("val_miou",), v)
          for v in (None, "x", True, float("nan"), float("inf"), [0.5])],
        *[("epoch", ("epoch",), v) for v in ("one", -1, 1.0, False, None)],
        *[("arrays", ("arrays", 0, "shape"), v)
          for v in ([1.0, 1.0, 3.0, 3.0], [1, 1, 3, -3], [True, 1, 3, 3], "1133", 9)],
        ("arrays", ("arrays", 0, "name"), ["enc0.c1.kernel"]),
        ("config", ("config", "base_filters"), 1.0),
        ("config", ("config", "base_filters"), True),
        ("config", ("config", "depth"), True),
        ("config", ("config", "dilation_rates"), [1.5]),
        ("config", ("config", "dilation_rates"), [True]),
        # the config echo owns the dtype: float32 over float64 arrays, and back
        ("dtype", ("dtype",), "<f8"),
        ("dtype", ("config", "dtype"), "float64"),
    ]

    @pytest.mark.parametrize("key, where, value", MALFORMED_VALUES)
    def test_rejects_a_malformed_header_value(self, tmp_path, key, where, value):
        """A value of the wrong type or range is refused, naming its key,
        rather than loaded as something else or failing later."""
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, build(NetworkConfig(base_filters=1, depth=1, dilation_rates=(1,))),
                        epoch=1, val_miou=0.5)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + hlen])
        parent = header
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = value
        self._with_header(path, json.dumps(header, sort_keys=True).encode())
        with pytest.raises(DataFormatError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("base, depth", [(10**6, 1), (16, 40), (16, 9), (1, 10**9)])
    def test_refuses_a_network_larger_than_the_payload_before_building_it(
            self, tmp_path, monkeypatch, base, depth):
        import seget.checkpoint as checkpoint

        path = tmp_path / "huge.ckpt"
        save_checkpoint(path, build(TINY), 0, 0.0)

        def network_refused(config):
            raise AssertionError("network made")

        monkeypatch.setattr(checkpoint, "SegETNetwork", network_refused)
        with pytest.raises(AssertionError, match="network made"):  # the check is not vacuous
            load_checkpoint(path)
        self._with_config_echo(path, base_filters=base, depth=depth)
        with pytest.raises(DataFormatError, match="more parameters"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        """Each array is read straight into the network: the load's peak
        stays below the network's arrays plus its largest one, where
        reading the whole file first held every weight twice."""
        path = tmp_path / "b8.ckpt"
        save_checkpoint(path, build(NetworkConfig(base_filters=8, depth=4)), 0, 0.0)
        tracemalloc.start()
        try:
            net, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = [a.nbytes for _, a in _array_items(net)]
        assert peak < sum(sizes) + max(sizes)

    def test_rejects_header_missing_a_key(self, tmp_path):
        net = build(TINY)
        path = tmp_path / "nokey.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + hlen])
        del header["bn_updates"]
        self._with_header(path, json.dumps(header).encode())
        with pytest.raises(DataFormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_rejects_non_json_header(self, tmp_path):
        net = build(TINY)
        path = tmp_path / "nojson.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        self._with_header(path, b"\xff not json \x00")
        with pytest.raises(DataFormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        net = build(TINY)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_trailing_payload_bytes(self, tmp_path):
        net = build(TINY)
        path = tmp_path / "trail.ckpt"
        save_checkpoint(path, net, 0, 0.0)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="4 trailing bytes"):
            load_checkpoint(path)

    def test_failed_save_leaves_previous_checkpoint_whole(self, tmp_path, monkeypatch):
        """A save that raises after writing part of the file keeps the old
        best.ckpt byte for byte and leaves no temporary file behind."""
        import seget.checkpoint as checkpoint

        path = tmp_path / "best.ckpt"
        save_checkpoint(path, build(TINY, seed=1), 1, 0.25)
        before = path.read_bytes()

        real_items = checkpoint._array_items

        def items_failing_late(net):
            # a last "array" that cannot be converted to the payload dtype:
            # the header and every real array are written before it raises
            return real_items(net) + [("bogus", np.array(["x"]))]

        monkeypatch.setattr(checkpoint, "_array_items", items_failing_late)
        with pytest.raises(ValueError):
            save_checkpoint(path, build(TINY, seed=2), 2, 0.5)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
        monkeypatch.undo()
        assert load_checkpoint(path)[1] == {"epoch": 1, "val_miou": 0.25}
