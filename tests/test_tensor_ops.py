"""Operator-level tests: forward values against independent oracles,
backward passes against finite differences, and the type invariants."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seget import ops
from seget.tensor import ConvSpec, Parameter, Tensor
from oracles import bilinear_half_pixel_point, naive_conv2d


def make_conv(spec, kernel_values, bias_values=None):
    kernel = Parameter(np.asarray(kernel_values, dtype=np.float64), "conv-kernel",
                       regularized=True)
    if bias_values is None:
        bias_values = np.zeros(spec.out_channels)
    bias = Parameter(np.asarray(bias_values, dtype=np.float64), "conv-bias")
    return kernel, bias


class TestTensorTypes:
    def test_tensor_requires_4d(self):
        with pytest.raises(ValueError, match="4-D"):
            Tensor(np.zeros((3, 3)))

    def test_parameter_grad_accumulates(self):
        p = Parameter(np.ones(3), "conv-bias")
        assert p.grad is None
        p.add_grad(np.array([1.0, 2.0, 3.0]))
        p.add_grad(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(p.grad, [2.0, 4.0, 6.0])
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_only_kernels_regularized(self):
        with pytest.raises(ValueError, match="regularized"):
            Parameter(np.ones(3), "bn-gamma", regularized=True)

    def test_convspec_validation(self):
        with pytest.raises(ValueError):
            ConvSpec(1, 1, kernel=5)
        with pytest.raises(ValueError):
            ConvSpec(1, 1, stride=3)
        with pytest.raises(ValueError):
            ConvSpec(1, 1, dilation=0)
        # dilated branches are stride-1 only
        with pytest.raises(ValueError, match="stride 1"):
            ConvSpec(1, 1, stride=2, dilation=2)

    def test_effective_kernel(self):
        assert ConvSpec(1, 1, dilation=1).effective_kernel == 3
        assert ConvSpec(1, 1, dilation=2).effective_kernel == 5
        assert ConvSpec(1, 1, dilation=8).effective_kernel == 17


class TestConv2dForward:
    def test_ones_3x3_same_padding(self):
        """All-ones 3x3 input and kernel: center sums 9 taps, corners 4."""
        spec = ConvSpec(1, 1)
        x = Tensor(np.ones((1, 1, 3, 3)))
        kernel, bias = make_conv(spec, np.ones((1, 1, 3, 3)))
        y, _ = ops.conv2d_forward(x, spec, kernel, bias)
        expected = naive_conv2d(x.data, kernel.value, bias.value)
        np.testing.assert_allclose(y.data, expected)
        assert y.data[0, 0, 1, 1] == 9.0
        assert y.data[0, 0, 0, 0] == 4.0
        assert y.data[0, 0, 2, 2] == 4.0

    def test_dilation_2_center_tap_only(self):
        """k_eff = 5 on a 3x3 support: only the central tap lands inside."""
        spec = ConvSpec(1, 1, dilation=2)
        x = Tensor(np.ones((1, 1, 3, 3)))
        kernel, bias = make_conv(spec, np.ones((1, 1, 3, 3)))
        y, _ = ops.conv2d_forward(x, spec, kernel, bias)
        expected = naive_conv2d(x.data, kernel.value, bias.value, dilation=2)
        np.testing.assert_allclose(y.data, expected)
        assert y.data[0, 0, 1, 1] == 1.0

    def test_identity_1x1_kernel(self):
        spec = ConvSpec(1, 1, kernel=1)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 1, 5, 6)))
        kernel, bias = make_conv(spec, np.ones((1, 1, 1, 1)))
        y, _ = ops.conv2d_forward(x, spec, kernel, bias)
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(3)
        for spec, shape in [
            (ConvSpec(2, 3), (2, 2, 5, 7)),
            (ConvSpec(3, 2, stride=2), (1, 3, 6, 5)),
            (ConvSpec(2, 2, dilation=2), (1, 2, 8, 8)),
            (ConvSpec(2, 4, kernel=1), (2, 2, 4, 4)),
        ]:
            x = rng.standard_normal(shape)
            kernel, bias = make_conv(
                spec,
                rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)),
                rng.standard_normal(spec.out_channels),
            )
            y, _ = ops.conv2d_forward(Tensor(x), spec, kernel, bias)
            np.testing.assert_allclose(
                y.data, naive_conv2d(x, kernel.value, bias.value, spec.stride, spec.dilation),
                rtol=1e-12, atol=1e-12,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.sampled_from([(1, 1), (1, 2), (1, 4), (1, 8), (2, 1)]),  # (stride, dilation)
        k=st.sampled_from([1, 3]),
        n=st.integers(1, 3),
        channels=st.sampled_from([(1, 2), (1, 1), (2, 3), (3, 1), (5, 2)]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        block_cols=st.sampled_from([1, 40, ops._BLOCK_COLS]),
        gemm_depth=st.sampled_from([1, ops._MIN_GEMM_DEPTH]),
        seed=st.integers(0, 2**16),
    )
    def test_tap_loop_matches_naive_oracle(self, geometry, k, n, channels, h, w,
                                           block_cols, gemm_depth, seed):
        """Every stride/dilation of the tap loop, on extents down to 1, so
        that whole kernel rows and columns lie in the padding (dead taps)
        wherever the extent is below the dilation. block_cols forces
        single-column, mixed and whole-grid blocks; gemm_depth 1 runs every
        tap as its own GEMM, the default groups taps of narrow inputs."""
        stride, dilation = geometry
        c, oc = channels
        spec = ConvSpec(c, oc, kernel=k, stride=stride, dilation=dilation)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        kernel, bias = make_conv(spec, rng.standard_normal((oc, c, k, k)),
                                 rng.standard_normal(oc))
        with mock.patch.object(ops, "_BLOCK_COLS", block_cols), \
                mock.patch.object(ops, "_MIN_GEMM_DEPTH", gemm_depth):
            y, _ = ops.conv2d_forward(Tensor(x), spec, kernel, bias)
        np.testing.assert_allclose(
            y.data, naive_conv2d(x, kernel.value, bias.value, stride, dilation),
            rtol=1e-12, atol=1e-12,
        )

    def test_channel_mismatch_names_both_counts(self):
        spec = ConvSpec(3, 1)
        kernel, bias = make_conv(spec, np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="2 channels.*in_channels=3"):
            ops.conv2d_forward(Tensor(np.zeros((1, 2, 4, 4))), spec, kernel, bias)

    def test_same_padding_shape_contract(self):
        """Output extent equals ceil(extent/stride) for every extent in [1, 64]."""
        rng = np.random.default_rng(0)
        for stride in (1, 2):
            for dilation in (1, 2):
                if dilation > 1 and stride > 1:
                    continue
                spec = ConvSpec(1, 1, stride=stride, dilation=dilation)
                kernel, bias = make_conv(spec, rng.standard_normal((1, 1, 3, 3)))
                for extent in range(1, 65):
                    x = Tensor(np.ones((1, 1, extent, 1 + extent % 7)))
                    y, _ = ops.conv2d_forward(x, spec, kernel, bias)
                    assert y.shape[2] == -(-extent // stride)
                    assert y.shape[3] == -(-(1 + extent % 7) // stride)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(11)
        spec = ConvSpec(2, 3, stride=2)
        kernel, bias = make_conv(
            spec, rng.standard_normal((3, 2, 3, 3)))
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        a, b = 1.7, -0.3
        lhs, _ = ops.conv2d_forward(Tensor(a * x + b * y), spec, kernel, bias)
        fx, _ = ops.conv2d_forward(Tensor(x), spec, kernel, bias)
        fy, _ = ops.conv2d_forward(Tensor(y), spec, kernel, bias)
        rhs = a * fx.data + b * fy.data
        denom = np.maximum(np.abs(rhs), 1e-8)
        assert np.max(np.abs(lhs.data - rhs) / denom) < 1e-10


class TestConv2dInfer:
    """The cache-free conv reads channel-major sources as one stacked input
    and gives conv2d_forward's bits."""

    @pytest.mark.parametrize("spec, n, h, w, split", [
        (ConvSpec(5, 4), 3, 9, 7, (2, 3)),
        (ConvSpec(24, 8), 2, 16, 16, (8, 8, 8)),             # deep enough to read in place
        (ConvSpec(6, 3, stride=2), 2, 10, 7, (1, 5)),
        (ConvSpec(12, 5, dilation=8), 2, 8, 8, (4, 8)),      # one live tap of nine
        (ConvSpec(40, 16, kernel=1), 12, 16, 16, (16, 16, 8)),  # several column blocks
        (ConvSpec(1, 4), 1, 6, 10, (1,)),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_multi_source_equals_forward_on_concatenation(self, spec, n, h, w, split, dtype):
        rng = np.random.default_rng(sum(split) + n)
        parts = [rng.standard_normal((n, c, h, w)).astype(dtype) for c in split]
        kernel, bias = make_conv(
            spec,
            rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)),
            rng.standard_normal(spec.out_channels),
        )
        kernel.value = kernel.value.astype(dtype)
        bias.value = bias.value.astype(dtype)
        y, _ = ops.conv2d_forward(Tensor(np.concatenate(parts, axis=1)), spec, kernel, bias)

        def add_bias(grid):
            grid += bias.value[:, None]

        got = ops.conv2d_infer([a.transpose(1, 0, 2, 3) for a in parts], spec, kernel, add_bias)
        assert got.dtype == y.dtype
        assert np.array_equal(got.transpose(1, 0, 2, 3), y.data)

    def test_channel_mismatch_names_both_counts(self):
        spec = ConvSpec(3, 1)
        kernel, _ = make_conv(spec, np.ones((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="2 channels.*in_channels=3"):
            ops.conv2d_infer([np.ones((1, 1, 4, 4)), np.ones((1, 1, 4, 4))], spec, kernel,
                             lambda grid: None)


class TestConv2dBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        spec = ConvSpec(2, 3)
        rng = np.random.default_rng(0)
        kernel, bias = make_conv(spec, rng.standard_normal((3, 2, 3, 3)),
                                 rng.standard_normal(3))
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        y, cache = ops.conv2d_forward(x, spec, kernel, bias)
        gx = ops.conv2d_backward(Tensor(np.zeros_like(y.data)), cache, spec, kernel, bias)
        assert np.all(gx.data == 0)
        assert np.all(kernel.grad == 0)
        assert np.all(bias.grad == 0)

    def test_scalar_case_hand_derived(self):
        """1x1 kernel on a 1x1 input: y = k*x + b, so dx = k and dk = x."""
        spec = ConvSpec(1, 1, kernel=1)
        kernel, bias = make_conv(spec, np.full((1, 1, 1, 1), 2.5), [0.5])
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        _, cache = ops.conv2d_forward(x, spec, kernel, bias)
        gx = ops.conv2d_backward(Tensor(np.ones((1, 1, 1, 1))), cache, spec, kernel, bias)
        assert gx.data.item() == 2.5
        assert kernel.grad.item() == 3.0
        assert bias.grad.item() == 1.0

    def test_backward_requires_cache(self):
        spec = ConvSpec(1, 1)
        kernel, bias = make_conv(spec, np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="forward cache"):
            ops.conv2d_backward(Tensor(np.zeros((1, 1, 2, 2))), None, spec, kernel, bias)

    def test_grads_accumulate_additively(self):
        spec = ConvSpec(1, 2)
        rng = np.random.default_rng(5)
        kernel, bias = make_conv(spec, rng.standard_normal((2, 1, 3, 3)))
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        y, cache = ops.conv2d_forward(x, spec, kernel, bias)
        g = Tensor(rng.standard_normal(y.shape))
        ops.conv2d_backward(g, cache, spec, kernel, bias)
        once = kernel.grad.copy()
        ops.conv2d_backward(g, cache, spec, kernel, bias)
        np.testing.assert_allclose(kernel.grad, 2 * once)

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from([(1, 1), (1, 2), (1, 4), (2, 1)]),  # (stride, dilation)
        k=st.sampled_from([1, 3]),
        n=st.integers(2, 3),
        channels=st.sampled_from([(1, 2), (2, 3), (3, 2), (2, 1)]),
        h=st.integers(3, 9),
        w=st.integers(3, 9),
        with_bias=st.booleans(),
        block_cols=st.sampled_from([1, 40, ops._BLOCK_COLS]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_naive_oracle(self, geometry, k, n, channels, h, w, with_bias,
                                  block_cols, seed):
        """Input gradient is the adjoint of the oracle conv; kernel gradient
        matches the oracle on one-hot kernels; bias gradient sums grad_out.
        block_cols forces single-column, mixed and whole-layout blocks of
        the shifted-gradient stack."""
        stride, dilation = geometry
        c, oc = channels
        spec = ConvSpec(c, oc, kernel=k, stride=stride, dilation=dilation)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        kv = rng.standard_normal((oc, c, k, k))
        kernel, bias = make_conv(spec, kv, rng.standard_normal(oc))
        bias = bias if with_bias else None
        y, cache = ops.conv2d_forward(Tensor(x), spec, kernel, bias)
        k32 = Parameter(kv.astype(np.float32), "conv-kernel", regularized=True)
        _, cache32 = ops.conv2d_forward(Tensor(x.astype(np.float32)), spec, k32, None)
        g = rng.standard_normal(y.shape)
        with mock.patch.object(ops, "_BLOCK_COLS", block_cols):
            gx = ops.conv2d_backward(Tensor(g), cache, spec, kernel, bias).data
            gx32 = ops.conv2d_backward(Tensor(g.astype(np.float32)), cache32, spec, k32, None).data

        # <conv(x), g> = <x, conv^T(g)> for the linear (bias-free) part
        lhs = np.vdot(naive_conv2d(x, kv, np.zeros(oc), stride, dilation), g)
        assert abs(lhs - np.vdot(x, gx)) <= 1e-10 * max(1.0, abs(lhs))

        # dL/dK[o, c, i, j] = <conv(x, one-hot tap (c, i, j)), g[:, o]>
        ref = np.zeros_like(kv)
        for ci in range(c):
            for i in range(k):
                for j in range(k):
                    onehot = np.zeros((1, c, k, k))
                    onehot[0, ci, i, j] = 1.0
                    tap = naive_conv2d(x, onehot, np.zeros(1), stride, dilation)[:, 0]
                    ref[:, ci, i, j] = np.einsum("nhw,nohw->o", tap, g)
        np.testing.assert_allclose(kernel.grad, ref, rtol=1e-10, atol=1e-10)
        if with_bias:
            np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)

        # float32 agrees with float64 to 1e-5 of the largest magnitude
        assert gx32.dtype == np.float32 and k32.grad.dtype == np.float32
        assert np.max(np.abs(gx32 - gx)) <= 1e-5 * np.max(np.abs(gx))
        assert np.max(np.abs(k32.grad - ref)) <= 1e-5 * np.max(np.abs(ref))


_THREAD_PROBE = """
import hashlib, numpy as np
from seget import ops
from seget.tensor import ConvSpec, Parameter, Tensor
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for spec, shape in [(ConvSpec(80, 32), (12, 80, 8, 8)), (ConvSpec(48, 16), (12, 48, 16, 16)),
                    (ConvSpec(8, 16, stride=2), (12, 8, 32, 32)), (ConvSpec(1, 16), (12, 1, 32, 32)),
                    (ConvSpec(32, 16, dilation=4), (12, 32, 8, 8)),
                    (ConvSpec(32, 16, dilation=8), (12, 32, 8, 8)),
                    (ConvSpec(16, 32), (12, 16, 16, 16)),
                    (ConvSpec(16, 1, kernel=1), (12, 16, 32, 32))]:
    k = spec.kernel
    kernel = Parameter(rng.standard_normal((spec.out_channels, spec.in_channels, k, k))
                       .astype(np.float32), "conv-kernel", regularized=True)
    y, cache = ops.conv2d_forward(Tensor(rng.standard_normal(shape).astype(np.float32)),
                                  spec, kernel, None)
    g = Tensor(rng.standard_normal(y.shape).astype(np.float32))
    gx = ops.conv2d_backward(g, cache, spec, kernel, None)
    for a in (y.data, gx.data, kernel.grad):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_conv_bits_independent_of_blas_threads():
    """Forward, input and kernel gradients are bit-identical with one and
    two OpenBLAS threads, on layers whose grid columns are not a multiple
    of 64, so a training run does not depend on the thread count. The
    probe covers dilated convs on an 8x8 map (dilation 4: all nine taps
    live behind a wide zero margin; dilation 8: one live tap), OC > C,
    and the single-output 1x1 conv, whose shifted-gradient stacks differ
    in shape."""
    src = str(Path(ops.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


class TestBatchNorm:
    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 2.0)
        gamma = Parameter(np.ones(3), "bn-gamma")
        beta = Parameter(np.zeros(3), "bn-beta")
        state = ops.BatchNormState.create(3, dtype=np.float64)
        y, _ = ops.batchnorm_forward(x, gamma, beta, state, "train")
        for c in range(3):
            ch = y.data[:, c]
            assert abs(ch.mean()) < 1e-6
            assert abs(ch.var() - 1.0) < 1e-3  # eps shrinks variance slightly

    def test_infer_with_identity_stats(self):
        x = Tensor(np.linspace(-2, 2, 32).reshape(1, 2, 4, 4))
        gamma = Parameter(np.ones(2), "bn-gamma")
        beta = Parameter(np.zeros(2), "bn-beta")
        state = ops.BatchNormState.create(2, dtype=np.float64)
        y, _ = ops.batchnorm_forward(x, gamma, beta, state, "infer")
        np.testing.assert_allclose(y.data, x.data / np.sqrt(1.0 + ops.BN_EPS))

    def test_infer_before_training_warns(self, caplog):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        gamma = Parameter(np.ones(1), "bn-gamma")
        beta = Parameter(np.zeros(1), "bn-beta")
        state = ops.BatchNormState.create(1, dtype=np.float64)
        with caplog.at_level("WARNING"):
            ops.batchnorm_forward(x, gamma, beta, state, "infer")
        assert any("default-initialized" in r.message for r in caplog.records)

    def test_running_stats_ema(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2, 4, 4)) + 5.0
        gamma = Parameter(np.ones(2), "bn-gamma")
        beta = Parameter(np.zeros(2), "bn-beta")
        state = ops.BatchNormState.create(2, dtype=np.float64)
        ops.batchnorm_forward(Tensor(x), gamma, beta, state, "train")
        expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(state.running_mean, expected_mean)
        assert state.num_updates == 1


    def test_infer_after_one_update_reproduces_the_train_batch(self):
        """Bias-corrected running statistics equal the statistics of the one
        batch they have seen, so infer mode normalizes it as train mode
        did."""
        rng = np.random.default_rng(3)
        for dtype, tol in ((np.float64, 1e-10), (np.float32, 2e-5)):
            x = Tensor((rng.standard_normal((4, 3, 5, 5)) * 3.0 + 2.0).astype(dtype))
            gamma = Parameter(rng.standard_normal(3).astype(dtype), "bn-gamma")
            beta = Parameter(rng.standard_normal(3).astype(dtype), "bn-beta")
            state = ops.BatchNormState.create(3, dtype=dtype)
            train, _ = ops.batchnorm_forward(x, gamma, beta, state, "train")
            infer, _ = ops.batchnorm_forward(x, gamma, beta, state, "infer")
            assert infer.data.dtype == dtype
            np.testing.assert_allclose(infer.data, train.data, rtol=tol, atol=tol)

    def test_corrected_variance_is_clamped_at_zero(self):
        """A constant channel has batch variance 0, so its EMA variance is
        m^t up to float32 rounding. A stored value rounded below m^t would,
        unclamped, give a negative corrected variance and an invstd off
        1/sqrt(eps). At m = 0.99 the EMA of one constant channel does not
        round that way, so the stored variance is set one float32 ulp below
        m after one update."""
        state = ops.BatchNormState.create(1, dtype=np.float32)
        gamma = Parameter(np.ones(1, dtype=np.float32), "bn-gamma")
        beta = Parameter(np.zeros(1, dtype=np.float32), "bn-beta")
        ops.batchnorm_forward(Tensor(np.full((2, 1, 3, 3), 4.0, dtype=np.float32)),
                              gamma, beta, state, "train")
        state.running_var[0] = np.nextafter(np.float32(ops.BN_MOMENTUM), np.float32(0))
        assert float(state.running_var[0]) < ops.BN_MOMENTUM  # the rounding guarded against
        mean, invstd = ops.running_statistics(state)
        np.testing.assert_allclose(mean, [4.0], rtol=1e-6)
        np.testing.assert_allclose(invstd, [1.0 / np.sqrt(ops.BN_EPS)], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_infer_epilogue_equals_batchnorm_then_relu(self, dtype):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 4, 5, 6)).astype(dtype))
        gamma = Parameter(rng.standard_normal(4).astype(dtype), "bn-gamma")
        beta = Parameter(rng.standard_normal(4).astype(dtype), "bn-beta")
        state = ops.BatchNormState.create(4, dtype=dtype)
        ops.batchnorm_forward(Tensor(x.data * 2.0 + 1.0), gamma, beta, state, "train")
        bn, _ = ops.batchnorm_forward(x, gamma, beta, state, "infer")
        expected, _ = ops.relu_forward(bn)
        h = np.ascontiguousarray(x.data.transpose(1, 0, 2, 3))
        ops.batchnorm_relu_infer(h, gamma, beta, state)
        assert np.array_equal(h.transpose(1, 0, 2, 3), expected.data)


def channel_major(x: np.ndarray) -> Tensor:
    """A Tensor of x's values whose memory is channel-major: the (1, 0, 2, 3)
    transpose of a contiguous (C, N, H, W) array."""
    return Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3))


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestLayouts:
    """Every op gives the same results on a C-contiguous NCHW input and on
    a channel-major view of the same values, for any mix of layouts
    between the input and the upstream gradient."""

    @settings(max_examples=30, deadline=None)
    @given(
        geometry=st.sampled_from([(1, 1), (1, 2), (2, 1)]),  # (stride, dilation)
        k=st.sampled_from([1, 3]),
        n=st.integers(1, 3),
        channels=st.sampled_from([(1, 2), (3, 1), (2, 5), (20, 3)]),
        h=st.integers(1, 7),
        w=st.integers(1, 7),
        grad_layout=st.sampled_from(["nchw", "channel-major"]),
        seed=st.integers(0, 2**16),
    )
    def test_conv2d(self, geometry, k, n, channels, h, w, grad_layout, seed):
        stride, dilation = geometry
        c, oc = channels
        spec = ConvSpec(c, oc, kernel=k, stride=stride, dilation=dilation)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        g = rng.standard_normal((n, oc, *spec.out_spatial(h, w)))
        kernel0, bias0 = rng.standard_normal((oc, c, k, k)), rng.standard_normal(oc)
        results = []
        for layout in (Tensor, channel_major):
            kernel, bias = make_conv(spec, kernel0, bias0)
            y, cache = ops.conv2d_forward(layout(x), spec, kernel, bias)
            gt = Tensor(g) if grad_layout == "nchw" else channel_major(g)
            gx = ops.conv2d_backward(gt, cache, spec, kernel, bias)
            results.append((y.data, gx.data, kernel.grad, bias.grad))
        for a, b in zip(*results):
            assert_close(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(["train", "infer"]),
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        grad_layout=st.sampled_from(["nchw", "channel-major"]),
        seed=st.integers(0, 2**16),
    )
    def test_batchnorm(self, mode, n, c, h, w, grad_layout, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)) * 2.0 + 1.0
        g = rng.standard_normal((n, c, h, w))
        gamma0, beta0 = rng.standard_normal(c), rng.standard_normal(c)
        results = []
        for layout in (Tensor, channel_major):
            gamma = Parameter(gamma0.copy(), "bn-gamma")
            beta = Parameter(beta0.copy(), "bn-beta")
            state = ops.BatchNormState.create(c, dtype=np.float64)
            ops.batchnorm_forward(Tensor(x * 0.5 - 1.0), gamma, beta, state, "train")
            y, cache = ops.batchnorm_forward(layout(x), gamma, beta, state, mode)
            gt = Tensor(g) if grad_layout == "nchw" else channel_major(g)
            gx = ops.batchnorm_backward(gt, cache, gamma, beta)
            results.append((y.data, gx.data, gamma.grad, beta.grad,
                            state.running_mean, state.running_var))
        for a, b in zip(*results):
            assert_close(a, b)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_bilinear_upsample(self, n, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        g = rng.standard_normal((n, c, 2 * h, 2 * w))
        results = []
        for layout in (Tensor, channel_major):
            y, cache = ops.bilinear_upsample_2x_forward(layout(x))
            gx = ops.bilinear_upsample_2x_backward(layout(g), cache)
            results.append((y.data, gx.data))
        for a, b in zip(*results):
            assert_close(a, b)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 3),
        channels=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        layouts=st.lists(st.booleans(), min_size=4, max_size=4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_concat(self, n, channels, layouts, h, w, seed):
        """Inputs of mixed layouts stack like C-contiguous ones; the
        gradient pieces are the channels of the upstream gradient."""
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal((n, c, h, w)) for c in channels]
        g = rng.standard_normal((n, sum(channels), h, w))
        expected = np.concatenate(xs, axis=1)
        for chosen in ([Tensor] * len(xs),
                       [channel_major if cm else Tensor for cm in layouts[: len(xs)]]):
            y, cache = ops.concat_channels_forward([f(x) for f, x in zip(chosen, xs)])
            assert_close(y.data, expected)
            for layout in (Tensor, channel_major):
                pieces = ops.concat_channels_backward(layout(g), cache)
                start = 0
                for piece, c in zip(pieces, channels):
                    assert_close(piece.data, g[:, start : start + c])
                    start += c


class TestActivations:
    def test_relu_values(self):
        y, _ = ops.relu_forward(Tensor(np.array([[[[-1.0, 2.5]]]])))
        np.testing.assert_array_equal(y.data.ravel(), [0.0, 2.5])

    def test_sigmoid_at_zero(self):
        y, _ = ops.sigmoid_forward(Tensor(np.zeros((1, 1, 1, 1))))
        assert y.data.item() == 0.5

    def test_sigmoid_extreme_negative_is_finite(self):
        """No overflow at -800; value agrees with an extended-precision oracle."""
        mpmath = pytest.importorskip("mpmath")
        y, _ = ops.sigmoid_forward(Tensor(np.full((1, 1, 1, 1), -800.0)))
        v = y.data.item()
        assert np.isfinite(v)
        assert 0.0 <= v <= 1e-300
        exact = float(1 / (1 + mpmath.e ** mpmath.mpf(800)))
        assert abs(v - exact) <= 1e-300

    def test_sigmoid_extreme_positive(self):
        y, _ = ops.sigmoid_forward(Tensor(np.full((1, 1, 1, 1), 1e3)))
        assert y.data.item() == 1.0

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_in_unit_interval(self, v):
        y, _ = ops.sigmoid_forward(Tensor(np.full((1, 1, 1, 1), v)))
        assert 0.0 <= y.data.item() <= 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_relu_nonnegative(self, v):
        y, _ = ops.relu_forward(Tensor(np.full((1, 1, 1, 1), v)))
        assert y.data.item() >= 0.0


class TestBilinearUpsample:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 3, 5), 3.25))
        y, _ = ops.bilinear_upsample_2x_forward(x)
        assert y.shape == (1, 2, 6, 10)
        np.testing.assert_array_equal(y.data, np.full((1, 2, 6, 10), 3.25))

    def test_degenerate_1x1(self):
        x = Tensor(np.full((1, 1, 1, 1), 7.0))
        y, _ = ops.bilinear_upsample_2x_forward(x)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 7.0))

    def test_2x2_matches_pointwise_oracle(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        y, _ = ops.bilinear_upsample_2x_forward(Tensor(src[None, None]))
        for r in range(4):
            for c in range(4):
                assert y.data[0, 0, r, c] == pytest.approx(
                    bilinear_half_pixel_point(src, r, c), abs=1e-12
                )

    def test_backward_ones_total_weight(self):
        """Transposing an affine-combination map conserves total weight 4*H*W."""
        x = Tensor(np.zeros((1, 1, 5, 7)))
        _, cache = ops.bilinear_upsample_2x_forward(x)
        g = ops.bilinear_upsample_2x_backward(Tensor(np.ones((1, 1, 10, 14))), cache)
        assert g.data.sum() == pytest.approx(4 * 5 * 7, abs=1e-9)


    def test_infer_on_channel_major_equals_forward(self):
        x = np.random.default_rng(5).standard_normal((3, 2, 5, 4)).astype(np.float32)
        y, _ = ops.bilinear_upsample_2x_forward(Tensor(x))
        got = ops.bilinear_upsample_2x_infer(x.transpose(1, 0, 2, 3))
        assert np.array_equal(got.transpose(1, 0, 2, 3), y.data)


class TestConcat:
    def test_single_input_identity(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        y, _ = ops.concat_channels_forward([x])
        np.testing.assert_array_equal(y.data, x.data)

    def test_block_order_preserved(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.ones((1, 3, 4, 4)))
        y, cache = ops.concat_channels_forward([a, b])
        assert y.shape == (1, 5, 4, 4)
        assert np.all(y.data[:, :2] == 0) and np.all(y.data[:, 2:] == 1)
        ga, gb = ops.concat_channels_backward(Tensor(np.ones((1, 5, 4, 4))), cache)
        assert ga.shape == a.shape and gb.shape == b.shape

    def test_spatial_mismatch_names_shapes(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 2, 8, 8)))
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 4\).*\(1, 2, 8, 8\)"):
            ops.concat_channels_forward([a, b])
