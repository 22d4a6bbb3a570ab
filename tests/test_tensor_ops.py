"""Operator-level tests: forward values against independent oracles,
backward passes against finite differences, and the type invariants."""

import contextlib
import copy
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seget import ops, pool
from seget.tensor import ConvSpec, Parameter, Tensor
from oracles import bilinear_half_pixel_point, bn_relu_infer_reference, epilogue_grid, naive_conv2d

pytestmark = pytest.mark.threaded_blas  # also run on the threaded BLAS path (CI)


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

    @pytest.mark.parametrize("other", [(1, 1, 6, 6), (2, 1, 5, 6), (2, 1, 6, 1)],
                             ids=["N", "H", "W"])
    def test_sources_that_differ_in_n_h_or_w_are_refused(self, other):
        """The conv refuses a list of sources whose N, H or W differ,
        instead of broadcasting a 1-sample, 1-row or 1-column one."""
        spec = ConvSpec(3, 2)
        kernel, _ = make_conv(spec, np.ones((2, 3, 3, 3)))
        a, b = np.ones((2, 2, 6, 6)), np.ones(other)
        match = r"must share N,H,W: got \(2, 2, 6, 6\) and " + re.escape(str(other))
        with pytest.raises(ValueError, match=match):
            ops.conv2d_forward([Tensor(a), Tensor(b)], spec, kernel, None)

    def test_an_empty_source_list_is_refused(self):
        spec = ConvSpec(3, 2)
        kernel, _ = make_conv(spec, np.ones((2, 3, 3, 3)))
        with pytest.raises(ValueError, match="at least one input"):
            ops.conv2d_forward([], spec, kernel, None)

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


# (spec, N, H, W, channels per source) of a conv on a list of sources
_MULTI_SOURCE_CASES = [
    (ConvSpec(5, 4), 3, 9, 7, (2, 3)),
    (ConvSpec(24, 8), 2, 16, 16, (8, 8, 8)),             # deep enough to read in place
    (ConvSpec(6, 3, stride=2), 2, 10, 7, (1, 5)),
    (ConvSpec(12, 5, dilation=8), 2, 8, 8, (4, 8)),      # one live tap of nine
    (ConvSpec(40, 16, kernel=1), 12, 16, 16, (16, 16, 8)),  # several column blocks
    (ConvSpec(1, 4), 1, 6, 10, (1,)),                    # a list of one
    (ConvSpec(6, 3, stride=2), 2, 9, 9, (2, 1, 3)),
]


class TestConv2dInfer:
    """The inference conv, conv2d_forward with an epilogue, reads a list of
    sources as one stacked input, and an epilogue that adds the bias
    gives the biased conv's bits."""

    @pytest.mark.parametrize("spec, n, h, w, split", _MULTI_SOURCE_CASES)
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

        got, _ = ops.conv2d_forward([Tensor(a) for a in parts], spec, kernel, None,
                                    epilogue=add_bias)
        assert got.dtype == y.dtype
        assert np.array_equal(got.data, y.data)

    def test_channel_mismatch_names_both_counts(self):
        spec = ConvSpec(3, 1)
        kernel, _ = make_conv(spec, np.ones((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="2 channels.*in_channels=3"):
            ops.conv2d_forward([Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 4, 4)))],
                               spec, kernel, None, epilogue=lambda grid: None)

    @pytest.mark.parametrize("spec, n, h, w, split", _MULTI_SOURCE_CASES)
    def test_epilogue_runs_on_the_biased_grid_that_the_output_crops(self, spec, n, h, w, split):
        """The epilogue gets (OC, columns) blocks of the grid after the bias
        add, one per part of the tap loop (so two on two workers, where the
        grid has two quanta), which cover the grid's first grid_cols columns
        once each, and works in place: the returned Tensor is a view of the
        grid's crop."""
        rng = np.random.default_rng(sum(split) + n + 1)
        x = [Tensor(rng.standard_normal((n, c, h, w))) for c in split]
        kernel, bias = make_conv(
            spec,
            rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)),
            rng.standard_normal(spec.out_channels),
        )
        geo = ops._geometry(n, h, w, spec)
        for workers in (1, 2):
            seen, unbiased = [], []

            def double(block):
                seen.append((block, block.copy()))
                block *= 2.0

            with mock.patch.object(ops, "_BLOCK_COLS", 128), _split_everything(workers):
                ops.conv2d_forward(x, spec, kernel, None,
                                   epilogue=lambda b: unbiased.append((b, b.copy())))
                plain, _ = ops.conv2d_forward(x, spec, kernel, bias)
                y, _ = ops.conv2d_forward(x, spec, kernel, bias, epilogue=double)
            grid, columns = epilogue_grid([block for block, _ in seen])
            assert len(columns) == min(workers, geo.grid_cols // ops._COL_QUANTUM)
            assert grid.ndim == 2 and grid.shape[0] == spec.out_channels
            assert grid.shape[1] >= geo.grid_cols
            edges = sorted(columns)
            assert edges[0][0] == 0 and edges[-1][1] == geo.grid_cols
            assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
            # the parts end in any order: match the blocks by their columns
            _, unbiased_columns = epilogue_grid([block for block, _ in unbiased])
            want = {a: u for (a, _), (_, u) in zip(unbiased_columns, unbiased)}
            for (a, _), (_, received) in zip(columns, seen):
                assert np.array_equal(received, want[a] + bias.value[:, None])
            assert np.shares_memory(y.data, grid)
            assert np.array_equal(y.data, ops._crop(grid, n, geo).transpose(1, 0, 2, 3))
            assert np.array_equal(y.data, 2.0 * plain.data)


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

    @pytest.mark.parametrize("spec, n, h, w, split", _MULTI_SOURCE_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_multi_source_equals_single_input_on_concatenation(self, spec, n, h, w, split,
                                                               dtype):
        """A list of sources gives the forward and the kernel and bias
        gradients of the concatenated input, bit for bit, and one input
        gradient per source with the bits of its channels of the
        concatenated input's gradient."""
        rng = np.random.default_rng(sum(split) + n)
        parts = [rng.standard_normal((n, c, h, w)).astype(dtype) for c in split]
        k0 = rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel))
        b0 = rng.standard_normal(spec.out_channels)
        g = rng.standard_normal((n, spec.out_channels, *spec.out_spatial(h, w))).astype(dtype)
        results = []
        for x in (Tensor(np.concatenate(parts, axis=1)), [Tensor(a) for a in parts]):
            kernel, bias = make_conv(spec, k0, b0)
            kernel.value, bias.value = k0.astype(dtype), b0.astype(dtype)
            y, cache = ops.conv2d_forward(x, spec, kernel, bias)
            gx = ops.conv2d_backward(Tensor(g), cache, spec, kernel, bias)
            results.append((y.data, gx, kernel.grad, bias.grad))
        (y1, gx1, gk1, gb1), (y2, gx2, gk2, gb2) = results
        assert isinstance(gx1, Tensor) and isinstance(gx2, list) and len(gx2) == len(split)
        assert y2.dtype == y1.dtype == dtype
        for a, b in [(y1, y2), (gk1, gk2), (gb1, gb2)]:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        c0 = 0
        for part, piece in zip(parts, gx2):
            want = gx1.data[:, c0 : c0 + part.shape[1]]
            assert piece.shape == part.shape and piece.data.dtype == dtype
            assert np.array_equal(piece.data, want)
            c0 += part.shape[1]

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


def _nan_filled(alloc):
    """alloc (np.empty or np.empty_like) with float results filled with NaN."""
    def nan_alloc(*args, **kwargs):
        a = alloc(*args, **kwargs)
        if a.dtype.kind == "f":
            a.fill(np.nan)
        return a
    return nan_alloc


@contextlib.contextmanager
def _split_everything(workers):
    """A pool scope of `workers` threads in which every conv splits its
    blocks; yields the set of threads that ran a tap or layout GEMM."""
    threads = set()
    matmul = ops._matmul

    def recording_matmul(a, b, out):
        threads.add(threading.get_ident())
        matmul(a, b, out)

    with mock.patch.object(ops, "_SPLIT_MACS", 0), \
            mock.patch.object(ops, "_matmul", recording_matmul), \
            mock.patch.object(pool, "worker_count", lambda: workers), pool.scope():
        yield threads


# (spec, input shape (N, C, H, W)); odd and even extents
_SCRATCH_CASES = [
    (ConvSpec(3, 4), (2, 3, 7, 6)),
    (ConvSpec(5, 2), (2, 5, 8, 8)),
    (ConvSpec(3, 4, stride=2), (2, 3, 7, 6)),
    (ConvSpec(4, 3, stride=2), (2, 4, 8, 8)),
    (ConvSpec(2, 3, stride=2), (2, 2, 1, 5)),              # phase row 0 reads no live tap
    (ConvSpec(3, 2, kernel=1, stride=2), (2, 3, 5, 6)),    # three phases read no tap
    (ConvSpec(4, 3, dilation=2), (2, 4, 6, 9)),
    (ConvSpec(4, 3, dilation=4), (2, 4, 8, 8)),
    (ConvSpec(4, 3, dilation=8), (2, 4, 8, 8)),            # one live tap of nine
    (ConvSpec(1, 1, dilation=8), (1, 1, 8, 8)),            # ... on one channel: outer products
    (ConvSpec(5, 2, kernel=1), (2, 5, 5, 4)),
    (ConvSpec(1, 4), (2, 1, 9, 9)),                        # nine taps in one GEMM
]


class TestConvScratchMemory:
    """The conv allocates its output grid, layout gradient and scratch
    buffers uninitialised and writes or zeroes exactly what it reads.
    Filling every uninitialised array with NaN makes a read of
    uninitialised memory show up as a NaN or a changed bit."""

    @staticmethod
    def _run(spec, shape, dtype):
        rng = np.random.default_rng(sum(shape) + spec.stride + spec.dilation)
        n, c, h, w = shape
        x = rng.standard_normal((c, n, h, w)).astype(dtype)
        k = spec.kernel
        kernel = Parameter(rng.standard_normal((spec.out_channels, c, k, k)).astype(dtype),
                           "conv-kernel", regularized=True)
        bias = Parameter(rng.standard_normal(spec.out_channels).astype(dtype), "conv-bias")
        y, cache = ops.conv2d_forward(Tensor(x.transpose(1, 0, 2, 3)), spec, kernel, bias)
        g = rng.standard_normal(y.shape).astype(dtype)
        gx = ops.conv2d_backward(Tensor(g), cache, spec, kernel, bias)
        blocks = []
        sources = [x[: c // 2], x[c // 2 :]] if c > 1 else [x]
        z, _ = ops.conv2d_forward([Tensor(a.transpose(1, 0, 2, 3)) for a in sources], spec,
                                  kernel, None, epilogue=blocks.append)
        # the same halves as a list of sources for the training conv
        kernel2 = Parameter(kernel.value.copy(), "conv-kernel", regularized=True)
        y2, cache2 = ops.conv2d_forward([Tensor(a.transpose(1, 0, 2, 3)) for a in sources],
                                        spec, kernel2, None)
        gx2 = ops.conv2d_backward(Tensor(g), cache2, spec, kernel2, None)
        return {"forward": y.data, "layout": cache.padded, "input grad": gx.data,
                "kernel grad": kernel.grad, "bias grad": bias.grad, "infer": z.data,
                "infer grid": epilogue_grid(blocks)[0], "sources forward": y2.data,
                "sources layout": cache2.padded, "sources kernel grad": kernel2.grad,
                **{f"source {i} grad": piece.data for i, piece in enumerate(gx2)}}

    @pytest.mark.parametrize("spec, shape", _SCRATCH_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_filled_scratch_gives_the_same_bits(self, spec, shape, dtype):
        want = self._run(spec, shape, dtype)
        with mock.patch.object(np, "empty", _nan_filled(np.empty)), \
                mock.patch.object(np, "empty_like", _nan_filled(np.empty_like)):
            got = self._run(spec, shape, dtype)
        self._assert_same(got, want)

    @pytest.mark.parametrize("spec, shape", _SCRATCH_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_filled_per_part_scratch_gives_the_same_bits(self, spec, shape, dtype):
        """The same with every conv split over three workers in the
        narrowest blocks (one quantum forward, 16 columns backward), each
        part writing its own scratch and partials."""
        with mock.patch.object(ops, "_BLOCK_COLS", 16):
            want = self._run(spec, shape, dtype)
            with _split_everything(3) as threads, \
                    mock.patch.object(np, "empty", _nan_filled(np.empty)), \
                    mock.patch.object(np, "empty_like", _nan_filled(np.empty_like)):
                got = self._run(spec, shape, dtype)
        assert len(threads) > 1
        self._assert_same(got, want)

    @staticmethod
    def _assert_same(got, want):
        for name, a in got.items():
            assert np.isfinite(a).all(), name
            assert a.dtype == want[name].dtype and a.shape == want[name].shape, name
            want_bytes = np.ascontiguousarray(want[name]).tobytes()
            assert np.ascontiguousarray(a).tobytes() == want_bytes, name


# (spec, input shape (N, C, H, W)); with _BLOCK_COLS at 128 each conv has
# several column blocks, so two and three workers split them unevenly
_SPLIT_CASES = [
    (ConvSpec(6, 8), (2, 6, 14, 13)),
    (ConvSpec(6, 8, stride=2), (2, 6, 15, 14)),
    (ConvSpec(8, 5, stride=2), (3, 8, 16, 16)),
    (ConvSpec(6, 4, dilation=2), (2, 6, 16, 16)),
    (ConvSpec(6, 4, dilation=4), (2, 6, 16, 16)),
    (ConvSpec(6, 4, dilation=8), (2, 6, 16, 16)),
    (ConvSpec(6, 4, dilation=8), (2, 6, 8, 8)),      # one live tap of nine
    (ConvSpec(1, 8), (2, 1, 16, 16)),                # C = 1: nine taps in one GEMM
    (ConvSpec(3, 4), (2, 3, 12, 12)),                # C = 3: tap groups of 6 and 3
    (ConvSpec(1, 4, dilation=8), (2, 1, 8, 8)),      # one tap on one channel
    (ConvSpec(8, 1, kernel=1), (2, 8, 16, 16)),      # the 1x1 logit conv
]


class TestConvSplit:
    """A conv whose blocks run on several workers gives the bits of one
    worker: forward (with and without the BN+ReLU epilogue, on one input
    and on a list of sources) and backward (input gradients per source,
    and the kernel and bias gradients after two accumulating calls)."""

    @staticmethod
    def _run(spec, shape, dtype, workers):
        rng = np.random.default_rng(sum(shape) + spec.stride + spec.dilation)
        n, c, h, w = shape
        k, oc = spec.kernel, spec.out_channels
        x = rng.standard_normal((c, n, h, w)).astype(dtype)
        kv = rng.standard_normal((oc, c, k, k)).astype(dtype)
        kernel = Parameter(kv.copy(), "conv-kernel", regularized=True)
        bias = Parameter(rng.standard_normal(oc).astype(dtype), "conv-bias")
        kernel2 = Parameter(kv.copy(), "conv-kernel", regularized=True)
        gamma = Parameter(rng.standard_normal(oc).astype(dtype), "bn-gamma")
        beta = Parameter(rng.standard_normal(oc).astype(dtype), "bn-beta")
        state = ops.BatchNormState(rng.standard_normal(oc).astype(dtype),
                                   rng.uniform(0.5, 2.0, oc).astype(dtype), num_updates=3)
        sources = [x[: c // 2], x[c // 2 :]] if c > 1 else [x]
        sources = [Tensor(a.transpose(1, 0, 2, 3)) for a in sources]
        out = {}
        with mock.patch.object(ops, "_BLOCK_COLS", 128), _split_everything(workers) as threads:
            y, cache = ops.conv2d_forward(Tensor(x.transpose(1, 0, 2, 3)), spec, kernel, bias)
            g = Tensor(rng.standard_normal(y.shape).astype(dtype))
            out["forward"] = y.data
            out["infer"] = ops.conv2d_forward(
                sources, spec, kernel, bias,
                epilogue=ops.batchnorm_relu_infer(gamma, beta, state))[0].data
            y2, cache2 = ops.conv2d_forward(sources, spec, kernel2, None)
            out["sources forward"] = y2.data
            for call in (1, 2):
                out[f"input grad {call}"] = ops.conv2d_backward(g, cache, spec, kernel, bias).data
                for i, piece in enumerate(ops.conv2d_backward(g, cache2, spec, kernel2, None)):
                    out[f"source {i} grad {call}"] = piece.data
        out.update({"kernel grad": kernel.grad, "bias grad": bias.grad,
                    "sources kernel grad": kernel2.grad})
        return out, threads

    @pytest.mark.parametrize("spec, shape", _SPLIT_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_do_not_depend_on_the_worker_count(self, spec, shape, dtype):
        want, threads = self._run(spec, shape, dtype, 1)
        assert threads == {threading.get_ident()}
        for workers in (2, 3):
            got, threads = self._run(spec, shape, dtype, workers)
            assert len(threads) > 1  # pool threads ran parts
            self._assert_same(got, want, workers)

    def test_more_workers_than_cores_under_fast_thread_switches(self):
        """Five workers switching threads every 10 us still give the bits
        of one: no part writes what another reads or writes."""
        spec, shape = ConvSpec(6, 8, stride=2), (3, 6, 24, 24)
        want, _ = self._run(spec, shape, np.float32, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                got, threads = self._run(spec, shape, np.float32, 5)
                assert len(threads) > 1
                self._assert_same(got, want, 5)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _assert_same(got, want, workers):
        for name, a in got.items():
            assert a.dtype == want[name].dtype and a.shape == want[name].shape, name
            assert (np.ascontiguousarray(a).tobytes()
                    == np.ascontiguousarray(want[name]).tobytes()), (workers, name)


class TestOneBlockConvSplit:
    def test_a_one_block_conv_above_the_gate_splits_its_columns(self):
        """A conv of at least _SPLIT_MACS whose grid fits one _BLOCK_COLS
        block still runs on both workers, in two balanced blocks, with the
        bits of one worker."""
        spec, (n, c, h, w) = ConvSpec(64, 64), (2, 64, 30, 30)
        geo = ops._geometry(n, h, w, spec)
        assert geo.grid_cols <= ops._BLOCK_COLS
        assert geo.grid_cols * 64 * 64 * len(geo.taps) >= ops._SPLIT_MACS
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((c, n, h, w)).astype(np.float32).transpose(1, 0, 2, 3))
        kernel = Parameter(rng.standard_normal((64, 64, 3, 3)).astype(np.float32),
                           "conv-kernel", regularized=True)
        threads = set()
        matmul = ops._matmul

        def recording_matmul(a, b, out):
            threads.add(threading.get_ident())
            matmul(a, b, out)

        outputs = []
        for workers in (1, 2):
            threads.clear()
            with mock.patch.object(ops, "_matmul", recording_matmul), \
                    mock.patch.object(pool, "worker_count", lambda: workers), pool.scope():
                outputs.append(np.ascontiguousarray(
                    ops.conv2d_forward(x, spec, kernel, None)[0].data).tobytes())
            assert len(threads) == workers
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("m, split, workers, widths", [
        (6080, False, 2, [3008, 3072]),
        (6016, True, 2, [3008, 3008]),
        (3840, True, 2, [1920, 1920]),
        (3840, True, 3, [1280, 1280, 1280]),
        (8192, True, 3, [2688, 2752, 2752]),
        (128, True, 3, [64, 64]),
        (64, True, 2, [64]),
    ])
    def test_blocks_are_balanced_and_aligned(self, monkeypatch, m, split, workers, widths):
        """The grid's blocks tile its columns in _COL_QUANTUM-aligned blocks
        no wider than _BLOCK_COLS that differ by at most one quantum; a
        split conv has a multiple of the workers of them where the columns
        allow."""
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        with pool.scope():
            blocks = ops._blocks(m, split)
        assert blocks[0][0] == 0 and blocks[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(a % ops._COL_QUANTUM == 0 for a, _ in blocks)
        assert sorted(b - a for a, b in blocks) == widths


class TestChannelSplit:
    """The per-channel ops split by contiguous channel rows over the
    workers (with the _SPLIT_VALUES gate at 0) give the bits of one
    worker: BN forward (output, xhat, invstd, running statistics and
    num_updates), BN+ReLU forward and backward and BN backward (input
    gradients, and gamma/beta gradients after two accumulating calls),
    upsample forward and backward, and a conv on two sources, whose
    channel boundary falls inside a part at some worker counts (tap
    layout, zero-extended gradient, input and kernel gradients)."""

    @staticmethod
    def _run(c, dtype, workers):
        rng = np.random.default_rng(c)
        n, h, w = 2, 7, 6

        def channel_major_input(*shape):
            a = rng.standard_normal((shape[1], shape[0], *shape[2:])).astype(dtype)
            return Tensor(a.transpose(1, 0, 2, 3))

        def bn_parameters():
            return (Parameter(rng.standard_normal(c).astype(dtype), "bn-gamma"),
                    Parameter(rng.standard_normal(c).astype(dtype), "bn-beta"),
                    ops.BatchNormState.create(c, dtype=dtype))

        x = channel_major_input(n, c, h, w)
        g = channel_major_input(n, c, h, w)
        g_up = Tensor(rng.standard_normal((n, c, 2 * h, 2 * w)).astype(dtype))  # NCHW memory
        (gamma, beta, state), (gamma2, beta2, state2) = bn_parameters(), bn_parameters()
        spec = ConvSpec(c, c, stride=2)
        kernel = Parameter(rng.standard_normal((c, c, 3, 3)).astype(dtype), "conv-kernel",
                           regularized=True)
        # channels 1:c are the second source: inside the first of two parts
        sources = [Tensor(x.data[:, :1]), Tensor(x.data[:, 1:])] if c > 1 else [x]
        out = {}
        calls = []
        run_parts = pool.run_parts

        def recording_run_parts(items, task, split=True):
            parts, threads = [], set()
            if split:  # a channel split; the tiny conv's GEMMs do not split
                calls.append((parts, threads))

            def recorded(part):
                parts.append(part)
                threads.add(threading.get_ident())
                return task(part)

            return run_parts(items, recorded, split)

        with mock.patch.object(ops, "_SPLIT_VALUES", 0), \
                mock.patch.object(pool, "run_parts", recording_run_parts), \
                mock.patch.object(pool, "worker_count", lambda: workers), pool.scope():
            y, cache = ops.batchnorm_forward(x, gamma, beta, state)
            y2, cache2 = ops.batchnorm_relu_forward(x, gamma2, beta2, state2)
            for call in (1, 2):
                out[f"bn grad {call}"] = ops.batchnorm_backward(g, cache, gamma, beta).data
                out[f"bn relu grad {call}"] = ops.batchnorm_relu_backward(
                    g, cache2, gamma2, beta2).data
            up, up_cache = ops.bilinear_upsample_2x_forward(x)
            out["upsample grad"] = ops.bilinear_upsample_2x_backward(g_up, up_cache).data
            z, conv_cache = ops.conv2d_forward(sources, spec, kernel, None)
            gz = Tensor(rng.standard_normal(z.shape).astype(dtype))
            for i, piece in enumerate(ops.conv2d_backward(gz, conv_cache, spec, kernel, None)):
                out[f"source {i} grad"] = piece.data
        out.update({
            "bn": y.data, "xhat": cache.xhat, "invstd": cache.invstd, "bn relu": y2.data,
            "xhat relu": cache2.xhat, "upsample": up.data, "conv": z.data,
            "layout": conv_cache.padded, "kernel grad": kernel.grad,
            **{f"{name} {i}": getattr(p, "grad") for i, (name, p) in enumerate(
                (("gamma", gamma), ("beta", beta), ("gamma", gamma2), ("beta", beta2)))},
            **{f"{name} {i}": getattr(s, name) for i, s in enumerate((state, state2))
               for name in ("running_mean", "running_var")},
            "updates": np.array([state.num_updates, state2.num_updates]),
        })
        return out, calls

    @pytest.mark.parametrize("c", [1, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_do_not_depend_on_the_worker_count(self, c, dtype):
        want, calls = self._run(c, dtype, 1)
        # BN forward, BN+ReLU forward (2), twice BN backward and BN+ReLU
        # backward (2), upsample forward and backward, layout and gz copies
        assert len(calls) == 13
        assert all(len(parts) == len(threads) == 1 for parts, threads in calls)
        for workers in (2, 3):
            got, calls = self._run(c, dtype, workers)
            assert len(calls) == 13
            assert all(len(parts) == min(c, workers) for parts, _ in calls)
            assert any(len(threads) > 1 for _, threads in calls) == (c > 1)
            for name, a in got.items():
                assert a.dtype == want[name].dtype and a.shape == want[name].shape, name
                assert (np.ascontiguousarray(a).tobytes()
                        == np.ascontiguousarray(want[name]).tobytes()), (workers, name)


class TestConvAliasing:
    """A conv call shares no memory that a later call writes: caches,
    outputs and returned gradient views stay as they were returned."""

    @pytest.mark.parametrize("spec", [ConvSpec(3, 4), ConvSpec(3, 4, stride=2),
                                      ConvSpec(3, 4, dilation=2), ConvSpec(3, 4, kernel=1)])
    def test_second_call_of_the_same_shape_leaves_the_first_alone(self, spec):
        rng = np.random.default_rng(5)
        kernel = Parameter(rng.standard_normal((4, 3, spec.kernel, spec.kernel)),
                           "conv-kernel", regularized=True)

        def call():
            x = rng.standard_normal((3, 2, 7, 8))
            y, cache = ops.conv2d_forward(Tensor(x.transpose(1, 0, 2, 3)), spec, kernel, None)
            gx = ops.conv2d_backward(Tensor(rng.standard_normal(y.shape)), cache, spec,
                                     kernel, None)
            z = ops.conv2d_forward([Tensor(x.transpose(1, 0, 2, 3))], spec, kernel, None,
                                   epilogue=lambda grid: None)[0].data
            # the same input as two sources, whose gradients are two pieces
            y2, cache2 = ops.conv2d_forward([Tensor(x[:1].transpose(1, 0, 2, 3)),
                                             Tensor(x[1:].transpose(1, 0, 2, 3))],
                                            spec, kernel, None)
            ga, gb = ops.conv2d_backward(Tensor(rng.standard_normal(y.shape)), cache2, spec,
                                         kernel, None)
            return [y.data, cache.padded, gx.data, z, y2.data, cache2.padded, ga.data, gb.data]

        first = call()
        kept = [a.copy() for a in first]
        if spec.stride == 1 and spec.kernel == 3:
            # input gradients are views of the padded layout gradient
            for gx in (first[2], first[6], first[7]):
                assert gx.strides[2] > gx.shape[3] * gx.itemsize
        second = call()
        for a, b, c in zip(first, kept, second):
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, c)

    def test_geometry_is_cached_per_shape_and_spec_and_immutable(self):
        specs = [ConvSpec(4, 4), ConvSpec(4, 4, stride=2), ConvSpec(4, 4, dilation=2),
                 ConvSpec(4, 4, dilation=8), ConvSpec(4, 4, kernel=1)]
        geos = [ops._geometry(2, 8, 8, spec) for spec in specs]
        assert all(ops._geometry(2, 8, 8, spec) is geo for spec, geo in zip(specs, geos))
        assert len({(geo.out_spatial, geo.taps) for geo in geos}) == len(specs)
        assert ops._geometry(3, 8, 8, specs[0]).length != geos[0].length

        def check(value):
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[...] = 0
            elif isinstance(value, tuple):
                for v in value:
                    check(v)
            else:
                assert isinstance(value, int)

        for geo in geos:
            check(geo)

    @pytest.mark.parametrize("other", [ConvSpec(3, 4, dilation=2), ConvSpec(3, 4, stride=2),
                                       ConvSpec(3, 4, kernel=1)])
    def test_backward_refuses_a_spec_the_forward_did_not_run(self, other):
        rng = np.random.default_rng(6)
        spec = ConvSpec(3, 4)
        kernel = Parameter(rng.standard_normal((4, 3, 3, 3)), "conv-kernel", regularized=True)
        y, cache = ops.conv2d_forward(Tensor(rng.standard_normal((2, 3, 8, 8))), spec, kernel,
                                      None)
        with pytest.raises(ValueError, match="does not match the forward"):
            ops.conv2d_backward(Tensor(np.ones(y.shape)), cache, other, kernel, None)


class TestBatchNorm:
    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 2.0)
        gamma = Parameter(np.ones(3), "bn-gamma")
        beta = Parameter(np.zeros(3), "bn-beta")
        state = ops.BatchNormState.create(3, dtype=np.float64)
        y, _ = ops.batchnorm_forward(x, gamma, beta, state)
        for c in range(3):
            ch = y.data[:, c]
            assert abs(ch.mean()) < 1e-6
            assert abs(ch.var() - 1.0) < 1e-3  # eps shrinks variance slightly

    def test_infer_with_identity_stats(self):
        x = np.linspace(-2, 2, 32).reshape(1, 2, 4, 4)
        gamma = Parameter(np.ones(2), "bn-gamma")
        beta = Parameter(np.zeros(2), "bn-beta")
        state = ops.BatchNormState.create(2, dtype=np.float64)
        h = x.transpose(1, 0, 2, 3).copy()
        ops.batchnorm_relu_infer(gamma, beta, state)(h)
        np.testing.assert_allclose(h.transpose(1, 0, 2, 3),
                                   np.maximum(x, 0) / np.sqrt(1.0 + ops.BN_EPS))

    @pytest.mark.parametrize("backward", ["batchnorm_backward", "batchnorm_relu_backward"])
    def test_backward_refuses_a_gradient_of_the_wrong_shape(self, backward):
        """A gradient with the right channel count but another shape is
        refused, naming both shapes, before any gradient is added."""
        rng = np.random.default_rng(6)
        gamma = Parameter(np.ones(2), "bn-gamma")
        beta = Parameter(np.zeros(2), "bn-beta")
        _, cache = ops.batchnorm_forward(Tensor(rng.standard_normal((2, 2, 6, 3))), gamma, beta,
                                         ops.BatchNormState.create(2, dtype=np.float64))
        with pytest.raises(ValueError, match=re.escape("(2, 2, 3, 6)") + ".*"
                           + re.escape("(2, 2, 6, 3)")):
            getattr(ops, backward)(Tensor(rng.standard_normal((2, 2, 3, 6))), cache, gamma, beta)
        assert gamma.grad is None and beta.grad is None

    def test_running_stats_ema(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2, 4, 4)) + 5.0
        gamma = Parameter(np.ones(2), "bn-gamma")
        beta = Parameter(np.zeros(2), "bn-beta")
        state = ops.BatchNormState.create(2, dtype=np.float64)
        ops.batchnorm_forward(Tensor(x), gamma, beta, state)
        expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(state.running_mean, expected_mean)
        assert state.num_updates == 1


    def test_infer_after_one_update_reproduces_the_train_batch(self):
        """Bias-corrected running statistics equal the statistics of the one
        batch they have seen, so the inference BN + ReLU normalizes it as
        the training one did."""
        rng = np.random.default_rng(3)
        for dtype, tol in ((np.float64, 1e-10), (np.float32, 2e-5)):
            x = Tensor((rng.standard_normal((4, 3, 5, 5)) * 3.0 + 2.0).astype(dtype))
            gamma = Parameter(rng.standard_normal(3).astype(dtype), "bn-gamma")
            beta = Parameter(rng.standard_normal(3).astype(dtype), "bn-beta")
            state = ops.BatchNormState.create(3, dtype=dtype)
            train, _ = ops.batchnorm_relu_forward(x, gamma, beta, state)
            infer = np.ascontiguousarray(x.data.transpose(1, 0, 2, 3))
            ops.batchnorm_relu_infer(gamma, beta, state)(infer)
            assert infer.dtype == dtype
            np.testing.assert_allclose(infer.transpose(1, 0, 2, 3), train.data,
                                       rtol=tol, atol=tol)

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
                              gamma, beta, state)
        state.running_var[0] = np.nextafter(np.float32(ops.BN_MOMENTUM), np.float32(0))
        assert float(state.running_var[0]) < ops.BN_MOMENTUM  # the rounding guarded against
        mean, invstd = ops.running_statistics(state)
        np.testing.assert_allclose(mean, [4.0], rtol=1e-6)
        np.testing.assert_allclose(invstd, [1.0 / np.sqrt(ops.BN_EPS)], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_infer_epilogue_equals_pointwise_oracle(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5, 6)).astype(dtype)
        gamma = Parameter(rng.standard_normal(4).astype(dtype), "bn-gamma")
        beta = Parameter(rng.standard_normal(4).astype(dtype), "bn-beta")
        state = ops.BatchNormState.create(4, dtype=dtype)
        ops.batchnorm_forward(Tensor(x * 2.0 + 1.0), gamma, beta, state)
        expected = bn_relu_infer_reference(x, gamma.value, beta.value,
                                           *ops.running_statistics(state))
        h = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        ops.batchnorm_relu_infer(gamma, beta, state)(h)
        assert h.dtype == expected.dtype == dtype
        assert np.array_equal(h.transpose(1, 0, 2, 3), expected)


class TestBatchNormRelu:
    """The unit's fused pair gives the reference ops' results:
    relu_forward after batchnorm_forward, and batchnorm_backward after
    relu_backward on the forward's mask; the inference pair gives the
    pointwise oracle's."""

    @staticmethod
    def inputs(dtype, seed=9):
        """Channel-major input whose channels 0 and 1 are all zero, so their
        xhat is 0; with beta 0 and 0.5 every output of channel 0 is exactly
        0 and of channel 1 exactly 0.5."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 6, 5, 4)).astype(dtype)
        x[:, :2] = 0.0
        gamma = Parameter(rng.standard_normal(6).astype(dtype), "bn-gamma")
        beta = Parameter(rng.standard_normal(6).astype(dtype), "bn-beta")
        beta.value[:2] = (0.0, 0.5)
        state = ops.BatchNormState.create(6, dtype=dtype)
        return channel_major(x), gamma, beta, state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_relu_of_batchnorm(self, dtype):
        x, gamma, beta, state = self.inputs(dtype)
        ref_state = copy.deepcopy(state)
        bn, ref_cache = ops.batchnorm_forward(x, gamma, beta, ref_state)
        expected, _ = ops.relu_forward(bn)
        y, cache = ops.batchnorm_relu_forward(x, gamma, beta, state)
        assert np.all(y.data[:, 0] == 0) and np.all(y.data[:, 1] == 0.5)
        assert (y.data[:, 2:] > 0).any() and (y.data[:, 2:] == 0).any()
        assert y.data.dtype == expected.data.dtype == dtype
        assert np.ascontiguousarray(y.data).tobytes() == expected.data.tobytes()
        assert np.array_equal(cache.xhat, ref_cache.xhat)
        assert np.array_equal(cache.invstd, ref_cache.invstd)
        assert state.num_updates == ref_state.num_updates
        assert np.array_equal(state.running_mean, ref_state.running_mean)
        assert np.array_equal(state.running_var, ref_state.running_var)
        assert np.array_equal(ops._relu_mask(cache, gamma, beta), expected.data > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_batchnorm_backward_of_relu_backward(self, dtype):
        """Equal values; a masked-out zero may differ in sign, as the pair
        masks by multiplying and relu_backward by np.where."""
        x, gamma, beta, state = self.inputs(dtype)
        y, cache = ops.batchnorm_relu_forward(x, gamma, beta, state)
        g = channel_major(np.random.default_rng(10).standard_normal(y.shape).astype(dtype))
        results = []
        for reference in (False, True):
            gamma.zero_grad()
            beta.zero_grad()
            if reference:
                gx = ops.batchnorm_backward(ops.relu_backward(g, y.data > 0), cache, gamma, beta)
            else:
                gx = ops.batchnorm_relu_backward(g, cache, gamma, beta)
            results.append([gx.data, gamma.grad.copy(), beta.grad.copy()])
        for got, expected in zip(*results):
            assert got.dtype == expected.dtype == dtype
            assert np.array_equal(got, expected)

    def test_backward_requires_the_forward_cache(self):
        gamma, beta = Parameter(np.ones(1), "bn-gamma"), Parameter(np.zeros(1), "bn-beta")
        with pytest.raises(ValueError, match="requires the forward cache"):
            ops.batchnorm_relu_backward(Tensor(np.ones((1, 1, 2, 2))), None, gamma, beta)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_keeps_the_exact_channels(self, dtype):
        """After one training batch the all-zero channels have running mean
        0, so, as in training, channel 0 gives exactly 0 and channel 1
        exactly 0.5; every output is the oracle's bit for bit."""
        x, gamma, beta, state = self.inputs(dtype)
        ops.batchnorm_forward(Tensor(x.data * 2.0), gamma, beta, state)
        expected = bn_relu_infer_reference(x.data, gamma.value, beta.value,
                                           *ops.running_statistics(state))
        h = np.ascontiguousarray(x.data.transpose(1, 0, 2, 3))
        ops.batchnorm_relu_infer(gamma, beta, state)(h)
        y = h.transpose(1, 0, 2, 3)
        assert np.all(y[:, 0] == 0) and np.all(y[:, 1] == 0.5)
        assert (y[:, 2:] > 0).any() and (y[:, 2:] == 0).any()
        assert y.dtype == expected.dtype == dtype
        assert np.array_equal(y, expected)


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
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        grad_layout=st.sampled_from(["nchw", "channel-major"]),
        seed=st.integers(0, 2**16),
    )
    def test_batchnorm(self, n, c, h, w, grad_layout, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)) * 2.0 + 1.0
        g = rng.standard_normal((n, c, h, w))
        gamma0, beta0 = rng.standard_normal(c), rng.standard_normal(c)
        results = []
        for layout in (Tensor, channel_major):
            gamma = Parameter(gamma0.copy(), "bn-gamma")
            beta = Parameter(beta0.copy(), "bn-beta")
            state = ops.BatchNormState.create(c, dtype=np.float64)
            y, cache = ops.batchnorm_forward(layout(x), gamma, beta, state)
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
        assert ops.sigmoid(np.zeros((1, 1, 1, 1))).item() == 0.5

    def test_sigmoid_extreme_negative_is_finite(self):
        """No overflow at -800; value agrees with an extended-precision oracle."""
        mpmath = pytest.importorskip("mpmath")
        v = ops.sigmoid(np.full((1, 1, 1, 1), -800.0)).item()
        assert np.isfinite(v)
        assert 0.0 <= v <= 1e-300
        exact = float(1 / (1 + mpmath.e ** mpmath.mpf(800)))
        assert abs(v - exact) <= 1e-300

    def test_sigmoid_extreme_positive(self):
        assert ops.sigmoid(np.full((1, 1, 1, 1), 1e3)).item() == 1.0

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_in_unit_interval(self, v):
        assert 0.0 <= ops.sigmoid(np.full((1, 1, 1, 1), v)).item() <= 1.0

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


    def test_backward_refuses_a_gradient_of_the_wrong_shape(self):
        """N and C count as well as H and W; the error names both shapes."""
        _, cache = ops.bilinear_upsample_2x_forward(Tensor(np.ones((2, 3, 4, 4))))
        with pytest.raises(ValueError, match=re.escape("(5, 7, 8, 8)") + ".*"
                           + re.escape("(2, 3, 8, 8)")):
            ops.bilinear_upsample_2x_backward(Tensor(np.ones((5, 7, 8, 8))), cache)

    def test_interpolation_matrices_are_shared_and_read_only(self):
        m = ops._bilinear_matrix(5, np.dtype(np.float32))
        assert ops._bilinear_matrix(5, np.dtype(np.float32)) is m
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


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
