"""The gradient-check harness itself: exactness on linear maps, the
conv pass case, and mutation tests proving corrupted backwards fail."""

import numpy as np
import pytest

from seget import gradcheck as gc
from seget import ops
from seget.model import NetworkConfig, build
from seget.tensor import ConvSpec, Parameter, Tensor

pytestmark = pytest.mark.threaded_blas  # also run on the threaded BLAS path (CI)


def test_relative_error_definition():
    assert gc.relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    # denominator floors at 1e-8
    assert gc.relative_error(np.array([0.0]), np.array([1e-9])) == pytest.approx(0.1)


def test_linear_op_is_exact():
    """concat is linear: no truncation error at any step, so a +-1
    projection and a step above the float cancellation floor leave only
    rounding noise, well under 1e-10."""
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((1, 2, 3, 3))
    b0 = rng.standard_normal((1, 1, 3, 3))
    proj = rng.choice([-1.0, 1.0], size=(1, 3, 3, 3))

    def fn(a, b):
        y, cache = ops.concat_channels_forward([Tensor(a), Tensor(b)])
        ga, gb = ops.concat_channels_backward(Tensor(proj), cache)
        return float((y.data * proj).sum()), (ga.data, gb.data)

    report = gc.gradcheck(fn, [a0, b0], name="concat", step=1e-4)
    assert report.passed
    assert report.max_rel_err < 1e-10


def test_conv_passes_at_1e4():
    rng = np.random.default_rng(42)
    spec = ConvSpec(3, 2)
    report = gc._check_conv(rng, spec, (2, 3, 8, 8), "conv 2x3x8x8", 1e-4)
    assert report.passed


@pytest.mark.parametrize("spec, shape", [
    (ConvSpec(5, 3), (2, 6, 6)),
    (ConvSpec(5, 3, stride=2), (2, 7, 6)),
    (ConvSpec(5, 2, kernel=1), (2, 5, 5)),
])
def test_two_source_conv_passes(spec, shape):
    """A conv on a list of two sources: each source's gradient, the kernel
    gradient and the bias gradient against central differences."""
    n, h, w = shape
    report = gc._check_conv(np.random.default_rng(7), spec, (n, 5, h, w),
                            f"conv2d[a, b] s{spec.stride} k{spec.kernel}", gc.DEFAULT_TOLERANCE,
                            sources=(2, 3))
    assert report.passed, report.line()


def test_corrupted_kernel_grad_fails():
    """Scaling the kernel gradient by 1.01 must be detected."""
    rng = np.random.default_rng(1)
    spec = ConvSpec(2, 2)
    x0 = rng.standard_normal((1, 2, 5, 5))
    k0 = rng.standard_normal((2, 2, 3, 3))
    proj = rng.standard_normal((1, 2, 5, 5))

    def fn(x, k):
        kernel = Parameter(k.copy(), "conv-kernel", regularized=True)
        bias = Parameter(np.zeros(2), "conv-bias")
        y, cache = ops.conv2d_forward(Tensor(x), spec, kernel, bias)
        gx = ops.conv2d_backward(Tensor(proj), cache, spec, kernel, bias)
        return float((y.data * proj).sum()), (gx.data, kernel.grad * 1.01)

    report = gc.gradcheck(fn, [x0, k0], name="corrupted conv")
    assert not report.passed
    assert report.max_rel_err > 1e-3


def test_mutated_backward_op_fails_suite(monkeypatch):
    """A wrong backward anywhere in the op module must fail the suite."""
    real_backward = ops.conv2d_backward

    def corrupted(grad_out, cache, spec, kernel, bias):
        out = real_backward(grad_out, cache, spec, kernel, bias)
        if isinstance(out, list):  # one gradient per source
            return [Tensor(t.data * 1.01) for t in out]
        return Tensor(out.data * 1.01)

    monkeypatch.setattr(ops, "conv2d_backward", corrupted)
    reports = gc.run_operator_suite(seeds=[0])
    assert any(not r.passed for r in reports)


def test_report_line_format():
    r = gc.GradCheckReport("demo", 2.5e-5, 1e-4, True)
    assert "pass" in r.line() and "demo" in r.line()


def test_network_suite_tiny_config():
    reports = gc.run_network_suite(seed=3)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("cfg, shape", [
    (NetworkConfig(base_filters=1, depth=3, dilation_rates=(1, 2), dtype="float64"),
     (2, 1, 16, 16)),
    (NetworkConfig(base_filters=2, depth=4, dilation_rates=(1, 2, 4, 8), dtype="float64"),
     (1, 1, 32, 32)),
])
def test_deep_wiring_matches_finite_differences(cfg, shape):
    """Decoder, fusion and head fan-out and the summed center branches
    at depth >= 3, through the training walk, on 4 sampled coordinates
    per parameter tensor.

    The gammas, betas and logit bias first move off their build values
    1 and 0: at beta 0, ReLU is positively homogeneous and the next BN
    scale-invariant, so every gamma gradient is zero up to round-off
    (near 6e-9), which no finite difference resolves. Between ReLU kinks
    the objective is smooth but curved, as BN divides by the batch's own
    deviation, so the first step is a small 1e-7; where the one-sided
    slopes disagree, a kink lies within the step and the step shrinks."""
    rng = np.random.default_rng(0)
    net = build(cfg, seed=1)
    for name, p in net.parameters.items():
        if not name.endswith(".kernel"):
            p.value += 0.3 * rng.standard_normal(p.value.shape)
    x = Tensor(rng.standard_normal(shape))
    proj = rng.standard_normal(shape)

    def value() -> float:
        return float((net.forward(x).data * proj).sum())

    def shifted(flat: np.ndarray, i: int, step: float) -> tuple[float, float]:
        orig = flat[i]
        flat[i] = orig + step
        plus = value()
        flat[i] = orig - step
        minus = value()
        flat[i] = orig
        return plus, minus

    f0 = value()
    net.zero_grads()
    net.backward(Tensor(proj))
    for name, p in net.parameters.items():
        flat = p.value.ravel()
        coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        analytic = p.grad.ravel()[coords]
        numeric = np.empty_like(analytic)
        for k, i in enumerate(coords):
            step = 1e-7
            plus, minus = shifted(flat, i, step)
            while step > 1e-9 and gc.relative_error(plus - f0, f0 - minus) > 1e-3:
                step /= 10
                plus, minus = shifted(flat, i, step)
            numeric[k] = (plus - minus) / (2.0 * step)
        assert gc.relative_error(analytic, numeric) <= 1e-3, name
