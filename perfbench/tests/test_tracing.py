"""FLOP formula, self time of nested spans, and attribute restoration."""

import types

import numpy as np

import layers
from seget import ops
from seget.tensor import ConvSpec, Parameter, Tensor
from tracing import Patcher, Span, Tracer, conv_flops, covered, self_times


def naive_conv_macs(x_shape, spec):
    """Multiply-adds of a direct "same" convolution, counted tap by tap."""
    n, c, h, w = x_shape
    oh, ow = spec.out_spatial(h, w)
    macs = 0
    for _ in range(n):
        for _ in range(spec.out_channels):
            for _ in range(oh * ow):
                for _ in range(c):
                    macs += spec.kernel * spec.kernel
    return macs


def traced_conv_flops(x_shape, spec):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=x_shape))
    kernel = Parameter(rng.normal(size=(spec.out_channels, spec.in_channels,
                                        spec.kernel, spec.kernel)), "conv-kernel")
    result = ops.conv2d_forward(x, spec, kernel, None)
    fwd = layers._conv_forward_info((x, spec, kernel, None), {}, result)
    grad = Tensor(np.ones_like(result[0].data))
    bwd = layers._conv_backward_info((grad, result[1], spec, kernel, None), {}, None)
    return fwd["flops"], bwd["flops"]


def test_flops_stride2_match_hand_count():
    # 7x7 -> ceil(7/2) = 4x4 outputs; each sums 3 channels x 9 taps
    spec = ConvSpec(3, 5, kernel=3, stride=2)
    hand = 2 * (2 * 5 * 4 * 4) * (3 * 9)
    assert hand == 8640
    assert 2 * naive_conv_macs((2, 3, 7, 7), spec) == hand
    assert conv_flops(2, 5, 4, 4, 3, 3) == hand
    assert traced_conv_flops((2, 3, 7, 7), spec) == (hand, 2 * hand)


def test_flops_dilated_match_hand_count():
    # dilation 2 spreads the 9 taps over a 5x5 footprint but keeps 9 of them
    spec = ConvSpec(4, 2, kernel=3, dilation=2)
    hand = 2 * (1 * 2 * 6 * 5) * (4 * 9)
    assert hand == 4320
    assert 2 * naive_conv_macs((1, 4, 6, 5), spec) == hand
    assert traced_conv_flops((1, 4, 6, 5), spec) == (hand, 2 * hand)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),      # overlaps a: the union [1, 6] counts once
        Span("c", 8.0, 9.0, 0),
        Span("other", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 1.0, 1.0]


def test_covered_is_the_union_length():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.2, 3.8)]) == 3.0


def test_tracer_records_parent_links_and_hook_info():
    tracer = Tracer()
    inner = tracer.wrap(lambda v: v + 1, "inner", lambda a, k, r: {"result": r})
    outer = tracer.wrap(lambda v: inner(v) * 2, "outer")
    assert outer(1) == 4
    names = [(s.name, s.parent, s.info) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"result": 2})]
    assert all(s.end >= s.start for s in tracer.spans)


def test_patcher_restores_module_class_and_instance_attributes():
    module = types.ModuleType("m")
    module.f = lambda: "f"

    class K:
        def method(self):
            return "method"

    obj = K()
    originals = (module.f, K.__dict__["method"])
    with Patcher() as p:
        p.patch(module, "f", lambda: "patched")
        p.patch(K, "method", lambda self: "patched")
        p.patch(obj, "method", lambda: "instance")
        assert module.f() == "patched" and obj.method() == "instance"
    assert (module.f, K.__dict__["method"]) == originals
    assert "method" not in vars(obj) and obj.method() == "method"
