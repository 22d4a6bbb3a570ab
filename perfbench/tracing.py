"""In-memory span tracing around Python call boundaries.

A Tracer hands out wrappers that record one span per call: name, start,
end, the index of the enclosing span (-1 at top level) and an optional
info dict filled by a hook after the call returns. A Patcher swaps
attributes for such wrappers and puts every original back on restore.
Nothing here knows about seget; the bindings live in layers.py.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                      # index into the span list, -1 at top level
    info: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, fn: Callable, name: str,
             hook: Callable[[tuple, dict, Any], dict | None] | None = None) -> Callable:
        """A wrapper that records a span around every call of fn.

        hook(args, kwargs, result) runs after the span closes, so its cost
        lands in the parent's self time, never in this span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced


class Patcher:
    """Replaces attributes of modules, classes or instances and restores
    them in reverse order. An attribute the owner did not hold itself
    (an instance shadowing its class's method) is deleted on restore."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        own = vars(owner)
        self._saved.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def children(spans: list[Span]) -> list[list[int]]:
    """Direct child indices of every span."""
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    kids = children(spans)
    out = []
    for s, ks in zip(spans, kids):
        inner = [(max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in ks]
        out.append((s.end - s.start) - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def conv_flops(n: int, out_channels: int, oh: int, ow: int,
               in_channels: int, kernel: int) -> int:
    """Forward FLOPs of a dense 2-D convolution: one multiply and one add
    per kernel tap, input channel and output element. Padding taps count;
    dilation spreads the taps but does not change their number."""
    return 2 * n * out_channels * oh * ow * in_channels * kernel * kernel
