"""The worker pool of fit and predict: how run_parts splits its items,
what a failing part does, and that no thread outlives a scope."""

import threading
import time

import numpy as np
import pytest

from seget import ops, pool
from seget.model import NetworkConfig, build
from seget.tensor import ConvSpec, Parameter, Tensor
from seget.train import TrainConfig, fit
from test_train import make_patches


def recording_make(log):
    """A run_parts task maker whose tasks return (their items, their thread)."""
    def make(part, first):
        log.append((list(part), first, threading.get_ident()))
        return lambda: (list(part), threading.get_ident())
    return make


def test_outside_a_scope_one_part_runs_on_the_calling_thread():
    made = []
    results = pool.run_parts(range(8), recording_make(made))
    me = threading.get_ident()
    assert made == [(list(range(8)), True, me)]
    assert results == [(list(range(8)), me)]


@pytest.mark.parametrize("workers,items,parts", [
    (1, 8, [8]), (2, 8, [4, 4]), (3, 8, [2, 3, 3]), (3, 2, [1, 1]), (2, 1, [1]),
])
def test_parts_are_contiguous_made_on_the_calling_thread_and_returned_in_order(
        monkeypatch, workers, items, parts):
    monkeypatch.setattr(pool, "worker_count", lambda: workers)
    made = []
    me = threading.get_ident()
    with pool.scope():
        results = pool.run_parts(list(range(items)), recording_make(made))
    assert [len(p) for p, _ in results] == parts
    assert [i for p, _ in results for i in p] == list(range(items))
    assert [(p, first) for p, first, _ in made] == [(p, i == 0) for i, (p, _) in enumerate(results)]
    assert {t for *_, t in made} == {me}
    assert results[0][1] == me
    assert all(t != me for _, t in results[1:])


def test_split_false_runs_one_part(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    with pool.scope():
        results = pool.run_parts(range(8), recording_make([]), split=False)
    assert results == [(list(range(8)), threading.get_ident())]


def test_a_call_inside_a_part_finds_the_pool_busy_and_runs_inline(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    inner = []

    def make(part, first):
        def run():
            made = []
            inner.append((pool.run_parts(range(4), recording_make(made)), threading.get_ident()))
            return made
        return run

    with pool.scope():
        pool.run_parts(range(2), make)
        assert pool.run_parts(range(2), recording_make([]))[1][1] != threading.get_ident()
    assert len(inner) == 2
    for results, thread in inner:
        assert results == [(list(range(4)), thread)]


def test_only_the_thread_that_entered_a_scope_sees_its_pool(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    seen = []

    def elsewhere():
        seen.append(pool.run_parts(range(4), recording_make([])))

    with pool.scope():
        other = threading.Thread(target=elsewhere)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
    assert seen == [[(list(range(4)), other.ident)]]


def test_no_thread_outlives_a_scope(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 3)
    before = threading.active_count()
    with pool.scope():
        assert threading.active_count() == before  # threads start on the first task
        with pool.scope():  # a nested scope uses the outer pool
            pool.run_parts(range(6), recording_make([]))
        assert threading.active_count() > before
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["caller", "helper"])
@pytest.mark.parametrize("op", ["forward", "backward"])
def test_a_failing_part_raises_as_on_one_thread_after_every_part_ended(monkeypatch, failing,
                                                                       op):
    """The error of either thread's part leaves the conv as it would on one
    thread; the other parts have ended by then, and the scope's threads
    are gone once it exits."""
    spec = ConvSpec(6, 8)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 6, 16, 16)))
    kernel = Parameter(rng.standard_normal((8, 6, 3, 3)), "conv-kernel", regularized=True)
    y, cache = ops.conv2d_forward(x, spec, kernel, None)
    g = Tensor(rng.standard_normal(y.shape))
    call = ((lambda: ops.conv2d_forward(x, spec, kernel, None)) if op == "forward"
            else (lambda: ops.conv2d_backward(g, cache, spec, kernel, None)))
    matmul = ops._matmul
    caller = threading.get_ident()
    running = []

    def failing_matmul(a, b, out):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise ValueError("injected matmul failure")
        running.append(1)
        time.sleep(0.002)
        matmul(a, b, out)
        running.pop()

    monkeypatch.setattr(ops, "_matmul", failing_matmul)
    monkeypatch.setattr(ops, "_SPLIT_MACS", 0)
    monkeypatch.setattr(ops, "_BLOCK_COLS", 64)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    if failing == "caller":  # on one thread, outside a scope: the same error
        with pytest.raises(ValueError, match="injected matmul failure"):
            call()
    before = threading.active_count()
    with pool.scope():
        with pytest.raises(ValueError, match="injected matmul failure"):
            call()
        assert not running
    assert threading.active_count() == before


BASE2 = NetworkConfig(base_filters=2, depth=2, dilation_rates=(1, 2))


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_part_fails_fit(tmp_path, monkeypatch, failing):
    matmul = ops._matmul
    caller = threading.get_ident()

    def failing_matmul(a, b, out):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise ValueError("injected matmul failure")
        matmul(a, b, out)

    monkeypatch.setattr(ops, "_matmul", failing_matmul)
    monkeypatch.setattr(ops, "_SPLIT_MACS", 0)
    monkeypatch.setattr(ops, "_BLOCK_COLS", 128)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    before = threading.active_count()
    cfg = TrainConfig(epochs=1, batch_size=2, checkpoint_path=str(tmp_path / "b.ckpt"))
    with pytest.raises(ValueError, match="injected matmul failure"):
        fit(build(BASE2, seed=1), make_patches(4), make_patches(2, seed=9), cfg)
    assert threading.active_count() == before
    assert not (tmp_path / "b.ckpt").exists()


def test_a_base4_64px_fit_starts_no_thread(tmp_path, monkeypatch):
    """No conv of the base-4 network on 64x64 patches reaches the split
    gate, so two workers start no thread."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    cfg = TrainConfig(epochs=1, batch_size=12, checkpoint_path=str(tmp_path / "b.ckpt"))
    fit(build(NetworkConfig(base_filters=4, depth=4), seed=0), make_patches(12, hw=64),
        make_patches(2, hw=64, seed=9), cfg)
    assert (tmp_path / "b.ckpt").exists()
    assert started == []
