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

pytestmark = pytest.mark.threaded_blas  # also run on the threaded BLAS path (CI)


def recording_task(part):
    """A run_parts task that returns its items and its thread."""
    return list(part), threading.get_ident()


def test_outside_a_scope_one_part_runs_on_the_calling_thread():
    assert pool.run_parts(range(8), recording_task) == [(list(range(8)), threading.get_ident())]


@pytest.mark.parametrize("workers,items,parts", [
    (1, 8, [8]), (2, 8, [4, 4]), (3, 8, [2, 3, 3]), (3, 2, [1, 1]), (2, 1, [1]),
])
def test_parts_are_contiguous_and_returned_in_order(monkeypatch, workers, items, parts):
    monkeypatch.setattr(pool, "worker_count", lambda: workers)
    me = threading.get_ident()
    with pool.scope():
        results = pool.run_parts(list(range(items)), recording_task)
    assert [len(p) for p, _ in results] == parts
    assert [i for p, _ in results for i in p] == list(range(items))
    assert results[0][1] == me
    assert all(t != me for _, t in results[1:])


def test_split_false_runs_one_part(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    with pool.scope():
        results = pool.run_parts(range(8), recording_task, split=False)
    assert results == [(list(range(8)), threading.get_ident())]


def test_a_call_inside_a_task_runs_inline(monkeypatch):
    """On the calling thread and on a helper alike, a task does not see
    the pool, and the calling thread sees it again once the parts end."""
    monkeypatch.setattr(pool, "worker_count", lambda: 2)

    def task(part):
        return pool.run_parts(range(4), recording_task), threading.get_ident()

    with pool.scope():
        inner = pool.run_parts(range(2), task)
        assert pool.run_parts(range(2), recording_task)[1][1] != threading.get_ident()
    assert len(inner) == 2 and inner[0][1] != inner[1][1]
    for results, thread in inner:
        assert results == [(list(range(4)), thread)]


def test_a_single_part_call_leaves_the_pool_visible(monkeypatch):
    """One item is one part, run as a plain call: a call inside it still
    splits, as the convs of predict's one-window batch do."""
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    with pool.scope():
        [inner] = pool.run_parts([0], lambda part: pool.run_parts(range(4), recording_task))
    assert [p for p, _ in inner] == [[0, 1], [2, 3]]
    assert inner[0][1] == threading.get_ident() != inner[1][1]


def test_the_pool_is_visible_again_after_a_first_part_fails(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    me = threading.get_ident()

    def task(part):
        if threading.get_ident() == me:
            raise ValueError("injected failure")
        return part

    with pool.scope():
        with pytest.raises(ValueError, match="injected failure"):
            pool.run_parts(range(2), task)
        assert pool.run_parts(range(2), recording_task)[1][1] != me


def test_only_the_thread_that_entered_a_scope_sees_its_pool(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    seen = []

    def elsewhere():
        seen.append(pool.run_parts(range(4), recording_task))

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
            pool.run_parts(range(6), recording_task)
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
