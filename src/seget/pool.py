"""The worker threads of one fit or predict call.

train.fit and cli's predict loop each enter scope(), which owns a pool of
worker_count() - 1 threads for the length of the call: they start on the
first task handed to them and are joined when the scope exits, so no
thread outlives the call. run_parts splits a list of independent items
(predict's windows, a conv's column blocks) into contiguous parts, one
per worker, and calls task(part) on each: the calling thread runs the
first part and the pool the others, and the results come back in part
order.

One rule keeps the cores from being oversubscribed: the parts of a split
never see the pool, on any thread. The scope is a context variable, so
only the thread that entered it sees the pool, and that thread hides it
while it runs the first part. Any call made inside such a part, and any
call on a thread outside a scope, runs as one part on its own thread. A
call that is not split (one item, or split=False) is a plain call with
the pool still visible, so the calls inside it may split.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# at most one worker per window of predict's batch of 8
_MAX_WORKERS = 8


def worker_count() -> int:
    """Threads that a scope's parts run on, the calling thread included.

    One per core this process may run on when BLAS is pinned to one thread,
    else one: a threaded BLAS already spreads each GEMM over the cores, and
    worker threads on top of it oversubscribe them.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, _MAX_WORKERS)


class _Pool:
    def __init__(self, workers: int) -> None:
        # imported with the first pool, not with seget: it adds about 3 ms
        # to the import that every command pays
        from concurrent.futures import ThreadPoolExecutor

        self.workers = workers
        # the executor starts a thread on a submit that finds none idle
        self.executor = ThreadPoolExecutor(max(workers - 1, 1))


_active: contextvars.ContextVar[_Pool | None] = contextvars.ContextVar("seget_pool",
                                                                     default=None)


@contextlib.contextmanager
def scope() -> Iterator[None]:
    """Owns the worker threads of one call; a scope entered inside another
    one uses the outer pool."""
    if _active.get() is not None:
        yield
        return
    pool = _Pool(worker_count())
    token = _active.set(pool)
    try:
        yield
    finally:
        _active.reset(token)
        pool.executor.shutdown(wait=True)


def run_parts(items: Sequence, task: Callable[[Sequence], T], split: bool = True) -> list[T]:
    """Splits items into contiguous parts, one per worker of the visible
    pool if split is true, else one part, and returns [task(part), ...]
    in part order. The calling thread runs the first part with the pool
    hidden, the pool the others. If a task raises, every task has ended
    before the error propagates."""
    pool = _active.get()
    workers = min(pool.workers, len(items)) if pool is not None and split else 1
    if workers < 2:
        return [task(items)]
    bounds = [i * len(items) // workers for i in range(workers + 1)]
    parts = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    helpers = [pool.executor.submit(task, part) for part in parts[1:]]
    token = _active.set(None)
    try:
        first = task(parts[0])
    finally:
        _active.reset(token)
        for f in helpers:  # every task ends before any error propagates
            f.exception()
    return [first] + [f.result() for f in helpers]
