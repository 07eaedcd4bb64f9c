import functools
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

from bicliff import blocks
from bicliff.blocks import ordered_calls

SPAWN_POOL = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))


class LazyPool:
    """Pool stand-in whose calls run only when their result is asked for."""

    def __init__(self, workers):
        self.workers = workers
        self.futures = []
        self.ran = []
        self.cancelled_at_exit = None  # None while the pool is open

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cancelled_at_exit = [f.cancelled() for f in self.futures]

    def submit(self, fn, *args):
        future = Future()
        pool = self

        def result(timeout=None):
            if not future.done():
                pool.ran.append(args)
                future.set_result(fn(*args))
            return Future.result(future)

        future.result = result
        self.futures.append(future)
        return future


class LazyExecutor:
    """Executor stand-in: each call opens a `LazyPool`, kept for inspection.
    No process is ever started."""

    def __init__(self):
        self.pools = []

    def __call__(self, workers):
        self.pools.append(LazyPool(workers))
        return self.pools[-1]


def test_inline_runs_each_call_on_demand():
    ran = []

    def square(x):
        ran.append(x)
        return x * x

    results = ordered_calls(square, [(k,) for k in range(5)])
    assert next(results) == 0 and ran == [0]
    assert list(results) == [1, 4, 9, 16] and ran == [0, 1, 2, 3, 4]


def test_early_stop_cancels_queued_calls(monkeypatch):
    monkeypatch.setattr(blocks, "usable_cores", lambda: 4)  # the fake starts no process
    executor = LazyExecutor()
    for i, value in enumerate(ordered_calls(pow, [(k, 2) for k in range(10)], 2, executor)):
        assert value == i * i
        if i == 1:
            break
    (pool,) = executor.pools
    # jobs calls in flight, one more submitted after the first result
    assert pool.workers == 2 and len(pool.futures) == 3
    assert [f.cancelled() for f in pool.futures] == [False, False, True]
    assert pool.ran == [(0, 2), (1, 2)]


def test_early_stop_exits_executor_after_cancelling(monkeypatch):
    # the `break` releases the generator: the queued calls are cancelled first,
    # then the pool's `with` block exits, as the callers' own block used to
    monkeypatch.setattr(blocks, "usable_cores", lambda: 4)
    executor = LazyExecutor()
    results = []
    for value in ordered_calls(pow, [(k, 3) for k in range(10)], 3, executor):
        results.append(value)
        if len(results) == 2:
            break
    (pool,) = executor.pools
    assert results == [0, 1] and pool.ran == [(0, 3), (1, 3)]
    assert pool.cancelled_at_exit == [False, False, True, True]


def test_jobs_capped_at_usable_cores():
    # the fake records the worker count it is asked for and starts nothing
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    executor = LazyExecutor()
    calls = [(k, 2, 101) for k in range(12)]
    assert list(ordered_calls(pow, calls, 10**6, executor)) == [pow(*args) for args in calls]
    assert [pool.workers for pool in executor.pools] == ([cores] if cores > 1 else [])
    for pool in executor.pools:
        assert pool.cancelled_at_exit == [False] * len(calls)


def test_one_job_constructs_no_executor():
    def executor(workers):
        raise AssertionError(f"a pool of {workers} was opened for one job")

    calls = [(k, 2, 101) for k in range(12)]
    assert list(ordered_calls(pow, calls, 1, executor)) == [pow(*args) for args in calls]


def test_early_stop_on_process_pool_wastes_at_most_jobs_minus_one_calls(tmp_path):
    # each call makes one directory, so the directories count the calls run
    jobs, consumed = 2, 3
    calls = [(str(tmp_path / f"call{k}"),) for k in range(20)]
    for i, _ in enumerate(ordered_calls(os.mkdir, calls, jobs, SPAWN_POOL)):
        if i + 1 == consumed:
            break
    ran = sorted(p.name for p in tmp_path.iterdir())
    assert ran[:consumed] == [f"call{k}" for k in range(consumed)]
    assert len(ran) - consumed <= jobs - 1


def test_pool_results_equal_inline_results():
    calls = [(k, 3, 1009) for k in range(40)]
    inline = list(ordered_calls(pow, calls))
    pooled = list(ordered_calls(pow, calls, 2, SPAWN_POOL))
    assert pooled == inline == [pow(*args) for args in calls]
