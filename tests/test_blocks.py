import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

from bicliff.blocks import ordered_calls


class LazyPool:
    """Pool stand-in whose calls run only when their result is asked for."""

    def __init__(self):
        self.futures = []
        self.ran = []

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


def test_inline_runs_each_call_on_demand():
    ran = []

    def square(x):
        ran.append(x)
        return x * x

    results = ordered_calls(square, [(k,) for k in range(5)])
    assert next(results) == 0 and ran == [0]
    assert list(results) == [1, 4, 9, 16] and ran == [0, 1, 2, 3, 4]


def test_early_stop_cancels_queued_calls():
    pool = LazyPool()
    for i, value in enumerate(ordered_calls(pow, [(k, 2) for k in range(10)], pool, jobs=2)):
        assert value == i * i
        if i == 1:
            break
    # jobs calls in flight, one more submitted after the first result
    assert len(pool.futures) == 3
    assert [f.cancelled() for f in pool.futures] == [False, False, True]
    assert pool.ran == [(0, 2), (1, 2)]


def test_early_stop_on_process_pool_wastes_at_most_jobs_minus_one_calls(tmp_path):
    # each call makes one directory, so the directories count the calls run
    jobs, consumed = 2, 3
    calls = [(str(tmp_path / f"call{k}"),) for k in range(20)]
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        for i, _ in enumerate(ordered_calls(os.mkdir, calls, pool, jobs)):
            if i + 1 == consumed:
                break
    ran = sorted(p.name for p in tmp_path.iterdir())
    assert ran[:consumed] == [f"call{k}" for k in range(consumed)]
    assert len(ran) - consumed <= jobs - 1


def test_pool_results_equal_inline_results():
    calls = [(k, 3, 1009) for k in range(40)]
    inline = list(ordered_calls(pow, calls))
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        pooled = list(ordered_calls(pow, calls, pool, jobs=2))
    assert pooled == inline == [pow(*args) for args in calls]
