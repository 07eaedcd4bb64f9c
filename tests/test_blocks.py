import multiprocessing
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
    # 2 * jobs calls in flight, one more submitted after the first result
    assert len(pool.futures) == 5
    assert [f.cancelled() for f in pool.futures] == [False, False, True, True, True]
    assert pool.ran == [(0, 2), (1, 2)]


def test_pool_results_equal_inline_results():
    calls = [(k, 3, 1009) for k in range(40)]
    inline = list(ordered_calls(pow, calls))
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        pooled = list(ordered_calls(pow, calls, pool, jobs=2))
    assert pooled == inline == [pow(*args) for args in calls]
