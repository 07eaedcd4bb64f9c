"""Ordered execution of independent blocks of work, inline or on a pool."""

from __future__ import annotations

from collections import deque
from itertools import islice


def ordered_calls(fn, calls, pool=None, jobs: int = 1):
    """Yield fn(*args) for each argument tuple in `calls`, in order.

    Without a pool each call runs inline when its result is asked for.  With
    a pool, which the caller builds and shuts down, at most 2 * jobs calls
    are in flight: one more is submitted each time a result is consumed.
    When the consumer stops early (a `break` out of the loop releases the
    generator, or it is closed), the calls still queued are cancelled, so
    shutting the pool down afterwards waits only for those already running.
    Results never depend on the pool or on `jobs`.
    """
    calls = iter(calls)
    if pool is None:
        for args in calls:
            yield fn(*args)
        return
    pending = deque(pool.submit(fn, *args) for args in islice(calls, 2 * jobs))
    try:
        while pending:
            yield pending.popleft().result()
            for args in islice(calls, 1):
                pending.append(pool.submit(fn, *args))
    finally:
        for future in pending:
            future.cancel()
