"""Ordered execution of independent blocks of work, inline or on a pool: the
one place that decides how many worker processes run, starts and stops them."""

from __future__ import annotations

import os
from collections import deque
from itertools import islice


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where known."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def ordered_calls(fn, calls, jobs: int = 1, executor=None):
    """Yield fn(*args) for each argument tuple in `calls`, in order.

    The work runs on min(jobs, usable cores) workers, since a pool forks all
    of them at its first submit.  With one worker each call runs inline when
    its result is asked for.  Otherwise `executor(workers)` (a
    `ProcessPoolExecutor`, say) opens a pool with at most `workers` calls in
    flight: one more is submitted each time a result is consumed.  When the
    consumer stops early (a `break` out of the loop releases the generator,
    or it is closed) at most workers - 1 calls still run, the queued ones are
    cancelled and the pool shuts down.  Results never depend on `jobs`.
    """
    workers = min(jobs, usable_cores())
    calls = iter(calls)
    if workers <= 1:
        for args in calls:
            yield fn(*args)
        return
    with executor(workers) as pool:
        pending = deque(pool.submit(fn, *args) for args in islice(calls, workers))
        try:
            while pending:
                yield pending.popleft().result()
                for args in islice(calls, 1):
                    pending.append(pool.submit(fn, *args))
        finally:
            for future in pending:
                future.cancel()
