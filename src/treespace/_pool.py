"""An ordered map over a fork-started process pool, for independent tasks.

``fork_map(fn, items, workers)`` returns ``[fn(x) for x in items]``.  With
more than one worker it forks that many processes, but never more than
there are items or CPUs this process may run on.  The processes inherit
``fn`` and ``items`` from the parent, so only item indices and results are
pickled, and ``fn`` may be a closure over data the parent has already
built.  The map runs in the calling process instead when that leaves one
worker, when the platform cannot fork, or when the caller is itself a pool
worker, so pools never nest.  An exception raised by ``fn`` in a worker is
raised again in the parent, and the workers are stopped and reaped.

Build n x n inputs in the parent before forking: BLAS calls on such
matrices ran 10-50 times slower in the forked workers than in the parent
(classical MDS of 160 points: 3.5 ms in the parent, 40-200 ms in each of
two workers, on 2 vCPUs).
"""

from __future__ import annotations

import os

from ._bounds import COUNT, check

_in_worker = False
_task = None  # (fn, items), inherited by the forked workers


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """``workers``, or the CPUs this process may run on when None."""
    if workers is None:
        return cpus()
    check(COUNT, workers=workers)
    return workers


def _enter_worker():
    global _in_worker
    _in_worker = True


def _run(i):
    fn, items = _task
    return fn(items[i])


def fork_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, spread over up to ``workers`` processes."""
    global _task
    items = list(items)
    # processes beyond the CPUs would only take turns on them, and the
    # results do not depend on how many there are
    workers = min(workers, len(items), cpus())
    if workers > 1 and not _in_worker:
        # imported here: most commands never start a pool
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            _task = fn, items
            try:
                with multiprocessing.get_context("fork").Pool(
                        workers, initializer=_enter_worker) as pool:
                    return pool.map(_run, range(len(items)), chunksize=1)
            finally:
                _task = None
    return [fn(x) for x in items]
