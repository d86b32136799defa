"""An ordered map over forked worker processes, for independent tasks.

``fork_map(fn, items, workers)`` returns ``[fn(x) for x in items]``.  With
more than one worker it forks that many processes with ``os.fork``, but
never more than there are items or CPUs this process may run on.  The
workers inherit ``fn`` and ``items`` from the parent, so ``fn`` may be a
closure over data the parent has already built, and only item indices and
results cross between processes.  The map runs in the calling process
instead when that leaves one worker, when the platform cannot fork, or
when the caller is itself a worker, so pools never nest.

*Taking work.*  The parent writes the item indices, in order, to one pipe
that every worker reads four bytes at a time: a worker takes the next
index when it has finished its last task, so items go out one at a time
and in index order (put the longest first).  A pipe holds 64 KiB, so the
parent feeds it as the workers drain it, in writes of at most
``PIPE_BUF`` bytes, which no reader can split.

*Results.*  A worker keeps its results until the pipe is empty and closed,
or until a task raises, which stops that worker (the others run on to the
end of the pipe).  It then sends them, and the exception if any, to the
parent as one pickle on a pipe of its own, and exits.  Results and
exceptions must pickle: a report that does not pickle fails the worker's
first item with the pickling error.  The parent raises the exception of
the lowest item index, the one a serial map raises.

*Dead workers.*  The parent reaps each worker with ``os.waitpid`` as soon
as its result pipe closes.  A worker that ended without reporting (killed
by a signal, say) makes the map raise ``ChildProcessError`` naming the
signal or exit status at once; the other workers are killed and reaped,
so no child outlives the map.

Forking two workers, mapping 160 trivial tasks over them and reaping them
costs 5-7 ms on 2 vCPUs, and nothing is imported to do it (the standard
library's fork-started ``Pool`` took 14-16 ms a map, and 11-16 ms to
import).

Build n x n inputs in the parent before forking: BLAS calls on such
matrices ran 10-50 times slower in forked workers than in the parent
(classical MDS of 160 points: 3.5 ms in the parent, 40-200 ms in each of
two workers, on 2 vCPUs).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct

from ._bounds import COUNT, check

_in_worker = False


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


def fork_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, spread over up to ``workers`` processes."""
    items = list(items)
    # processes beyond the CPUs would only take turns on them, and the
    # results do not depend on how many there are
    workers = min(workers, len(items), cpus())
    if workers > 1 and not _in_worker and hasattr(os, "fork"):
        return _forked_map(fn, items, workers)
    return [fn(x) for x in items]


def _forked_map(fn, items, workers: int) -> list:
    """``fork_map`` on ``workers`` forked processes."""
    tasks_r, tasks_w = os.pipe()
    queue = memoryview(struct.pack(f"<{len(items)}I", *range(len(items))))
    sent = 0
    reports = {}  # a worker's result pipe -> [its pid, the bytes so far]
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker, which never returns to the caller
                code = 1  # unless the report is out
                try:
                    for fd in (tasks_w, out_r, *reports):
                        os.close(fd)
                    _work(fn, items, tasks_r, out_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out_w)
            reports[out_r] = [pid, bytearray()]
        poller = select.poll()
        poller.register(tasks_w, select.POLLOUT)
        for fd in reports:
            poller.register(fd, select.POLLIN)
        results = [None] * len(items)
        failures = []
        while reports:
            for fd, _ in poller.poll():
                if fd == tasks_w:
                    # a pipe that polls writable takes PIPE_BUF bytes whole,
                    # and with the parent's own read end it always has one
                    sent += os.write(tasks_w,
                                     queue[sent:sent + select.PIPE_BUF])
                    if sent == len(queue):
                        # the workers read to the end of the pipe and stop
                        poller.unregister(tasks_w)
                        os.close(tasks_w)
                        tasks_w = None
                    continue
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    reports[fd][1] += chunk
                    continue
                poller.unregister(fd)
                pid, report = reports.pop(fd)
                os.close(fd)
                status = os.waitpid(pid, 0)[1]
                if status:
                    raise _died(status)
                done, failure = pickle.loads(report)
                for i, value in done:
                    results[i] = value
                if failure is not None:
                    failures.append(failure)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return results
    finally:
        os.close(tasks_r)
        if tasks_w is not None:
            os.close(tasks_w)
        for fd, (pid, _) in reports.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fn, items, tasks: int, out: int) -> None:
    """Run ``fn`` on the items whose indices come down ``tasks`` until the
    pipe ends or a task raises, then send ([(index, result), ...], None or
    (index, exception)) up ``out`` as one pickle."""
    global _in_worker
    _in_worker = True
    done, failure = [], None
    while failure is None:
        index = os.read(tasks, 4)
        if not index:
            break
        i = int.from_bytes(index, "little")
        try:
            done.append((i, fn(items[i])))
        except BaseException as e:  # the caller raises it, as serially
            failure = i, e
    try:
        report = pickle.dumps((done, failure))
    except Exception as e:  # a result or exception that does not pickle
        report = pickle.dumps(([], ((done or [failure])[0][0], e)))
    with open(out, "wb") as fh:
        fh.write(report)


def _died(status: int) -> ChildProcessError:
    """The error for a worker that ended with ``status`` before reporting."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return ChildProcessError(f"a pool worker exited with status {code} "
                                 f"before reporting")
    try:
        name = signal.Signals(-code).name
    except ValueError:  # a real-time signal, which has no name
        name = f"signal {-code}"
    return ChildProcessError(f"a pool worker was killed by {name}")
