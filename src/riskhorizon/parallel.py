"""Order-preserving work over index ranges, on every CPU this process may use.

Rolling episodes is a pure function of one seed at a time. `map_ranges`
splits the items 0..n into consecutive ranges, computes `work(lo, hi)` for
each, and hands the results to `sink` in range order, so the caller sees the
same sequence whatever the worker count.

Workers are forked: each inherits `work` and everything it refers to, so the
input is never pickled; only results travel back. A pool costs milliseconds
to start and stop, so it is used only when the caller's size estimate
reaches POOL_MIN_ROWS, more than one CPU is usable, `fork` exists, no other
thread runs (a forked copy of a threaded process can deadlock) and this
process is not itself a daemonic worker. Otherwise the same `work` runs on
the same ranges in this process.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")

# Rows (steps rolled, estimated as count x max_steps) below which a pool does
# not pay. Importing multiprocessing, starting two workers and stopping them
# takes about 22 ms in a fresh process, and the rolled episodes travel back
# pickled. A corridor step costs about 21-24 us to roll: a 150-episode
# corridor corpus (45 000 rows estimated, 40 080 recorded) rolls faster on a
# 2-CPU pool, while a 400-episode chain corpus (16 000 rows estimated, 5 233
# recorded) rolled no faster.
POOL_MIN_ROWS = 20_000
# Signals that workers take over from the caller: they start with these
# blocked and unblock them in _start_worker, once their own dispositions are
# set. One that arrived earlier would run the caller's handler inside the
# worker's start-up, where Python may swallow what it raises and leave the
# worker alive for its parent to wait on forever.
WORKER_SIGNALS = {signal.SIGINT, signal.SIGTERM}
# Ranges per worker, so that uneven episode lengths even out between workers.
RANGES_PER_WORKER = 4

# The task of a pool worker, set once in each worker by _start_worker.
_work: Callable | None = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_ranges(work: Callable[[int, int], T], n: int, rows: int,
               sink: Callable[[T], object]) -> None:
    """Call sink(work(lo, hi)) for consecutive ranges covering 0..n, in order.

    `rows` estimates the size of the whole job and decides whether a pool
    pays. An exception raised by `work` reaches the caller with its type.
    """

    workers = min(usable_cpus(), n)
    count = min(n, RANGES_PER_WORKER * workers)
    bounds = [(n * k // count, n * (k + 1) // count) for k in range(count)]
    if workers > 1 and rows >= POOL_MIN_ROWS and hasattr(os, "fork") \
            and threading.active_count() == 1:
        import multiprocessing

        # A daemonic process, such as another pool's worker, may not have children.
        if not multiprocessing.current_process().daemon:
            # Pool arguments reach forked workers by inheritance, not by pickling.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, WORKER_SIGNALS)
            try:
                pool = multiprocessing.get_context("fork").Pool(workers, _start_worker, (work,))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            with pool:
                for result in pool.imap(_run_range, bounds):
                    sink(result)
            return
    for lo, hi in bounds:
        sink(work(lo, hi))


def _start_worker(work: Callable) -> None:
    global _work
    # Ctrl-C reaches the parent, which stops the pool; workers stay quiet.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Stopping the pool sends SIGTERM to workers that may still be exiting. A
    # handler inherited from the caller would raise inside that exit, where
    # the worker can deadlock and its parent wait on it forever.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, WORKER_SIGNALS)
    _work = work


def _run_range(bounds: tuple[int, int]):
    return _work(*bounds)
