"""Test helpers for ``simworld``'s draw worker: a patched CPU count, a
record of the draws submitted to the worker, a fresh worker that shows
whether its thread started, and the contract a finished trial,
calibration or campaign leaves behind."""

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

from vialbench import simworld


def two_cpus():
    """Let the draw worker start on any host."""
    return mock.patch.object(simworld.os, "sched_getaffinity",
                             lambda pid: {0, 1}, create=True)


def one_cpu():
    return mock.patch.object(simworld.os, "sched_getaffinity",
                             lambda pid: {0}, create=True)


@contextmanager
def recorded_draws():
    """While open, every draw submitted to the draw worker is also
    appended, as its future, to the list this yields."""
    submitted = []
    real = simworld._draw_worker

    class Recording:
        def __init__(self, pool):
            self._pool = pool

        def submit(self, *args):
            submitted.append(self._pool.submit(*args))
            return submitted[-1]

    def worker(scene):
        pool = real(scene)
        return None if pool is None else Recording(pool)

    with mock.patch.object(simworld, "_draw_worker", worker):
        yield submitted


@contextmanager
def fresh_worker():
    """While open, a new draw worker, whose thread has not started, stands
    in for the process's; this yields the list of draw threads started in
    the block, filled when it closes."""
    before = draw_threads()
    pool = ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="vialbench-draw")
    started = []
    try:
        with mock.patch.object(simworld, "_worker", pool):
            yield started
    finally:
        started.extend(t for t in draw_threads() if t not in before)
        pool.shutdown(cancel_futures=True)


def pending(futures):
    """The draws among ``futures`` neither begun nor cancelled."""
    return [f for f in futures if not (f.done() or f.running())]


def draw_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("vialbench-draw")]


def assert_settled(futures):
    """What a finished trial, calibration or campaign leaves: no draw
    waiting to be made, and at most one draw worker thread."""
    assert pending(futures) == []
    assert len(draw_threads()) <= 1
