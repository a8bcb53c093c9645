"""Test helpers for ``simworld``'s draw worker: a patched CPU count, a
record of the draws submitted to the worker, and the contract a finished
trial, calibration or campaign leaves behind."""

import threading
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

    def worker():
        pool = real()
        return None if pool is None else Recording(pool)

    with mock.patch.object(simworld, "_draw_worker", worker):
        yield submitted


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
