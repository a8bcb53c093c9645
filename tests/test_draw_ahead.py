"""``simworld.draw_ahead``: a second thread draws the scene generator's
standard normals ahead, and nothing else may tell.

Draws served inside the block have the bits of plain draws, an array once
served keeps its values while later chunks are drawn, every draw after the
block raises (the generator has drawn past what was served), the thread
never outlives the block, and a failing draw reaches the caller instead of
hanging it. A tactile trial enters the block as soon as its overview
image is drawn, before perceiving it, and the calibration right after its
scene is reset. With one CPU no thread starts, and trials, calibration
and the overview cache are the same.
"""

import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vialbench import control, simworld
from vialbench.bench import run_experiment, run_index
from vialbench.cli import main
from vialbench.core import RngStream, split_rng
from vialbench.simworld import (DRAW_AHEAD_CHUNK, DRAW_AHEAD_DEPTH,
                                draw_ahead, make_rig)

FRAME = (160, 160)  # one fingertip frame at the default tactile size
SIZES = [1, 2, 3, FRAME, DRAW_AHEAD_CHUNK, DRAW_AHEAD_CHUNK - 1,
         DRAW_AHEAD_CHUNK + 1, 3 * DRAW_AHEAD_CHUNK + 5]


def two_cpus():
    """Let ``draw_ahead`` start its thread on any host."""
    return mock.patch.object(simworld.os, "sched_getaffinity",
                             lambda pid: {0, 1}, create=True)


def one_cpu():
    return mock.patch.object(simworld.os, "sched_getaffinity",
                             lambda pid: {0}, create=True)


def holder(seed):
    """What ``draw_ahead`` reads of a scene: its generator."""
    return SimpleNamespace(rng=np.random.Generator(np.random.PCG64(seed)))


class Stop(Exception):
    pass


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=6),
       keep=st.booleans(), raise_after=st.none() | st.integers(0, 5))
def test_served_draws_match_plain_draws(seed, sizes, keep, raise_after):
    """Every size, alone or straddling a chunk boundary, gets the float64
    bits of a plain draw; a served array that is kept still holds them
    after later chunks are drawn; and after the block, left normally or
    by an exception, the thread is gone and every draw raises."""
    scene, twin = holder(seed), np.random.Generator(np.random.PCG64(seed))
    threads = threading.active_count()
    drawn = sizes if raise_after is None else sizes[:raise_after]
    kept = []
    try:
        with two_cpus(), draw_ahead(scene):
            assert not isinstance(scene.rng, np.random.Generator)
            for size in drawn:
                got = scene.rng.standard_normal(size)
                want = twin.standard_normal(size)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                if keep:
                    kept.append((got, want))
            if raise_after is not None:
                raise Stop
    except Stop:
        pass
    assert threading.active_count() == threads
    assert all(got.tobytes() == want.tobytes() for got, want in kept)
    with pytest.raises(RuntimeError, match="draw_ahead is closed"):
        scene.rng.standard_normal(1)


def test_concurrent_blocks_under_fast_switching():
    """More blocks than cores at once, switching threads every 10 us:
    every block still serves its own generator's sequence, within a time
    bound."""
    sizes = [3, FRAME, DRAW_AHEAD_CHUNK + 1, 1, FRAME, 2 * DRAW_AHEAD_CHUNK]
    failures = []

    def run(seed):
        scene, twin = holder(seed), np.random.Generator(np.random.PCG64(seed))
        try:
            with draw_ahead(scene):
                for size in sizes:
                    if (scene.rng.standard_normal(size).tobytes()
                            != twin.standard_normal(size).tobytes()):
                        failures.append((seed, size))
        except Exception as exc:  # a worker's error fails the test below
            failures.append((seed, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with two_cpus():
            workers = [threading.Thread(target=run, args=(seed,), daemon=True)
                       for seed in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []


def test_other_draws_fail_inside_the_block():
    scene = holder(3)
    with two_cpus(), draw_ahead(scene):
        for name in ("integers", "random", "normal", "bit_generator"):
            with pytest.raises(AttributeError, match="only standard_normal"):
                getattr(scene.rng, name)


class FailingChunks:
    """A generator whose draws raise."""

    def standard_normal(self, size=None, out=None):
        raise RuntimeError("chunk draw failed")


def test_a_failing_producer_raises_in_the_consumer():
    scene = SimpleNamespace(rng=FailingChunks())
    caught = []

    def consume():
        try:
            with draw_ahead(scene):
                scene.rng.standard_normal(3)
        except RuntimeError as exc:
            caught.append(exc)

    with two_cpus():
        worker = threading.Thread(target=consume, daemon=True)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive(), "the consumer hung on a dead producer"
    assert [str(exc) for exc in caught] == ["chunk draw failed"]


class CountingChunks:
    """A generator that counts its chunk draws; chunk ``fail_at``, if
    given, fails."""

    def __init__(self, fail_at=None):
        self.drawn, self.fail_at = 0, fail_at

    def standard_normal(self, size=None, out=None):
        self.drawn += 1
        if self.drawn == self.fail_at:
            raise RuntimeError(f"chunk {self.drawn} draw failed")
        out = np.empty(size) if out is None else out
        out[...] = self.drawn
        return out


@pytest.mark.parametrize("served", [0, 1, 3])
def test_the_worker_draws_at_most_depth_chunks_ahead(served):
    gen = CountingChunks()
    scene = SimpleNamespace(rng=gen)
    with two_cpus(), draw_ahead(scene):
        for _ in range(served):
            scene.rng.standard_normal(DRAW_AHEAD_CHUNK)
        time.sleep(0.2)  # room for the worker to run ahead if it would
        assert gen.drawn == served + DRAW_AHEAD_DEPTH


def test_a_failed_chunk_fails_every_later_draw():
    """The draw that reaches a failed chunk raises its error, and so does
    every draw after it, instead of serving the chunk after."""
    scene = SimpleNamespace(rng=CountingChunks(fail_at=2))
    with two_cpus(), draw_ahead(scene):
        assert (scene.rng.standard_normal(DRAW_AHEAD_CHUNK) == 1.0).all()
        for _ in range(3):
            with pytest.raises(RuntimeError, match="chunk 2 draw failed"):
                scene.rng.standard_normal(1)


@pytest.fixture(scope="module")
def tactile_rig(config):
    rig = make_rig(config, "tactile")
    return rig, control.calibrate_rig(config, rig)


def tactile_trial(config, weights, tactile_rig, index=0, seen=None):
    rig, calibration = tactile_rig
    return control.run_tactile_trial(
        config, split_rng(RngStream(config.seed), index), weights, rig,
        calibration, trial_index=index, seen={} if seen is None else seen)


def test_no_thread_outlives_a_trial_or_a_campaign(config, weights,
                                                  tactile_rig, monkeypatch):
    started = []
    stand_in = simworld._AheadNormals

    def counted(gen):
        started.append(gen)
        return stand_in(gen)

    monkeypatch.setattr(simworld, "_AheadNormals", counted)
    threads = threading.active_count()
    with two_cpus():
        control.calibrate_rig(config, tactile_rig[0])
        assert threading.active_count() == threads
        assert len(started) == 1
        tactile_trial(config, weights, tactile_rig)
        assert threading.active_count() == threads
        run_experiment(config, 2, 1, weights=weights,
                       modalities=("tactile",))
        assert threading.active_count() == threads
        # One thread for the calibration, one per tactile trial.
        assert len(started) == 1 + 1 + (1 + 2)

        def broken(*args):
            raise Stop

        monkeypatch.setattr(control, "find_contact", broken)
        with pytest.raises(Stop):
            tactile_trial(config, weights, tactile_rig)
        assert threading.active_count() == threads


def no_thread(gen):
    raise AssertionError("a thread started on one CPU")


def test_one_cpu_starts_no_thread_and_keeps_the_record(config, weights,
                                                       tactile_rig,
                                                       monkeypatch):
    with two_cpus():
        ahead = tactile_trial(config, weights, tactile_rig, index=1)

    monkeypatch.setattr(simworld, "_AheadNormals", no_thread)
    with one_cpu():
        assert tactile_trial(config, weights, tactile_rig, index=1) == ahead


def test_calibration_is_the_same_at_one_and_two_cpus(config, monkeypatch,
                                                     capsys):
    rig = make_rig(config, "tactile")
    with two_cpus():
        ahead = control.calibrate_rig(config, rig)
        assert main(["calibrate"]) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(simworld, "_AheadNormals", no_thread)
    with one_cpu():
        inline = control.calibrate_rig(config, rig)
        assert main(["calibrate"]) == 0
    assert capsys.readouterr().out == printed
    assert list(ahead) == list(inline) == ["left", "right"]
    for finger, fit in ahead.items():
        assert fit.gain.tobytes() == inline[finger].gain.tobytes()
        assert fit.bias.tobytes() == inline[finger].bias.tobytes()
        assert fit.residual_rms == inline[finger].residual_rms


def log_calls(monkeypatch, log):
    """Log entry to ``draw_ahead`` with the scene generator's state then,
    and entry to and return from the overview's render and detection, as
    ``control`` calls them."""
    for name in ("render_topdown", "detect_circles"):
        def logged(*args, _name=name, _fn=getattr(control, name), **kwargs):
            log.append(_name)
            out = _fn(*args, **kwargs)
            log.append(f"{_name} returned")
            return out

        monkeypatch.setattr(control, name, logged)
    real = control.draw_ahead

    @contextmanager
    def entered(scene):
        log.append(("draw_ahead", scene.rng.bit_generator.state))
        with real(scene):
            yield

    monkeypatch.setattr(control, "draw_ahead", entered)


def test_a_tactile_trial_draws_ahead_while_it_perceives(config, weights,
                                                        tactile_rig,
                                                        monkeypatch):
    """On an overview miss ``draw_ahead`` is entered after the render
    returns and before circle detection; on a hit, right after the state
    restore. Either way the generator is then where the render leaves it,
    the state the ``seen`` entry holds."""
    log, seen = [], {}
    log_calls(monkeypatch, log)
    with two_cpus():
        tactile_trial(config, weights, tactile_rig, seen=seen)
        state = seen[config.camera.pose()][0]
        assert log == ["render_topdown", "render_topdown returned",
                       ("draw_ahead", state),
                       "detect_circles", "detect_circles returned"]
        log.clear()
        tactile_trial(config, weights, tactile_rig, seen=seen)
        assert log == [("draw_ahead", state)]


def test_a_tactile_trial_leads_its_index_unchanged(config, weights,
                                                   tactile_rig, monkeypatch):
    """With the tactile trial first, so that its miss fills ``seen`` from
    inside ``draw_ahead``, an index at two CPUs equals one at one CPU,
    record for record, and the entry a tactile miss leaves equals the one
    a visual miss leaves."""
    rig, calibration = tactile_rig
    order = ("tactile", "visual", "force")
    with two_cpus():
        ahead = run_index(config, weights, rig, calibration, 0, order)
        seen_tactile, seen_visual = {}, {}
        tactile_trial(config, weights, tactile_rig, seen=seen_tactile)
        control.run_visual_trial(config, split_rng(RngStream(config.seed), 0),
                                 weights, trial_index=0, seen=seen_visual)
    assert seen_tactile == seen_visual
    assert list(seen_tactile) == [config.camera.pose()]
    monkeypatch.setattr(simworld, "_AheadNormals", no_thread)
    with one_cpu():
        inline = run_index(config, weights, rig, calibration, 0, order)
    assert [r.modality for r in ahead] == list(order)
    assert ahead == inline
