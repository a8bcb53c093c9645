"""``simworld.draw_ahead``: the process's draw worker draws the scene
generator's standard normals ahead, and nothing else may tell.

Draws served inside the block have the bits of plain draws, an array once
served keeps its values while later chunks are drawn, every draw after the
block raises (the generator has drawn past what was served), no draw is
left waiting once the block closes, one worker thread serves every block
of a process, and a failing draw reaches the caller instead of hanging it.
A tactile trial enters the block as soon as its overview image is drawn,
before perceiving it, and the calibration right after its scene is reset.
With one CPU no thread starts, and trials, calibration and the overview
cache are the same. A scene without fingertip sensors, or a block opened
inside another, banks nothing. Importing the package starts no thread,
and a forked child starts its own worker.
"""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draw_worker import (assert_settled, draw_threads, fresh_worker,
                         one_cpu, recorded_draws, two_cpus)
import vialbench
from vialbench import control, simworld
from vialbench.bench import prepare, run_experiment, run_index
from vialbench.cli import main
from vialbench.core import Pose3, RngStream, split_rng
from vialbench.perception import refined_camera_z
from vialbench.simworld import (DRAW_AHEAD_CHUNK, DRAW_AHEAD_DEPTH,
                                draw_ahead, make_rig, render_topdown,
                                reset_trial)

FRAME = (160, 160)  # one fingertip frame at the default tactile size
SIZES = [1, 2, 3, FRAME, DRAW_AHEAD_CHUNK, DRAW_AHEAD_CHUNK - 1,
         DRAW_AHEAD_CHUNK + 1, 3 * DRAW_AHEAD_CHUNK + 5]


# What ``draw_ahead`` reads of a scene's rig.
FINGERTIPS = SimpleNamespace(has_tactile=True)


def holder(seed):
    """What ``draw_ahead`` reads of a scene: its rig and its generator."""
    return SimpleNamespace(rig=FINGERTIPS,
                           rng=np.random.Generator(np.random.PCG64(seed)))


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
    by an exception, no draw is left waiting, one worker thread at most
    is alive, and every draw raises."""
    scene, twin = holder(seed), np.random.Generator(np.random.PCG64(seed))
    drawn = sizes if raise_after is None else sizes[:raise_after]
    kept = []
    try:
        with two_cpus(), recorded_draws() as draws, draw_ahead(scene):
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
    assert len(draws) >= DRAW_AHEAD_DEPTH
    assert_settled(draws)
    assert all(got.tobytes() == want.tobytes() for got, want in kept)
    with pytest.raises(RuntimeError, match="draw_ahead is closed"):
        scene.rng.standard_normal(1)


def test_concurrent_blocks_under_fast_switching():
    """More blocks than cores at once, switching threads every 10 us, all
    asking for the draw worker before its thread exists: every block still
    serves its own generator's sequence, within a time bound, and they
    share one worker thread."""
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
        with two_cpus(), fresh_worker() as started:
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
    assert len(started) == 1


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
    scene = SimpleNamespace(rig=FINGERTIPS, rng=FailingChunks())
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
    scene = SimpleNamespace(rig=FINGERTIPS, rng=gen)
    with two_cpus(), draw_ahead(scene):
        for _ in range(served):
            scene.rng.standard_normal(DRAW_AHEAD_CHUNK)
        time.sleep(0.2)  # room for the worker to run ahead if it would
        assert gen.drawn == served + DRAW_AHEAD_DEPTH


def test_a_failed_chunk_fails_every_later_draw():
    """The draw that reaches a failed chunk raises its error, and so does
    every draw after it, instead of serving the chunk after."""
    scene = SimpleNamespace(rig=FINGERTIPS, rng=CountingChunks(fail_at=2))
    with two_cpus(), draw_ahead(scene):
        assert (scene.rng.standard_normal(DRAW_AHEAD_CHUNK) == 1.0).all()
        for _ in range(3):
            with pytest.raises(RuntimeError, match="chunk 2 draw failed"):
                scene.rng.standard_normal(1)


@pytest.fixture(scope="module")
def tactile_campaign(config, weights):
    return prepare(config, weights, ("tactile",))


def tactile_trial(campaign, index=0, seen=None):
    config = campaign.config
    return control.run_tactile_trial(
        config, split_rng(RngStream(config.seed), index), campaign.weights,
        campaign.rig, campaign.calibration, trial_index=index,
        seen={} if seen is None else seen)


def test_no_draw_outlives_a_trial_or_a_campaign(config, weights,
                                                tactile_campaign, monkeypatch):
    """A calibration, a trial (also one that raises) and a campaign of
    every modality each leave no draw waiting and at most one draw worker
    thread. The calibration and each tactile trial make one stand-in."""
    started = []

    class Counted(simworld._AheadNormals):
        def __init__(self, *args):
            started.append(self)
            super().__init__(*args)

    monkeypatch.setattr(simworld, "_AheadNormals", Counted)
    with two_cpus(), recorded_draws() as draws:
        control.calibrate_rig(config, tactile_campaign.rig)
        assert_settled(draws)
        assert len(started) == 1
        tactile_trial(tactile_campaign)
        assert_settled(draws)
        run_experiment(config, 2, 1, weights=weights,
                       modalities=("visual", "force", "tactile"))
        assert_settled(draws)
        # One stand-in for the calibration, one per tactile trial.
        assert len(started) == 1 + 1 + (1 + 2)

        def broken(*args):
            raise Stop

        monkeypatch.setattr(control, "find_contact", broken)
        with pytest.raises(Stop):
            tactile_trial(tactile_campaign)
        assert_settled(draws)
    assert len(draw_threads()) == 1


def test_one_cpu_starts_no_thread_and_keeps_the_record(tactile_campaign):
    with two_cpus():
        ahead = tactile_trial(tactile_campaign, index=1)

    with one_cpu(), fresh_worker() as started:
        assert tactile_trial(tactile_campaign, index=1) == ahead
    assert started == []


def test_calibration_is_the_same_at_one_and_two_cpus(config, capsys):
    rig = make_rig(config, "tactile")
    with two_cpus():
        ahead = control.calibrate_rig(config, rig)
        assert main(["calibrate"]) == 0
    printed = capsys.readouterr().out
    with one_cpu(), fresh_worker() as started:
        inline = control.calibrate_rig(config, rig)
        assert main(["calibrate"]) == 0
    assert started == []
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


def test_a_tactile_trial_draws_ahead_while_it_perceives(config,
                                                        tactile_campaign,
                                                        monkeypatch):
    """On an overview miss ``draw_ahead`` is entered after the render
    returns and before circle detection; on a hit, right after the state
    restore. Either way the generator is then where the render leaves it,
    the state the ``seen`` entry holds."""
    log, seen = [], {}
    log_calls(monkeypatch, log)
    with two_cpus():
        tactile_trial(tactile_campaign, seen=seen)
        state = seen[config.camera.pose()][0]
        assert log == ["render_topdown", "render_topdown returned",
                       ("draw_ahead", state),
                       "detect_circles", "detect_circles returned"]
        log.clear()
        tactile_trial(tactile_campaign, seen=seen)
        assert log == [("draw_ahead", state)]


def test_a_tactile_trial_leads_its_index_unchanged(config, weights,
                                                   tactile_campaign):
    """With the tactile trial first, so that its miss fills ``seen`` from
    inside ``draw_ahead``, an index at two CPUs equals one at one CPU,
    record for record, and the entry a tactile miss leaves equals the one
    a visual miss leaves."""
    campaign = replace(tactile_campaign,
                       modalities=("tactile", "visual", "force"))
    with two_cpus():
        ahead = run_index(campaign, 0)
        seen_tactile, seen_visual = {}, {}
        tactile_trial(tactile_campaign, seen=seen_tactile)
        control.run_visual_trial(config, split_rng(RngStream(config.seed), 0),
                                 weights, trial_index=0, seen=seen_visual)
    assert seen_tactile == seen_visual
    assert list(seen_tactile) == [config.camera.pose()]
    with one_cpu(), fresh_worker() as started:
        inline = run_index(campaign, 0)
    assert started == []
    assert [r.modality for r in ahead] == list(campaign.modalities)
    assert ahead == inline


def test_a_render_inside_the_block_draws_in_line(config):
    """A render whose generator is the stand-in draws its pixel noise from
    the stand-in's chunks in line (on the worker, a large image could wait
    for chunks queued behind its own draw), ends in time, and gives the
    bytes, pose and later draws of a render on the plain generator."""
    rig = make_rig(config, "tactile")
    scenes = [reset_trial(config, RngStream(7).child(k), rig) for k in (0, 0)]
    with one_cpu():
        want, want_eff = render_topdown(scenes[1], config.camera.pose())
    done = []

    def render():
        with draw_ahead(scenes[0]):
            done.append(render_topdown(scenes[0], config.camera.pose()))
            done.append(scenes[0].rng.standard_normal(5))

    with two_cpus(), recorded_draws() as draws:
        thread = threading.Thread(target=render, daemon=True)
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive(), "the render waited on its own chunks"
    (got, eff), after = done
    assert got.tobytes() == want.tobytes() and eff == want_eff
    assert after.tobytes() == scenes[1].rng.standard_normal(5).tobytes()
    # Only chunks were submitted: the bank, then one per chunk served.
    served = 2 + config.camera.height * config.camera.width + 5
    assert len(draws) == DRAW_AHEAD_DEPTH + math.ceil(served / DRAW_AHEAD_CHUNK)
    assert_settled(draws)


def test_a_rubber_scene_block_is_plain(config):
    """A rig without fingertip sensors banks nothing: in the block its
    scene keeps its generator, and a close-up rendered there submits only
    its own noise draw and gives the bytes of a render outside."""
    scenes = [reset_trial(config, RngStream(7).child(0)) for _ in range(2)]
    x, y = scenes[0].slots[0]
    close_up = Pose3(float(x), float(y), refined_camera_z(config))
    with one_cpu():
        want, want_eff = render_topdown(scenes[1], close_up)
    with two_cpus(), recorded_draws() as draws, draw_ahead(scenes[0]):
        assert isinstance(scenes[0].rng, np.random.Generator)
        assert draws == []
        got, eff = render_topdown(scenes[0], close_up)
        assert len(draws) == 1
    assert got.tobytes() == want.tobytes() and eff == want_eff
    assert_settled(draws)


def test_a_nested_block_is_plain():
    """A block opened inside another on the same scene submits nothing,
    and every draw, in it and after it, has the bits of a plain draw; a
    bank of its own, drawn from the outer stand-in on the one worker,
    could wait for the outer chunks queued behind it."""
    scene, twin = holder(11), np.random.Generator(np.random.PCG64(11))
    sizes = [FRAME, 3, DRAW_AHEAD_CHUNK + 1, FRAME]
    got, inner = [], []

    def run():
        with draw_ahead(scene):
            got.append(scene.rng.standard_normal(sizes[0]))
            with recorded_draws() as draws, draw_ahead(scene):
                got.extend(scene.rng.standard_normal(size)
                           for size in sizes[1:3])
            inner.extend(draws)
            got.append(scene.rng.standard_normal(sizes[3]))

    with two_cpus():
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive(), "the inner block waited on the outer"
    assert inner == []
    assert [a.tobytes() for a in got] == [twin.standard_normal(size).tobytes()
                                          for size in sizes]


_IMPORT_THEN_RENDER = """
import json, threading
from unittest import mock

import vialbench
from vialbench import simworld
from vialbench.core import RngStream, load_config

after_import = threading.active_count()
config = load_config()
with mock.patch.object(simworld.os, "sched_getaffinity", lambda pid: {0, 1},
                       create=True):
    simworld.render_topdown(simworld.reset_trial(config, RngStream(5).child(0)),
                            config.camera.pose())
print(json.dumps([after_import, [t.name for t in threading.enumerate()]]))
"""


def test_import_starts_no_thread_and_a_render_starts_one():
    """In a fresh interpreter, importing the package leaves the main thread
    alone; one render at two CPUs then leaves exactly one draw thread."""
    src = str(Path(vialbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_THEN_RENDER],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    after_import, names = json.loads(out)
    assert after_import == 1
    assert [n for n in names if n.startswith("vialbench-draw")] == [
        "vialbench-draw_0"]


def _render_in_child(config, conn):
    image, _ = render_topdown(reset_trial(config, RngStream(5).child(0)),
                              config.camera.pose())
    conn.send_bytes(image.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_renders_with_its_own_worker(config):
    """A child forked once the parent's worker runs holds a pool with no
    thread; it drops it and starts its own worker, so it renders the
    in-line bytes instead of waiting forever for its noise."""
    with one_cpu():
        want, _ = render_topdown(reset_trial(config, RngStream(5).child(0)),
                                 config.camera.pose())
    fork = multiprocessing.get_context("fork")
    with two_cpus():
        render_topdown(reset_trial(config, RngStream(5).child(1)),
                       config.camera.pose())
        assert draw_threads()
        receive, send = fork.Pipe(duplex=False)
        child = fork.Process(target=_render_in_child, args=(config, send))
        child.start()
        send.close()
        got = receive.recv_bytes() if receive.poll(60) else None
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == want.tobytes()
