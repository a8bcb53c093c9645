"""One campaign index renders and perceives each distinct overview once.

``run_experiment`` runs one trial index at a time: trial ``i`` of every
modality sees the same scene, so the trials of index ``i`` share one
``seen`` cache, keyed by the camera pose. A repeated overview skips the
render, circle detection and scoring, restores the RNG state a render
leaves, and everything else draws as before. The premise of
the key, that the scenes of one index reach a pose with everything the
render reads equal, is tested here with ``render_key`` as the oracle, at
any grasp noise of either rig, and on whole trials.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vialbench import bench, control
from vialbench.bench import run_experiment
from vialbench.cli import main
from vialbench.core import RngStream, load_config, split_rng
from vialbench.perception import save_weights
from vialbench.simworld import make_rig, render_topdown, reset_trial

TRIALS = 3


def render_key(scene, cam_pose):
    """Everything ``render_topdown(scene, cam_pose)`` reads, as a hashable
    tuple: the pose, the scene generator's full PCG64 state, and the rack,
    slot, bias and distractor values ``reset_trial`` drew. Under one config,
    equal keys render equal images and leave equal generator states."""
    state = scene.rng.bit_generator.state
    return (cam_pose, state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"], scene.rack_xy.tobytes(),
            scene.rack_yaw, scene.occupancy.tobytes(), scene.slots.tobytes(),
            scene.bias_angle.tobytes(), scene.bias_xy.tobytes(),
            tuple(scene.distractors))


def counting(monkeypatch, name):
    """Replace ``control.<name>`` by a wrapper; returns its call counter."""
    calls = []
    fn = getattr(control, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(control, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def campaign(config, weights):
    return run_experiment(config, TRIALS, 1, weights=weights)


def test_shared_run_records_equal_fresh_trials(config, weights, campaign):
    tactile = bench.prepare(config, weights, ("tactile",))
    master = RngStream(config.seed)
    for i in range(TRIALS):
        stream = split_rng(master, i)
        assert campaign.records["visual"][i] == control.run_visual_trial(
            config, stream, weights, trial_index=i, seen={})
        assert campaign.records["force"][i] == control.run_force_trial(
            config, stream, weights, trial_index=i, seen={})
        assert campaign.records["tactile"][i] == control.run_tactile_trial(
            config, stream, weights, tactile.rig, tactile.calibration,
            trial_index=i, seen={})


def test_each_index_detects_twice_with_a_cache_of_its_own(config, weights,
                                                            monkeypatch):
    """Per index: one split, one cache for all three modalities, and two
    detections (the shared overview and the visual close-up)."""
    indices, detected_at, caches = [], [], {}
    detect = control.detect_circles

    def split(master, i):
        indices.append(i)
        return split_rng(master, i)

    def detect_at_index(*args):
        detected_at.append(indices[-1])
        return detect(*args)

    monkeypatch.setattr(bench, "split_rng", split)
    monkeypatch.setattr(control, "detect_circles", detect_at_index)
    for modality in control.MODALITIES:
        name = f"run_{modality}_trial"
        trial = getattr(bench, name)

        def spy(*args, trial=trial, **kwargs):
            caches.setdefault(kwargs["trial_index"], []).append(kwargs["seen"])
            return trial(*args, **kwargs)

        monkeypatch.setattr(bench, name, spy)
    run_experiment(config, TRIALS, 1, weights=weights)
    assert indices == list(range(TRIALS))
    assert Counter(detected_at) == {i: 2 for i in range(TRIALS)}
    for seen in caches.values():
        assert len(seen) == 3 and seen[0] is seen[1] is seen[2]
        assert len(seen[0]) == 1  # the three overviews share one key
    assert len({id(seen[0]) for seen in caches.values()}) == TRIALS


def test_progress_counts_indices(tmp_path, weights, capsys):
    path = tmp_path / "slot.weights"
    save_weights(path, weights)
    assert main(["run", "--trials", "25", "--batches", "1", "--modality",
                 "force", "--weights", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines().count("25/25 trials") == 1


def test_force_overview_reuses_visual_detection(config, weights, monkeypatch):
    detect = counting(monkeypatch, "detect_circles")
    score = counting(monkeypatch, "score_candidates")
    render = counting(monkeypatch, "render_topdown")
    result = run_experiment(config, TRIALS, 1, weights=weights,
                            modalities=("visual", "force"))
    # Every visual trial takes a close-up, which is never shared.
    assert all(r.outcomes[0].result != "no_target"
               for r in result.records["visual"])
    # Per index: the visual overview and close-up; the force overview hits.
    assert len(render) == 2 * TRIALS
    assert len(detect) == 2 * TRIALS
    assert len(score) == 2 * TRIALS


def force_trial(config, weights, seen):
    """Force trial 0 of a ``config`` campaign, whose one look is the
    overview, with ``seen`` as its cache."""
    stream = split_rng(RngStream(config.seed), 0)
    return control.run_force_trial(config, stream, weights, 0, seen)


def test_repeated_overview_hits(config, weights, monkeypatch):
    """A hit serves the stored perception and leaves the scene as a render
    would: the same RNG state, so the next draws are equal."""
    fresh = force_trial(config, weights, {})
    assert fresh.outcomes[0].result != "no_target"
    scenes, reset = [], control.reset_trial

    def kept(*args):
        scenes.append(reset(*args))
        return scenes[-1]

    monkeypatch.setattr(control, "reset_trial", kept)
    render = counting(monkeypatch, "render_topdown")
    detect = counting(monkeypatch, "detect_circles")
    score = counting(monkeypatch, "score_candidates")
    seen = {}
    rendered = force_trial(config, weights, seen)
    served = force_trial(config, weights, seen)
    assert len(render) == len(detect) == len(score) == 1
    assert list(seen) == [config.camera.pose()]
    assert served == rendered == fresh
    rendered, served = (scene.rng for scene in scenes)
    assert served.bit_generator.state == rendered.bit_generator.state
    assert served.random(8).tobytes() == rendered.random(8).tobytes()


def test_another_pose_misses(config, weights, monkeypatch):
    """The same scene seen from another camera pose is a miss, and each
    miss perceives what an empty cache would."""
    moved = load_config("", [f"camera.x = {config.camera.x + 1e-3!r}"])
    assert moved.camera.pose() != config.camera.pose()
    fresh = [force_trial(c, weights, {}) for c in (config, moved)]
    assert all(r.outcomes[0].result != "no_target" for r in fresh)
    detect = counting(monkeypatch, "detect_circles")
    seen = {}
    assert [force_trial(c, weights, seen) for c in (config, moved)] == fresh
    assert len(detect) == 2
    assert list(seen) == [config.camera.pose(), moved.camera.pose()]


class Rendered(Exception):
    """Raised at the first overview render to end a trial there."""


def overview_keys(config, weights, index):
    """Per modality, the ``render_key`` with which trial ``index`` of a
    ``config`` campaign reaches its overview render."""
    stream = split_rng(RngStream(config.seed), index)
    rig = make_rig(config, "tactile")
    keys = []

    def render(scene, pose):
        keys.append(render_key(scene, pose))
        raise Rendered

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "render_topdown", render)
        for run in (
                lambda: control.run_visual_trial(config, stream, weights,
                                                 index, {}),
                lambda: control.run_force_trial(config, stream, weights,
                                                index, {}),
                lambda: control.run_tactile_trial(config, stream, weights,
                                                  rig, {}, index, {})):
            with pytest.raises(Rendered):
                run()
    return keys


SEEDS = st.integers(0, 2**32 - 1)
INDICES = st.integers(0, 199)
SIGMAS = st.one_of(st.just(0.0), st.floats(1e-6, 2e-3))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, index=INDICES, rubber=SIGMAS, tactile=SIGMAS)
def test_paired_trials_reach_the_overview_with_one_key(weights, seed, index,
                                                       rubber, tactile):
    """Both rigs draw a grasp offset at any grasp noise, zero included, so
    the visual, force and tactile scenes of one index reach the overview
    with everything the render reads equal: the pose alone keys it."""
    config = load_config(f"seed = {seed}", [f"noise.sigma_grasp = {rubber!r}",
                                            f"tactile.sigma_grasp = {tactile!r}"])
    visual, force, tactile = overview_keys(config, weights, index)
    assert visual == force == tactile


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, index=INDICES,
       overrides=st.sampled_from([[], ["noise.sigma_grasp = 0"],
                                  ["tactile.sigma_grasp = 0"]]))
def test_equal_keys_render_equal_images(seed, index, overrides):
    """The rubber and tactile scenes of one index, with or without grasp
    noise: their keys are equal, and so are their bytes and the generator
    states the render leaves."""
    config = load_config(f"seed = {seed}", overrides)
    stream = split_rng(RngStream(seed), index).child(0)
    scenes = [reset_trial(config, stream, rig)
              for rig in (None, make_rig(config, "tactile"))]
    pose = config.camera.pose()
    rubber, tactile = [render_key(scene, pose) for scene in scenes]
    images = [render_topdown(scene, pose)[0].tobytes() for scene in scenes]
    assert rubber == tactile
    assert images[0] == images[1]
    assert (scenes[0].rng.bit_generator.state
            == scenes[1].rng.bit_generator.state)


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, index=INDICES)
def test_renders_with_one_key_are_one_image(weights, seed, index):
    """Whole trials of all three modalities, each with an empty cache: every
    two renders with equal keys give equal bytes, and the three overviews
    share one key."""
    config = load_config(f"seed = {seed}")
    stream = split_rng(RngStream(seed), index)
    tactile = bench.prepare(config, weights, ("tactile",))
    images = {}
    overviews = []
    render = control.render_topdown

    def recording(scene, pose):
        key = render_key(scene, pose)
        image, eff = render(scene, pose)
        images.setdefault(key, []).append(image.tobytes())
        if pose == config.camera.pose():
            overviews.append(key)
        return image, eff

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "render_topdown", recording)
        control.run_visual_trial(config, stream, weights, index, {})
        control.run_force_trial(config, stream, weights, index, {})
        control.run_tactile_trial(config, stream, weights, tactile.rig,
                                  tactile.calibration, index, {})
    assert len(overviews) == 3 and len(set(overviews)) == 1
    for same_key in images.values():
        assert len(set(same_key)) == 1


def test_shared_trials_equal_fresh_ones_without_rubber_grasp_noise(weights):
    """Index 25 of seed 42 with no rubber grasp noise, whose distractors
    move if the rubber rig skips its offset draw: the three trials share
    one overview, and trials sharing one cache equal trials with empty
    ones."""
    config = load_config("", ["noise.sigma_grasp = 0"])
    stream = split_rng(RngStream(config.seed), 25)
    tactile = bench.prepare(config, weights, ("tactile",))

    def trials(seen):
        return (control.run_visual_trial(config, stream, weights, 25,
                                         seen()),
                control.run_force_trial(config, stream, weights, 25, seen()),
                control.run_tactile_trial(config, stream, weights,
                                          tactile.rig, tactile.calibration,
                                          25, seen()))

    shared = {}
    assert trials(lambda: shared) == trials(dict)
    assert len(shared) == 1
