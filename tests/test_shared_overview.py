"""One campaign index perceives each distinct overview image once.

``run_experiment`` runs one trial index at a time: trial ``i`` of every
modality sees the same scene, so the trials of index ``i`` share one
``seen`` cache, keyed by the image bytes. A repeated overview skips circle
detection and scoring, and everything else draws as before.
"""

from collections import Counter
from contextlib import suppress

import numpy as np
import pytest

from vialbench import bench, control
from vialbench.bench import run_experiment
from vialbench.cli import main
from vialbench.core import RngStream, split_rng
from vialbench.perception import NoValidSlotError, save_weights
from vialbench.simworld import make_rig, reset_trial

TRIALS = 3


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
    rig = make_rig(config, "tactile")
    calibration = control.calibrate_rig(config, rig)
    master = RngStream(config.seed)
    for i in range(TRIALS):
        stream = split_rng(master, i)
        assert campaign.records["visual"][i] == control.run_visual_trial(
            config, stream, weights, trial_index=i, seen={})
        assert campaign.records["force"][i] == control.run_force_trial(
            config, stream, weights, trial_index=i, seen={})
        assert campaign.records["tactile"][i] == control.run_tactile_trial(
            config, stream, weights, rig, calibration, trial_index=i,
            seen={})


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
        assert len(seen[0]) == 1  # the three overviews are one image
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
    assert len(render) == 3 * TRIALS
    assert len(detect) == 2 * TRIALS
    assert len(score) == 2 * TRIALS


@pytest.fixture()
def fixed_image(config, monkeypatch):
    """``control.render_topdown`` returns one overview image whatever the
    pose; returns that image, which the test may edit."""
    scene = reset_trial(config, RngStream(7))
    image = control.render_topdown(scene, config.camera.pose())
    monkeypatch.setattr(control, "render_topdown",
                        lambda scene, pose: image.copy())
    return image


def perceive(config, weights, pose, seen):
    """(scored, chosen) of one look at the fixed image, None if no pick."""
    scene = reset_trial(config, RngStream(7))
    with suppress(NoValidSlotError):
        return control._image_and_select(scene, pose, weights,
                                         np.random.default_rng(0), seen=seen)
    return None


def test_repeated_overview_hits(config, weights, fixed_image, monkeypatch):
    detect = counting(monkeypatch, "detect_circles")
    seen = {}
    pose = config.camera.pose()
    first = perceive(config, weights, pose, seen)
    again = perceive(config, weights, pose, seen)
    assert len(detect) == 1
    assert len(seen) == 1
    assert first is not None
    assert again == first == perceive(config, weights, pose, {})


def test_one_pixel_changed_misses(config, weights, fixed_image, monkeypatch):
    detect = counting(monkeypatch, "detect_circles")
    seen = {}
    pose = config.camera.pose()
    perceive(config, weights, pose, seen)
    fixed_image[100, 200] ^= 1
    perceive(config, weights, pose, seen)
    assert len(detect) == 2
    assert len(seen) == 2
