"""One campaign perceives each distinct overview image once.

Trial ``i`` of every modality sees the same scene, so ``run_experiment``
shares one ``seen`` cache across its trials: a repeated overview skips
circle detection and scoring, and everything else draws as before.
"""

from contextlib import suppress

import numpy as np
import pytest

from vialbench import control
from vialbench.bench import run_experiment
from vialbench.core import Pose3, RngStream, split_rng
from vialbench.perception import NoValidSlotError, refined_camera_z
from vialbench.simworld import reset_trial

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
def paired(config, weights):
    return run_experiment(config, TRIALS, 1, weights=weights,
                          modalities=("visual", "force"))


def test_shared_run_records_equal_fresh_trials(config, weights, paired):
    master = RngStream(config.seed)
    for i in range(TRIALS):
        stream = split_rng(master, i)
        assert paired.records["visual"][i] == control.run_visual_trial(
            config, stream, weights, trial_index=i, seen={})
        assert paired.records["force"][i] == control.run_force_trial(
            config, stream, weights, trial_index=i, seen={})


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


def test_other_camera_height_misses(config, weights, fixed_image, monkeypatch):
    detect = counting(monkeypatch, "detect_circles")
    seen = {}
    pose = config.camera.pose()
    perceive(config, weights, pose, seen)
    low = Pose3(x=pose.x, y=pose.y, z=refined_camera_z(config))
    perceive(config, weights, low, seen)
    assert len(detect) == 2
    assert len(seen) == 2
