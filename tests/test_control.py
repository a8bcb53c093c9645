"""End-to-end trial controllers for the three insertion modalities."""

import numpy as np
import pytest

from vialbench import control
from vialbench.bench import prepare
from vialbench.core import RngStream, load_config, split_rng
from vialbench.control import (
    MODALITIES,
    _run_trial,
    calibrate_rig,
    check_record,
    run_force_trial,
    run_tactile_trial,
    run_visual_trial,
)
from vialbench.simworld import (SimError, make_rig, reference_frames,
                                reset_trial, sample_tactile)
from vialbench.tactile import find_contact

# Calibration error sources silenced; sensor and grasp noise untouched.
NO_CAMERA_BIAS = """
noise.bias_angle_x = 0.0
noise.bias_angle_y = 0.0
noise.sigma_bias_angle = 0.0
noise.sigma_bias_xy = 0.0
noise.sigma_detect = 0.0
noise.sigma_pixel = 0.0
"""


@pytest.fixture(scope="module")
def clean_config():
    return load_config(NO_CAMERA_BIAS + "noise.sigma_grasp = 0.0\n")


@pytest.fixture(scope="module")
def biased_config():
    # a fixed 6.4 mrad pointing error puts the first descent ~3 mm off
    # target: onto the slot rim, inside the recovery lattice's reach
    return load_config(NO_CAMERA_BIAS.replace(
        "noise.bias_angle_x = 0.0", "noise.bias_angle_x = 6.4e-3")
        + "noise.sigma_grasp = 0.0\n")


def test_modalities_constant():
    assert MODALITIES == ("visual", "force", "tactile")


# ---------------------------------------------------------------- visual


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_visual_clean_run_inserts_first_try(clean_config, weights, seed):
    rec = run_visual_trial(clean_config, RngStream(seed), weights, 0, {})
    assert rec.success
    assert rec.attempts == 1
    assert [o.result for o in rec.outcomes] == ["inserted"]
    assert rec.placement == "inserted"
    assert rec.runtime_s > 0


def test_visual_never_retries(config, weights):
    for seed in range(10):
        rec = run_visual_trial(config, RngStream(seed), weights,
                               trial_index=seed, seen={})
        assert rec.modality == "visual"
        assert rec.trial_index == seed
        assert rec.attempts == 1
        assert len(rec.outcomes) == 1
        check_record(rec)


# ---------------------------------------------------------------- force


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_force_clean_run_inserts_first_try(clean_config, weights, seed):
    rec = run_force_trial(clean_config, RngStream(seed), weights, 0, {})
    assert rec.success
    assert rec.attempts == 1
    assert [o.result for o in rec.outcomes] == ["inserted"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_force_search_recovers_known_bias(biased_config, weights, seed):
    rec = run_force_trial(biased_config, RngStream(seed), weights, 0, {})
    assert rec.success
    assert rec.attempts == 2
    assert [o.result for o in rec.outcomes] == ["rack_top", "inserted"]
    # second touchdown happened at a different lattice cell than the first
    assert rec.outcomes[0].position != rec.outcomes[1].position


def test_force_trial_deterministic(config, weights):
    a = run_force_trial(config, RngStream(31), weights, 0, {})
    b = run_force_trial(config, RngStream(31), weights, 0, {})
    assert a == b


def test_a_slow_ramp_fits_the_descent_budget(weights):
    """At ``motion.accel = 2e-4`` the ramp to descent speed alone adds
    about 20 s to a descent from hover, twice the budget's 10 s of slack."""
    cfg = load_config("motion.accel = 2e-4\n")
    rec = run_force_trial(cfg, RngStream(0), weights, 0, {})
    check_record(rec)
    assert rec.outcomes[0].result != "no_target"


def test_a_descent_that_never_moves_runs_out_of_time(config, monkeypatch):
    scene = reset_trial(config, RngStream(0))
    monkeypatch.setattr(control, "tick", lambda scene, target: np.zeros(3))
    with pytest.raises(SimError, match="time budget"):
        control._descend_to_floor(scene, scene.setpoint[:2],
                                  config.descent_floor_z(),
                                  lambda sample: None)


def test_exhausted_search_releases_in_place(biased_config, weights):
    # a lattice step far coarser than the search bounds exhausts the
    # search right after the first (rim-blocked) touchdown
    cfg = load_config(NO_CAMERA_BIAS.replace(
        "noise.bias_angle_x = 0.0", "noise.bias_angle_x = 6.4e-3")
        + "noise.sigma_grasp = 0.0\nsearch.spacing = 0.5\n")
    rec = run_force_trial(cfg, RngStream(0), weights, 0, {})
    assert not rec.success
    assert rec.attempts == 1
    assert [o.result for o in rec.outcomes] == ["rack_top", "released_failed"]
    assert rec.placement == "resting_on_rack"


def test_exhausted_search_with_empty_gripper_is_dropped_on_table(weights):
    # The first descent stops on the rack top and the vial slips out of the
    # gripper; spacing 0.5 then exhausts the search with nothing to release.
    cfg = load_config("search.spacing = 0.5\n")

    def prepare(scene, sel_gen, target):
        return None, target

    def slip_and_stop(scene, ctx, position):
        scene.held_offset = None
        return "stopped"

    rec = _run_trial("force", cfg, RngStream(0), weights, 0, None,
                     prepare, slip_and_stop, {})
    assert [o.result for o in rec.outcomes] == ["rack_top"]
    assert rec.placement == "dropped_on_table"
    assert rec.final_offset is None


# ---------------------------------------------------------------- tactile


@pytest.fixture(scope="module")
def default_tactile(config, weights):
    """A tactile rig calibrated under the default config."""
    campaign = prepare(config, weights, ("tactile",))
    return campaign.rig, campaign.calibration


@pytest.fixture(scope="module")
def tactile_setup(weights):
    cfg = load_config(NO_CAMERA_BIAS)  # grasp noise stays: tactile corrects it
    campaign = prepare(cfg, weights, ("tactile",))
    return cfg, campaign.rig, campaign.calibration


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tactile_compensates_grasp_offset(tactile_setup, weights, seed):
    cfg, rig, cal = tactile_setup
    rec = run_tactile_trial(cfg, RngStream(seed), weights, rig, cal, 0, {})
    assert rec.success
    assert rec.attempts == 1
    assert [o.result for o in rec.outcomes] == ["inserted"]


def test_tactile_needs_tactile_rig(config, weights):
    rubber = make_rig(config, "rubber")
    with pytest.raises(ValueError):
        run_tactile_trial(config, RngStream(0), weights, rubber, {}, 0, {})
    with pytest.raises(ValueError):
        calibrate_rig(config, rubber)
    with pytest.raises(ValueError):
        calibrate_rig(config, None)


def test_calibration_fits_both_fingers(config):
    rig = make_rig(config, "tactile")
    cal = calibrate_rig(config, rig)
    assert set(cal) == {"left", "right"}
    for c in cal.values():
        assert c.gain.shape == (2, 2)
        assert np.isfinite(c.gain).all() and np.isfinite(c.bias).all()
        assert c.residual_rms < 1e-3  # sub-millimeter fit on a 3 mm grid


def test_sensor_loss_with_vial_in_hand_is_still_held(config, weights,
                                                     default_tactile):
    # A contact floor above any 8-bit frame difference blinds both
    # fingertips, so the pre-descent read finds no contact while the vial
    # is still gripped.
    rig, cal = default_tactile
    blind = load_config("tactile.contact_floor = 256\n")
    for seed in range(3):
        rec = run_tactile_trial(blind, RngStream(seed), weights, rig, cal, 0,
                                {})
        assert [o.result for o in rec.outcomes] == ["lost_contact"]
        assert rec.placement == "still_held"
        assert rec.final_offset is not None


def test_finger_centroids_leave_out_a_finger_but_draw_its_frame(config):
    """A left reference stack captured with the vial in contact leaves the
    left finger no contact, so only the right centroid comes back; yet both
    frames are drawn, left then right, as two ``sample_tactile`` calls."""
    scene = reset_trial(config, RngStream(3), make_rig(config, "tactile"))
    refs = {"left": np.stack([sample_tactile(scene, "left")
                              for _ in range(config.tactile.n_reference)]),
            "right": reference_frames(scene, "right")}
    before = scene.rng.bit_generator.state
    centroids = control._finger_centroids(scene, refs, config.tactile)
    after = scene.rng.bit_generator.state
    scene.rng.bit_generator.state = before
    frames = [sample_tactile(scene, f) for f in ("left", "right")]
    assert scene.rng.bit_generator.state == after
    assert find_contact(frames[0], refs["left"], config.tactile) is None
    assert centroids == {
        "right": find_contact(frames[1], refs["right"], config.tactile).centroid}


@pytest.mark.parametrize("rate", [20, 60, 125])
def test_tactile_check_reads_at_its_rate(weights, default_tactile, monkeypatch,
                                         rate):
    """The descent check reads a frame pair every ``1 / tactile.rate`` s of
    the force ticks it runs in: over a trial, ``ticks * tactile.rate /
    force.rate`` pairs, give or take one per descent."""
    rig, cal = default_tactile
    config = load_config("", [f"tactile.rate = {rate}"])
    calls = {"tick": 0, "track_deviation": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(control, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(control, name, counted)
    master = RngStream(config.seed)
    for index in range(8):
        calls.update(tick=0, track_deviation=0)
        rec = run_tactile_trial(config, split_rng(master, index), weights,
                                rig, cal, index, {})
        expected = calls["tick"] * rate / config.force.rate
        assert calls["tick"] > 0
        assert abs(calls["track_deviation"] - expected) <= rec.attempts


# ---------------------------------------------------------------- all three


@pytest.mark.parametrize("modality", MODALITIES)
def test_trial_invariants(config, weights, default_tactile, modality):
    """Record rules that every modality shares through the one trial loop."""
    rig, cal = default_tactile
    for seed in range(8):
        stream = RngStream(seed)
        if modality == "visual":
            rec = run_visual_trial(config, stream, weights, 0, {})
        elif modality == "force":
            rec = run_force_trial(config, stream, weights, 0, {})
        else:
            rec = run_tactile_trial(config, stream, weights, rig, cal, 0, {})
        assert rec.modality == modality
        check_record(rec)
        results = [o.result for o in rec.outcomes]
        assert results.count("inserted") <= 1
        assert rec.runtime_s > 0
        if "released_failed" in results:
            assert rec.placement in ("resting_on_rack", "dropped_on_table")
        if results[-1] in ("inserted", "released_failed"):
            assert rec.final_offset is not None
