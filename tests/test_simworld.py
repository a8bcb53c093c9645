"""Scene physics: contact classification, slip, release, and the two cameras."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vialbench.core import RackSpec, RngStream
from vialbench.geometry import world_to_pixel
from vialbench.simworld import (
    SimError,
    advance_clock,
    impose_grasp,
    in_rack_footprint,
    jump_setpoint,
    make_rig,
    reference_frames,
    release_and_evaluate,
    render_topdown,
    reset_trial,
    sample_tactile,
    tick,
)

DT = 1.0 / 125.0


def vacant_and_occupied(scene):
    """(vacant_center, occupied_center) world xy for the scene's rack."""
    centers = scene.slots
    occ = scene.occupancy.ravel()
    return centers[np.flatnonzero(~occ)[0]], centers[np.flatnonzero(occ)[0]]


def hold_still(scene):
    return scene.setpoint.copy()


# ---------------------------------------------------------------- rigs


def test_rubber_rig(config):
    rig = make_rig(config, "rubber")
    assert rig.mu == config.contact.mu_rubber
    assert rig.tilt_gain == 1.0
    assert not rig.has_tactile
    assert rig.sigma_grasp == config.noise.sigma_grasp


def test_tactile_rig(config):
    rig = make_rig(config, "tactile")
    assert rig.mu == config.contact.mu_tactile
    assert rig.mu < config.contact.mu_rubber
    assert rig.has_tactile
    assert set(rig.map_gain) == {"left", "right"}
    # the true mount maps are perturbed but close to the nominal layout
    for finger in ("left", "right"):
        assert rig.map_gain[finger].shape == (2, 2)
        np.testing.assert_allclose(rig.map_offset[finger], 0.5, atol=0.1)
    again = make_rig(config, "tactile")
    np.testing.assert_array_equal(rig.map_gain["left"], again.map_gain["left"])


def test_unknown_material(config):
    with pytest.raises(ValueError):
        make_rig(config, "velcro")


# ---------------------------------------------------------------- reset


def test_reset_trial_deterministic(config):
    a = reset_trial(config, RngStream(7))
    b = reset_trial(config, RngStream(7))
    np.testing.assert_array_equal(a.rack_xy, b.rack_xy)
    assert a.rack_yaw == b.rack_yaw
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    np.testing.assert_array_equal(a.held_offset, b.held_offset)
    assert a.distractors == b.distractors


def test_reset_trial_varies_with_seed(config):
    a = reset_trial(config, RngStream(7))
    b = reset_trial(config, RngStream(8))
    assert not np.array_equal(a.rack_xy, b.rack_xy)


def test_reset_occupancy_mixed(config):
    for seed in range(20):
        occ = reset_trial(config, RngStream(seed)).occupancy
        assert occ.any(), f"seed {seed}: rack came up empty"
        assert not occ.all(), f"seed {seed}: rack came up full"


def test_reset_starts_holding_at_source(config):
    scene = reset_trial(config, RngStream(3))
    assert scene.held_offset is not None
    assert scene.setpoint[0] == config.workspace.source_x
    assert scene.setpoint[1] == config.workspace.source_y
    assert scene.setpoint[2] > config.hover_z()
    assert scene.inserted_slot is None


_HALF_W, _HALF_H = RackSpec().footprint_w / 2, RackSpec().footprint_h / 2


def _rack_frame(half):
    """A rack-frame coordinate: anywhere near the footprint, or on its edge."""
    return st.one_of(st.floats(-1.5 * half, 1.5 * half),
                     st.sampled_from([-half, half]))


@settings(max_examples=60, deadline=None)
@given(yaw=st.floats(-0.3, 0.3),
       local=st.lists(st.tuples(_rack_frame(_HALF_W), _rack_frame(_HALF_H)),
                      min_size=1, max_size=6))
def test_slot_centers_geometry(config, yaw, local):
    scene = reset_trial(config, RngStream(3))
    centers = scene.slots
    assert centers.shape == (config.rack.rows * config.rack.cols, 2)
    d = np.linalg.norm(centers[None, :, :] - centers[:, None, :], axis=-1)
    d[np.diag_indices(len(centers))] = np.inf
    assert d.min() == pytest.approx(config.rack.pitch, rel=1e-9)
    assert in_rack_footprint(scene, *scene.rack_xy)
    assert not in_rack_footprint(scene, *(scene.rack_xy + np.array([1.0, 0.0])))

    # The array form, broadcast row against column as the renderer asks it,
    # equals the float form at every element, edge points included.
    scene.rack_yaw = yaw
    c, s = np.cos(yaw), np.sin(yaw)
    xs = np.array([scene.rack_xy[0] + c * lx - s * ly for lx, ly in local])
    ys = np.array([scene.rack_xy[1] + s * lx + c * ly for lx, ly in local])
    mask = in_rack_footprint(scene, xs[None, :], ys[:, None])
    assert mask.dtype == bool and mask.shape == (len(ys), len(xs))
    assert mask.tolist() == [[in_rack_footprint(scene, x, y) for x in xs.tolist()]
                             for y in ys.tolist()]


# ---------------------------------------------------------------- contact


def test_insertion_contact(config):
    scene = reset_trial(config, RngStream(11))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.0, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.05))
    r, c = scene.inserted_slot
    assert not scene.occupancy[r, c]
    np.testing.assert_array_equal(
        scene.slots[r * config.rack.cols + c], vac)
    assert scene.grip_z == 0.05  # descending freely inside the slot


def test_occupied_slot_blocks_at_vial_top(config):
    scene = reset_trial(config, RngStream(11))
    _, occ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.0, 0.0))
    jump_setpoint(scene, (occ[0], occ[1], 0.05))
    assert scene.inserted_slot is None
    # pinned on the standing vial: its height plus the grip height
    expected = config.vial.height + config.vial.grip_height
    assert scene.grip_z == pytest.approx(expected)


def test_rim_contact_pins_on_rack_top(config):
    scene = reset_trial(config, RngStream(11))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.003, 0.0))  # worse than clearance, misses the bore
    jump_setpoint(scene, (vac[0], vac[1], 0.055))
    assert scene.inserted_slot is None
    assert scene.grip_z == pytest.approx(config.rack.height + config.vial.grip_height)


def test_table_contact_outside_rack(config):
    scene = reset_trial(config, RngStream(11))
    impose_grasp(scene, (0.0, 0.0))
    far = scene.rack_xy + np.array([0.5, 0.5])
    jump_setpoint(scene, (far[0], far[1], 0.02))
    assert scene.inserted_slot is None
    assert scene.grip_z == pytest.approx(config.vial.grip_height)


def test_contact_force_from_penetration(config):
    scene = reset_trial(config, RngStream(11))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.003, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.055))
    # pin at 0.065, setpoint 0.055 -> 10 mm penetration at 2000 N/m = 20 N
    sample = tick(scene, hold_still(scene))
    assert sample[2] == pytest.approx(20.0, abs=6.0)  # wrist bias + noise on top
    assert abs(sample[0]) < 2.0 and abs(sample[1]) < 2.0


# ---------------------------------------------------------------- slip


def test_rim_slip_drifts_outward(config):
    scene = reset_trial(config, RngStream(13))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.003, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.055))
    cmd = hold_still(scene)
    norms = [float(np.linalg.norm(scene.held_offset))]
    for _ in range(5):
        tick(scene, cmd)
        norms.append(float(np.linalg.norm(scene.held_offset)))
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert scene.held_offset[0] > 0.003  # away from the slot means +x here
    assert abs(scene.held_offset[1]) < 1e-12


def test_sustained_rim_contact_drops_vial(config):
    scene = reset_trial(config, RngStream(13))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.003, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.055))
    cmd = hold_still(scene)
    for i in range(200):
        tick(scene, cmd)
        if scene.held_offset is None:
            break
    else:
        pytest.fail("vial never slipped out of the gripper")
    assert i < 100
    assert scene.inserted_slot is None and scene.pin_z is None
    with pytest.raises(SimError):
        release_and_evaluate(scene)


def test_slip_rate_scales_inversely_with_friction(config):
    def drift_after(material, ticks=5):
        rig = make_rig(config, material)
        scene = reset_trial(config, RngStream(13), rig=rig)
        vac, _ = vacant_and_occupied(scene)
        impose_grasp(scene, (0.003, 0.0))
        jump_setpoint(scene, (vac[0], vac[1], 0.055))
        cmd = hold_still(scene)
        for _ in range(ticks):
            tick(scene, cmd)
        return float(np.linalg.norm(scene.held_offset)) - 0.003

    ratio = drift_after("tactile") / drift_after("rubber")
    expected = config.contact.mu_rubber / config.contact.mu_tactile
    assert ratio == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------- motion


def test_tick_tracks_setpoint_with_ramp(config):
    # ``tick`` moves at the config's descent speed: 30 mm/s, ramped at 0.5 m/s^2
    scene = reset_trial(config, RngStream(5))
    scene.config = dataclasses.replace(config, motion=dataclasses.replace(
        config.motion, descent_speed=0.03, accel=0.5))
    start = scene.setpoint.copy()
    target = start + np.array([0.02, 0.0, 0.0])
    tick(scene, target)
    first_step = scene.setpoint[0] - start[0]
    assert 0.0 < first_step <= 0.5 * DT * DT + 1e-12
    for _ in range(2000):
        tick(scene, target)
        if np.allclose(scene.setpoint, target):
            break
    np.testing.assert_allclose(scene.setpoint, target)
    assert scene.speed == 0.0


def test_clock_bookkeeping(config):
    scene = reset_trial(config, RngStream(5))
    advance_clock(scene, 2.5)
    assert scene.sim_clock == 2.5
    tick(scene, hold_still(scene))
    assert scene.sim_clock == pytest.approx(2.5 + DT)
    with pytest.raises(ValueError):
        advance_clock(scene, -0.1)


def test_jump_charges_its_travel_time(config):
    """A jump charges the straight-line distance at ``motion.speed``, and a
    zero-length jump charges nothing."""
    scene = reset_trial(config, RngStream(5))
    advance_clock(scene, 2.5)
    target = scene.setpoint + np.array([0.03, -0.04, 0.012])
    dist = float(np.linalg.norm(target - scene.setpoint))
    jump_setpoint(scene, target)
    np.testing.assert_array_equal(scene.setpoint, target)
    assert scene.sim_clock == 2.5 + dist / config.motion.speed
    jump_setpoint(scene, target)
    assert scene.sim_clock == 2.5 + dist / config.motion.speed


# ---------------------------------------------------------------- release


def test_release_into_slot_updates_occupancy(config):
    scene = reset_trial(config, RngStream(17))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.0, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.05))
    before = scene.occupancy.copy()
    assert release_and_evaluate(scene) == "inserted"
    flipped = np.argwhere(scene.occupancy != before)
    assert len(flipped) == 1
    assert scene.occupancy[tuple(flipped[0])]
    assert scene.held_offset is None


def test_release_on_rack_top(config):
    scene = reset_trial(config, RngStream(17))
    vac, _ = vacant_and_occupied(scene)
    impose_grasp(scene, (0.003, 0.0))
    jump_setpoint(scene, (vac[0], vac[1], 0.055))
    assert release_and_evaluate(scene) == "resting_on_rack"


def test_release_over_table(config):
    scene = reset_trial(config, RngStream(17))
    impose_grasp(scene, (0.0, 0.0))
    far = scene.rack_xy + np.array([0.5, 0.5])
    jump_setpoint(scene, (far[0], far[1], 0.10))
    assert release_and_evaluate(scene) == "dropped_on_table"
    with pytest.raises(SimError):
        release_and_evaluate(scene)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 50),
       slot=st.integers(0, RackSpec().rows * RackSpec().cols - 1),
       occupied=st.booleans(),
       miss=st.one_of(st.floats(0.0, 0.003), st.floats(0.0, 0.06)),
       heading=st.floats(0.0, 2 * np.pi),
       depth=st.floats(1e-4, RackSpec().height))
def test_release_inserts_only_within_clearance_of_a_vacant_slot(
        config, seed, slot, occupied, miss, heading, depth):
    # Every other slot is occupied, so the drawn slot is the only way in. The
    # vial bottom is aimed ``depth`` below the rack top, ``miss`` from the
    # slot centre; a centred grasp on the rubber rig puts it exactly there.
    rack, vial = config.rack, config.vial
    assume(abs(miss - config.clearance) > 1e-9)
    scene = reset_trial(config, RngStream(seed))
    scene.occupancy[:] = True
    scene.occupancy.flat[slot] = occupied
    impose_grasp(scene, (0.0, 0.0))
    bottom = scene.slots[slot] + miss * np.array(
        [np.cos(heading), np.sin(heading)])
    rack_top_grip = rack.height + vial.grip_height
    jump_setpoint(scene, (bottom[0], bottom[1], rack_top_grip - depth))
    on_rack = in_rack_footprint(scene, *bottom)
    grip_z = scene.grip_z
    inserts = not occupied and miss <= config.clearance
    assert scene.inserted_slot == (divmod(slot, rack.cols) if inserts else None)
    before = scene.occupancy.copy()
    placement = release_and_evaluate(scene)
    if inserts:
        assert placement == "inserted"
        assert np.flatnonzero(scene.occupancy != before).tolist() == [slot]
    elif on_rack:
        assert placement == "resting_on_rack"
        assert grip_z >= rack_top_grip  # pinned at the rack top or higher
    else:
        assert placement == "dropped_on_table"


# ---------------------------------------------------------------- cameras


def test_render_shape_and_slot_shading(config):
    scene = reset_trial(config, RngStream(19))
    img, eff = render_topdown(scene, config.camera.pose())
    assert img.shape == (config.camera.height, config.camera.width)
    assert img.dtype == np.uint8
    vac, occ = vacant_and_occupied(scene)
    cam = config.camera
    uv, vv = world_to_pixel(vac[0], vac[1], cam, eff, config.rack.height)
    uo, vo = world_to_pixel(occ[0], occ[1], cam, eff, config.rack.height)
    vacant_px = float(img[int(round(vv)), int(round(uv))])
    occupied_px = float(img[int(round(vo)), int(round(uo))])
    assert vacant_px > occupied_px + 50.0  # open bore is bright, cap is gray


def test_render_reproducible_per_trial(config):
    pose = config.camera.pose()
    a, a_eff = render_topdown(reset_trial(config, RngStream(19)), pose)
    b, b_eff = render_topdown(reset_trial(config, RngStream(19)), pose)
    np.testing.assert_array_equal(a, b)
    assert a_eff == b_eff


def test_render_rejects_camera_below_rack(config):
    scene = reset_trial(config, RngStream(19))
    pose = config.camera.pose()
    with pytest.raises(SimError):
        render_topdown(scene, type(pose)(pose.x, pose.y, config.rack.height))


# ---------------------------------------------------------------- tactile


def test_tactile_blob_lands_where_mount_map_says(config):
    rig = make_rig(config, "tactile")
    scene = reset_trial(config, RngStream(23), rig=rig)
    offset = np.array([0.001, 0.0005])
    impose_grasp(scene, offset)
    W, H = config.tactile.width, config.tactile.height
    for finger in ("left", "right"):
        frame = sample_tactile(scene, finger)
        assert frame.shape == (H, W) and frame.dtype == np.uint8
        vy, vx = np.unravel_index(np.argmax(frame), frame.shape)
        n = rig.map_gain[finger] @ offset + rig.map_offset[finger]
        expected = n * np.array([W - 1.0, H - 1.0])
        r_px = config.tactile.blob_diameter / 2.0 * (W - 1.0) / config.tactile.span
        assert np.hypot(vx - expected[0], vy - expected[1]) <= r_px + 2.0


def test_tactile_mirrored_fingers_disagree(config):
    rig = make_rig(config, "tactile")
    scene = reset_trial(config, RngStream(23), rig=rig)
    impose_grasp(scene, (0.002, 0.0))
    left = sample_tactile(scene, "left")
    right = sample_tactile(scene, "right")
    _, lx = np.unravel_index(np.argmax(left), left.shape)
    _, rx = np.unravel_index(np.argmax(right), right.shape)
    mid = (config.tactile.width - 1) / 2.0
    assert (lx - mid) * (rx - mid) < 0  # opposite sides of center


def test_tactile_requires_sensor_and_vial(config):
    scene = reset_trial(config, RngStream(23))  # rubber fingers
    with pytest.raises(SimError):
        sample_tactile(scene, "left")
    rig = make_rig(config, "tactile")
    scene = reset_trial(config, RngStream(23), rig=rig)
    with pytest.raises(ValueError):
        sample_tactile(scene, "thumb")
    scene.held_offset = None
    assert sample_tactile(scene, "left").max() < 100  # empty: no contact blob


def test_reference_frames_are_contact_free(config):
    rig = make_rig(config, "tactile")
    scene = reset_trial(config, RngStream(23), rig=rig)
    frames = reference_frames(scene, "left")
    assert len(frames) == config.tactile.n_reference
    for f in frames:
        assert f.max() < 100  # resting gel pattern only, no bright blob
