"""``simworld.tick`` against the seed step in ``tick_reference``, bit for bit.

Each case places the gripper over a vacant slot, an occupied slot or the
table, with or without a vial, and drives both copies of one scene through
the same legs of motion commands. Each leg sets the descent speed, the
ramp and the force rate in both scenes' config, which ``tick`` reads, and
hands the reference the same values as a ``MoveCommand`` and ``dt``. After
every tick the force vectors and the whole scene state must be identical:
setpoint, speed, held offset, occupancy, pin, clock and RNG, and the
inserted slot, which the reference holds as an ``INSERTED`` contact.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tick_reference
from tick_reference import Contact, MoveCommand
from vialbench.core import RngStream, load_config
from vialbench.simworld import (impose_grasp, jump_setpoint, make_rig,
                                release_and_evaluate, reset_trial, tick)

CONFIG = load_config()
RATE = CONFIG.force.rate
DT = 1.0 / RATE


def _bits(value):
    return None if value is None else float(value).hex()


def _state(scene, inserted_slot):
    held = scene.held_offset
    return (scene.setpoint.tobytes(), _bits(scene.speed),
            None if held is None else held.tobytes(),
            scene.occupancy.tobytes(), inserted_slot, _bits(scene.pin_z),
            _bits(scene.sim_clock), scene.rng.bit_generator.state)


def _assert_same(scene, ref):
    """``scene`` and the reference's ``ref`` hold the same state."""
    slot = ref.contact_slot if ref.contact is Contact.INSERTED else None
    assert _state(scene, scene.inserted_slot) == _state(ref, slot)


def _reference_copy(scene):
    """A copy of ``scene`` for the reference step, with the reference's own
    contact worked out for where the gripper is (no slip, no draw)."""
    ref = copy.deepcopy(scene)
    tick_reference._resolve_contact(ref, 0.0)
    return ref


def _sample(sample):
    assert sample.shape == (3,) and sample.dtype == np.float64
    return tuple(float(v).hex() for v in sample)


def _anchor(scene, where):
    """World xy of a vacant slot, an occupied slot or a table spot."""
    occ = scene.occupancy.ravel()
    centers = scene.slots
    if where == "vacant":
        return centers[np.flatnonzero(~occ)[0]]
    if where == "occupied":
        return centers[np.flatnonzero(occ)[0]]
    return scene.rack_xy + np.array([0.09, 0.0])


LEGS = st.lists(st.tuples(
    st.one_of(st.none(),  # hold still: the zero-distance branch
              st.tuples(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01),
                        st.floats(-0.01, 0.1))),
    st.floats(0.001, 0.1),        # speed
    st.floats(0.01, 2.0),         # accel
    st.sampled_from([RATE, 60, 500, 20]),  # force rate: dt = 1 / rate
    st.integers(1, 60),           # ticks
), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), material=st.sampled_from(["rubber", "tactile"]),
       where=st.sampled_from(["vacant", "occupied", "table"]),
       held=st.one_of(st.none(), st.tuples(st.floats(-4e-3, 4e-3),
                                           st.floats(-4e-3, 4e-3))),
       start=st.tuples(st.floats(-6e-3, 6e-3), st.floats(-6e-3, 6e-3),
                       st.floats(-0.005, 0.12)),
       legs=LEGS)
# A vial held 3 mm off a vacant slot's axis, pressed onto its rim: it slips
# outward every tick and then falls out of the gripper.
@example(seed=13, material="rubber", where="vacant", held=(0.003, 0.0),
         start=(0.0, 0.0, 0.055), legs=[(None, 0.03, 0.5, RATE, 120)])
@example(seed=13, material="tactile", where="vacant", held=(0.003, 0.0),
         start=(0.0, 0.0, 0.08), legs=[((0.0, 0.0, 0.05), 0.04, 0.5, RATE, 120)])
def test_tick_matches_reference(seed, material, where, held, start, legs):
    scene = reset_trial(CONFIG, RngStream(seed), rig=make_rig(CONFIG, material))
    if held is None:
        scene.held_offset = None
    else:
        impose_grasp(scene, held)
    anchor = _anchor(scene, where)
    jump_setpoint(scene, (anchor[0] + start[0], anchor[1] + start[1], start[2]))
    ref = _reference_copy(scene)
    _assert_same(scene, ref)
    for target, speed, accel, rate, ticks in legs:
        scene.config = ref.config = dataclasses.replace(
            CONFIG,
            motion=dataclasses.replace(CONFIG.motion, descent_speed=speed,
                                       accel=accel),
            force=dataclasses.replace(CONFIG.force, rate=rate))
        if target is None:
            aim = scene.setpoint.copy()
        else:
            aim = np.array([anchor[0] + target[0], anchor[1] + target[1],
                            target[2]])
        cmd = MoveCommand(target=aim, speed=speed, accel=accel)
        for _ in range(ticks):
            got = tick(scene, aim)
            want = tick_reference.tick(ref, cmd, 1.0 / rate)
            assert _sample(got) == _sample(want)
            _assert_same(scene, ref)


def test_rim_example_slips_and_loses_the_vial():
    """The first explicit example above reaches the rim-slip branch and
    then the loss branch, so both are checked against the reference."""
    scene = reset_trial(CONFIG, RngStream(13), rig=make_rig(CONFIG, "rubber"))
    impose_grasp(scene, (0.003, 0.0))
    anchor = _anchor(scene, "vacant")
    jump_setpoint(scene, (anchor[0], anchor[1], 0.055))
    cmd = MoveCommand(target=scene.setpoint.copy(), speed=0.03, accel=0.5)
    offsets = []
    for _ in range(120):
        tick_reference.tick(scene, cmd, DT)
        offsets.append(None if scene.held_offset is None
                       else float(scene.held_offset[0]))
    assert offsets[0] > 0.003  # slipped outward on the first tick
    assert offsets[-1] is None  # and was lost within the leg


def _hold_still(scene, ref, ticks=5):
    cmd = MoveCommand(target=scene.setpoint.copy(), speed=0.03, accel=0.5)
    for _ in range(ticks):
        assert _sample(tick(scene, cmd.target)) == _sample(
            tick_reference.tick(ref, cmd, DT))
        _assert_same(scene, ref)


@pytest.mark.parametrize("where", ["vacant", "occupied"])
def test_occupancy_written_between_ticks_matches_reference(where):
    """``tick`` reuses the support found at the same vial bottom xy; flipping
    the slot under a held vial between two ticks there must still give
    the reference contact."""
    scene = reset_trial(CONFIG, RngStream(21), rig=make_rig(CONFIG, "rubber"))
    impose_grasp(scene, (0.0, 0.0))
    anchor = _anchor(scene, where)
    jump_setpoint(scene, (anchor[0], anchor[1], 0.02))
    ref = _reference_copy(scene)
    _hold_still(scene, ref)
    before = ref.contact
    slot = np.argmin(np.linalg.norm(scene.slots - anchor, axis=1))
    r, c = divmod(int(slot), CONFIG.rack.cols)
    for s in (scene, ref):
        s.occupancy[r, c] = not s.occupancy[r, c]
    _hold_still(scene, ref)
    assert ref.contact is not before
    assert (scene.inserted_slot is None) == (where == "vacant")


def test_release_into_slot_then_regrasp_matches_reference():
    """``release_and_evaluate`` fills the slot the vial went into; a vial
    grasped again at the same bottom xy must rest on the filled slot, as
    the reference finds."""
    scene = reset_trial(CONFIG, RngStream(21), rig=make_rig(CONFIG, "rubber"))
    impose_grasp(scene, (0.0, 0.0))
    anchor = _anchor(scene, "vacant")
    jump_setpoint(scene, (anchor[0], anchor[1], 0.02))
    ref = _reference_copy(scene)
    _hold_still(scene, ref)
    assert ref.contact is Contact.INSERTED
    assert release_and_evaluate(scene) == "inserted"
    tick_reference.release(ref)
    _hold_still(scene, ref)
    impose_grasp(scene, (0.0, 0.0))
    ref.held_offset = np.zeros(2)
    tick_reference._resolve_contact(ref, 0.0)
    _assert_same(scene, ref)
    _hold_still(scene, ref)
    assert ref.contact is Contact.RACK_TOP
