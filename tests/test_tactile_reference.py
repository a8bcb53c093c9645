"""The tactile frame path against the seed pipeline, bit for bit.

``find_contact`` thresholds the integer difference sum and traces borders on
flat indices; ``sample_tactile`` draws the contact blob only inside its
bounding box. Each must give exactly what ``tactile_reference`` gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tactile_reference
from vialbench.core import RngStream, TactileConfig, load_config
from vialbench.simworld import (make_rig, reference_frames, reset_trial,
                                sample_tactile)
from vialbench.tactile import difference_image, find_contact

SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 40))


@st.composite
def frame_and_stack(draw):
    """A uint8 frame and an ``(n, h, w)`` uint8 reference stack.

    ``drawn`` frames are arbitrary bytes; ``flat`` frames difference to one
    value everywhere; ``patch`` frames lift a rectangle of a noisy copy of
    a reference, so one large region competes with speckle.
    """
    h, w = draw(SHAPES)
    n = draw(st.integers(1, 8))
    refs = draw(hnp.arrays(np.uint8, (n, h, w)))
    kind = draw(st.sampled_from(["drawn", "flat", "patch"]))
    if kind == "drawn":
        frame = draw(hnp.arrays(np.uint8, (h, w)))
    elif kind == "flat":
        level = draw(st.integers(0, 255))
        refs = np.full((n, h, w), draw(st.integers(0, 255)), dtype=np.uint8)
        frame = np.full((h, w), level, dtype=np.uint8)
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        frame = np.clip(refs[0] + gen.integers(-3, 4, (h, w)), 0, 255)
        r0, c0 = gen.integers(0, h), gen.integers(0, w)
        r1, c1 = gen.integers(r0, h) + 1, gen.integers(c0, w) + 1
        frame[r0:r1, c0:c1] = np.clip(frame[r0:r1, c0:c1] + 120, 0, 255)
        frame = frame.astype(np.uint8)
    return frame, refs


CONFIGS = st.builds(
    TactileConfig,
    threshold=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
    contact_floor=st.one_of(st.just(0.0), st.floats(-5.0, 0.0)),
    min_area=st.sampled_from([0.0, 1.0, 4.0, 25.0]),
)


@settings(max_examples=400, deadline=None)
@given(frame_and_stack(), CONFIGS)
def test_find_contact_matches_reference(data, cfg):
    frame, refs = data
    want = tactile_reference.find_contact(frame, list(refs), cfg)
    assert find_contact(frame, refs.astype(np.int16), cfg) == want
    assert find_contact(frame, list(refs), cfg) == want


@settings(max_examples=100, deadline=None)
@given(frame_and_stack(), st.floats(0.0, 300.0))
def test_contact_floor_matches_reference(data, floor):
    frame, refs = data
    cfg = TactileConfig(contact_floor=floor, min_area=0.0)
    assert (find_contact(frame, refs.astype(np.int16), cfg)
            == tactile_reference.find_contact(frame, list(refs), cfg))


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(frame_and_stack())
def test_difference_image_uint8_matches_reference(data):
    frame, refs = data
    want = tactile_reference.difference_image(frame, list(refs))
    _same_bits(difference_image(frame, refs.astype(np.int16)), want)
    _same_bits(difference_image(frame, refs), want)
    _same_bits(difference_image(frame, list(refs)), want)


@st.composite
def typed_frame_and_stack(draw, dtype, elements):
    h, w = draw(SHAPES)
    n = draw(st.integers(1, 8))
    return (draw(hnp.arrays(dtype, (h, w), elements=elements)),
            draw(hnp.arrays(dtype, (n, h, w), elements=elements)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    typed_frame_and_stack(np.int64, st.integers(-10**6, 10**6)),
    typed_frame_and_stack(np.float64, st.floats(-1e6, 1e6)),
    typed_frame_and_stack(np.float32, st.floats(-1e4, 1e4, width=32)),
))
def test_difference_image_int_and_float_match_reference(data):
    frame, refs = data
    _same_bits(difference_image(frame, list(refs)),
               tactile_reference.difference_image(frame, list(refs)))


# --- rendering -------------------------------------------------------------

_SIZES = {
    "default": load_config(),
    "small": load_config("tactile.width = 23\ntactile.height = 17\n"
                         "tactile.span = 0.006\n"),
}


def _scene(config):
    return reset_trial(config, RngStream(5), rig=make_rig(config, "tactile"))


_SCENES = {name: _scene(cfg) for name, cfg in _SIZES.items()}


def _offset_for_center(scene, finger, center):
    """The in-gripper offset whose blob lands at pixel ``center`` (x, y)."""
    tac = scene.config.tactile
    n = np.asarray(center) / np.array([tac.width - 1.0, tac.height - 1.0])
    return np.linalg.solve(scene.rig.map_gain[finger],
                           n - scene.rig.map_offset[finger])


def _blob_coordinate(size, r_px):
    """On, at and past the frame edge, or anywhere inside."""
    edges = [0.0, size - 1.0]
    return st.one_of(
        st.floats(-r_px - 3.0, size + r_px + 2.0),
        st.sampled_from([e + d for e in edges
                         for d in (-r_px - 1.5, -r_px - 1.0, -r_px, -0.5, 0.0,
                                   0.5, r_px, r_px + 1.0, r_px + 1.5)]),
    )


@st.composite
def blob_frames(draw):
    name = draw(st.sampled_from(sorted(_SIZES)))
    scene = _SCENES[name]
    tac = scene.config.tactile
    r_px = tac.blob_diameter / 2.0 * (tac.width - 1.0) / tac.span
    finger = draw(st.sampled_from(["left", "right"]))
    center = (draw(_blob_coordinate(tac.width, r_px)),
              draw(_blob_coordinate(tac.height, r_px)))
    return scene, finger, center, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(blob_frames(), st.booleans())
def test_sample_tactile_matches_reference(case, open_gripper):
    scene, finger, center, seed = case
    scene.held_offset = _offset_for_center(scene, finger, center)
    frames, states = [], []
    for render in (sample_tactile, tactile_reference.sample_tactile):
        scene.rng = np.random.default_rng(seed)
        frames.append(render(scene, finger, open_gripper=open_gripper))
        states.append(scene.rng.bit_generator.state)
    _same_bits(frames[0], frames[1])
    assert states[0] == states[1]  # the same draws, in the same order


@pytest.mark.parametrize("name", sorted(_SIZES))
def test_empty_gripper_and_reference_stack_match_reference(name):
    scene = _SCENES[name]
    n = scene.config.tactile.n_reference
    scene.held_offset = None
    scene.rng = np.random.default_rng(3)
    got = [sample_tactile(scene, "left")]
    got.append(reference_frames(scene, "right"))
    scene.rng = np.random.default_rng(3)
    want = [tactile_reference.sample_tactile(scene, "left")]
    want.append(np.array([tactile_reference.sample_tactile(scene, "right")
                          for _ in range(n)], dtype=np.int16))
    for g, w in zip(got, want):
        _same_bits(g, w)
