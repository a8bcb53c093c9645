"""The tactile frame path against the seed pipeline, bit for bit.

``find_contact`` thresholds the integer difference sum at a cut it bisects
on scalars; ``extract_contacts`` labels and traces only the bounding box of
the mask, on flat indices; ``sample_tactile`` draws the contact blob only
inside its bounding box and reuses each finger's last held-vial image. Each
must give exactly what ``tactile_reference`` (for the cut, its array
``normalize`` and ``binarize``) gives.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import tactile_reference
from vialbench.core import RngStream, TactileConfig, load_config
from vialbench.simworld import (impose_grasp, make_rig, reference_frames,
                                reset_trial, sample_tactile)
from tactile_reference import binarize, normalize
from vialbench.tactile import (FINGERS, _difference_sum, _moore_trace,
                               _single_component_start, _threshold_cut,
                               extract_contacts, find_contact)

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


@st.composite
def ladders(draw):
    """``(ladder, array, n)``: the range of difference sums ``find_contact``
    bisects, and the same sums as the array ``normalize`` would see.

    Ladders run from a drawn ``k_min`` to ``k_max`` in an int16 or int32
    total, as byte frames against ``n`` references give (int16 only while
    ``n * 255`` fits).
    """
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["int16", "int32"]))
    if kind == "int16":
        n = min(n, 128)
    top = 255 * n
    k_min = draw(st.integers(0, top))
    k_max = draw(st.one_of(st.just(k_min), st.integers(k_min, top)))
    array = np.arange(k_min, k_max + 1, dtype=kind)
    return range(k_min, k_max + 1), array, n


@st.composite
def thresholds(draw, array, n):
    """At or below 0, exactly 1 or above it, anywhere between, or on and
    next to the normalized mean of one of the ladder's sums."""
    kind = draw(st.sampled_from(["low", "one", "high", "free", "on"]))
    if kind == "low":
        return draw(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 0.0)))
    if kind == "one":
        return 1.0
    if kind == "high":
        return draw(st.floats(1.0, 3.0, exclude_min=True))
    if kind == "free":
        return draw(st.floats(0.0, 1.0))
    value = float(normalize(array / n)[draw(st.integers(0, len(array) - 1))])
    step = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    return float(np.nextafter(value, value + step))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_threshold_cut_matches_array_ladder(data):
    """The bisected cut is the first sum the array form lets through."""
    ladder, array, n = data.draw(ladders())
    threshold = data.draw(thresholds(array, n))
    passing = binarize(normalize(array / n), threshold)
    want = array[np.argmax(passing)] if passing.any() else None
    assert _threshold_cut(ladder, n, threshold) == want


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(frame_and_stack())
def test_difference_sum_uint8_matches_reference(data):
    """The exact sum over ``n`` is the seed's float mean, bit for bit."""
    frame, refs = data
    n = len(refs)
    want = tactile_reference.difference_image(frame, list(refs))
    _same_bits(_difference_sum(frame, refs.astype(np.int16)) / n, want)
    _same_bits(_difference_sum(frame, refs) / n, want)
    _same_bits(_difference_sum(frame, list(refs)) / n, want)


@pytest.mark.parametrize("n", [1, 128, 129, 300])
def test_difference_sum_of_many_byte_references_is_exact(n):
    """Past 128 references of 0 and 255 a uint8 frame's total no longer fits
    in int16; it must still equal the exact sum. A uint8 stack, an int16
    stack and a list of uint8 frames give the same total, bit for bit."""
    frame = np.array([[255, 0, 128], [7, 255, 0]], dtype=np.uint8)
    refs = np.zeros((n, 2, 3), dtype=np.int16)
    refs[1::2] = 255
    want = np.abs(frame.astype(np.int64) - refs.astype(np.int64)).sum(axis=0)
    want = want.astype(np.int16 if n <= 128 else np.int32)
    for stack in (refs.astype(np.uint8), refs, list(refs.astype(np.uint8))):
        _same_bits(_difference_sum(frame, stack), want)
    _same_bits(_difference_sum(frame, refs) / n,
               tactile_reference.difference_image(frame, list(refs)))


# --- masks and border traces -------------------------------------------------


def _stamp(mask, shape, r, c, size):
    """Draw one shape with its top-left cell at (r, c), clipped to the mask:
    a pixel, a two-pixel pair (across, down or diagonal), a block, or a ring
    around a hole."""
    h, w = mask.shape
    cells = {
        "pixel": [(0, 0)],
        "pair_across": [(0, 0), (0, 1)],
        "pair_down": [(0, 0), (1, 0)],
        "pair_diagonal": [(0, 0), (1, 1)],
        "pair_antidiagonal": [(0, 1), (1, 0)],
    }.get(shape)
    if cells is None:
        side = size + 2 if shape == "ring" else size
        cells = [(i, j) for i in range(side) for j in range(side)
                 if shape == "block" or i in (0, side - 1) or j in (0, side - 1)]
    for i, j in cells:
        if 0 <= r + i < h and 0 <= c + j < w:
            mask[r + i, c + j] = True


# Rows or columns where a shape starts: the first cell, the last cell, one
# in from each, or anywhere.
def _place(draw, n):
    return draw(st.one_of(st.sampled_from([-1, 0, 1, n - 2, n - 1]),
                          st.integers(-2, n)))


@st.composite
def masks(draw):
    """A bare binary mask: empty, arbitrary bits, sparse speckle, or a few
    pixels, pairs, blocks and rings placed against the edges and corners
    or anywhere; as bool or as 0/1 ints."""
    h, w = draw(SHAPES)
    kind = draw(st.sampled_from(["empty", "drawn", "speckle", "shapes"]))
    if kind == "drawn":
        mask = draw(hnp.arrays(bool, (h, w)))
    elif kind == "speckle":
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mask = gen.random((h, w)) < draw(st.floats(0.02, 0.5))
    else:
        mask = np.zeros((h, w), dtype=bool)
    if kind == "shapes":
        shapes = st.sampled_from(["pixel", "pair_across", "pair_down",
                                  "pair_diagonal", "pair_antidiagonal",
                                  "block", "ring"])
        for _ in range(draw(st.integers(1, 6))):
            _stamp(mask, draw(shapes), _place(draw, h), _place(draw, w),
                   draw(st.integers(1, 8)))
    return mask.astype(int) if draw(st.booleans()) else mask


def _nested():
    """A ring around a hole holding one pixel, a pixel in the top-right
    corner and a pair on the bottom edge: four components, the last three
    tied at area 0."""
    mask = np.zeros((9, 10), dtype=bool)
    _stamp(mask, "ring", 2, 2, 3)
    _stamp(mask, "pixel", 4, 4, 1)
    _stamp(mask, "pixel", 0, 9, 1)
    _stamp(mask, "pair_across", 8, 0, 1)
    return mask


@settings(max_examples=600, deadline=None)
@example(_nested(), 0.0)
@example(_nested(), 1.0)
@given(masks(), st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 9.0, 25.0]),
                          st.floats(0.0, 60.0)))
def test_extract_contacts_matches_reference(mask, min_area):
    assert (extract_contacts(mask, min_area)
            == tactile_reference.extract_contacts(mask, min_area))


@settings(max_examples=300, deadline=None)
@given(masks())
def test_moore_trace_matches_reference(mask):
    """Every component's trace from its first pixel in raster order, on the
    component alone and on the whole mask (a trace never leaves its
    8-connected component)."""
    mask = mask.astype(bool)
    labeled, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    w = mask.shape[1]
    for lbl in range(1, count + 1):
        component = labeled == lbl
        flat = int(np.argmax(component))
        start = (flat // w, flat % w)
        want = tactile_reference._moore_trace(component, start)
        for on in (component, mask):
            rows, cols = _moore_trace(on, start)
            assert rows.dtype.kind == cols.dtype.kind == "i"
            assert list(zip(rows.tolist(), cols.tolist())) == want


# --- the row-run proof of one component ------------------------------------


@st.composite
def row_run_masks(draw):
    """``(mask, proven)``: one run per row, each placed against the run
    above it so that the two overlap, touch only at a diagonal or stand a
    column or more apart, with empty rows anywhere, and a few stray pixels
    on top. ``proven`` says whether the rows as drawn, without the strays,
    are all one run each and each run reaches the next; it is None when
    strays were added.
    """
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 16))
    mask = np.zeros((h, w), dtype=bool)
    proven = True
    prev = None
    for r in range(h):
        if draw(st.integers(0, 5)) == 0:  # an empty row
            mask[r] = False
            proven = False
            prev = None
            continue
        length = draw(st.integers(1, w))
        if prev is None:
            first = draw(st.integers(0, w - length))
        else:
            p_first, p_last = prev
            where = draw(st.sampled_from(
                ["overlap", "diagonal_right", "diagonal_left", "gap", "any"]))
            first = {
                "overlap": draw(st.integers(p_first - length + 1, p_last)),
                "diagonal_right": p_last + 1,
                "diagonal_left": p_first - length,
                "gap": draw(st.sampled_from([p_last + 2,
                                             p_first - length - 1])),
                "any": draw(st.integers(0, w - length)),
            }[where]
            first = min(max(first, 0), w - length)
            if first > p_last + 1 or first + length - 1 < p_first - 1:
                proven = False
        mask[r, first:first + length] = True
        prev = (first, first + length - 1)
    strays = draw(st.lists(st.tuples(st.integers(0, h - 1),
                                     st.integers(0, w - 1)), max_size=2))
    for r, c in strays:
        mask[r, c] = True
    return mask, None if strays else proven


def _label_count(mask):
    return ndimage.label(mask, structure=np.ones((3, 3), dtype=int))[1]


@settings(max_examples=600, deadline=None)
@given(st.one_of(row_run_masks(), masks().map(lambda m: (m.astype(bool), None))))
def test_row_run_proof_implies_one_component(case):
    """Whenever the proof passes, the mask holds exactly one 8-connected
    component and its first pixel in raster order sits in row 0 at the
    returned column. On row-run masks without strays it passes exactly
    when every row is one run that reaches the next."""
    mask, proven = case
    start = _single_component_start(mask)
    if proven is not None:
        assert (start is not None) == proven
    if start is not None:
        assert _label_count(mask) == 1
        assert int(np.argmax(mask)) == start


@settings(max_examples=400, deadline=None)
@given(row_run_masks(), st.sampled_from([0.0, 1.0, 4.0, 25.0]))
def test_extract_contacts_on_row_runs_matches_reference(case, min_area):
    """Row-run masks reach both the proof path and the labelling path."""
    mask, _ = case
    assert (extract_contacts(mask, min_area)
            == tactile_reference.extract_contacts(mask, min_area))


def _rows(*rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


_U = _rows("#...#",
           "#...#",
           "#####")
_STAIRCASE = _rows("##....",
                   "..##..",
                   "....##")
_APART = _rows("##.##",
               "#####",
               "##.##")
_ONE_COLUMN_APART = _rows("##.##")


@pytest.mark.parametrize("mask, start, components", [
    (_U, None, 1),                   # two runs in one row: not proven
    (_STAIRCASE, 0, 1),              # runs that touch only at a diagonal
    (_APART, None, 1),               # one component, rows of two runs
    (_ONE_COLUMN_APART, None, 2),    # two runs one column apart
    (_rows("#"), 0, 1),
    (_rows("..#", "...", "#.."), None, 2),   # an empty interior row
    (_rows(".##", "#.."), 1, 1),     # a diagonal step to the left
    (_rows("##..", "...#"), None, 2),  # a column apart across rows
])
def test_row_run_proof_examples(mask, start, components):
    assert _single_component_start(mask) == start
    assert _label_count(mask) == components
    got = extract_contacts(mask, 0.0)
    assert len(got) == components
    assert got == tactile_reference.extract_contacts(mask, 0.0)


def test_trace_stops_at_its_first_return_to_the_start():
    """Both walks stop the first time they step back onto the start pixel.
    When that pixel is a one-pixel diagonal neck, the walk has not yet
    reached the rest of the component: here it never visits (1, 0), so the
    proven component reads as its row-0 run alone, with area 0."""
    mask = _rows(".###",
                 "#...")
    assert _single_component_start(mask) == 1
    assert _label_count(mask) == 1
    want = [(0, 1), (0, 2), (0, 3), (0, 2)]
    rows, cols = _moore_trace(mask, (0, 1))
    assert list(zip(rows.tolist(), cols.tolist())) == want
    assert tactile_reference._moore_trace(mask, (0, 1)) == want
    for extract in (extract_contacts, tactile_reference.extract_contacts):
        assert ([(r.centroid, r.area) for r in extract(mask, 0.0)]
                == [((2.0, 0.0), 0.0)])


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
                          for _ in range(n)], dtype=np.uint8))
    for g, w in zip(got, want):
        _same_bits(g, w)


@pytest.mark.parametrize("name", sorted(_SIZES))
def test_reference_stack_is_open_gripper_frames(name):
    """With a vial held, the stack is ``n_reference`` open-gripper frames
    as uint8, drawn in order from the scene's RNG."""
    scene = _SCENES[name]
    scene.held_offset = _offset_for_center(
        scene, "left", (scene.config.tactile.width / 2.0,
                        scene.config.tactile.height / 2.0))
    scene.rng = np.random.default_rng(4)
    got = reference_frames(scene, "left")
    scene.rng = np.random.default_rng(4)
    want = np.array([sample_tactile(scene, "left", open_gripper=True)
                     for _ in range(scene.config.tactile.n_reference)],
                    dtype=np.uint8)
    _same_bits(got, want)


def test_held_image_memo_matches_reference():
    """``sample_tactile`` reuses each finger's last held-vial image while
    the offset repeats. Over repeats, changes, open-gripper and empty
    frames, a return to an earlier offset, both fingers and a grasp imposed
    in between, every frame and the RNG must match the seed renderer."""
    scene = reset_trial(_SIZES["default"], RngStream(8),
                        rig=make_rig(_SIZES["default"], "tactile"))
    first = scene.held_offset.copy()
    moved = first + np.array([4e-4, -3e-4])

    def offset(value):
        return lambda s: setattr(s, "held_offset", value.copy())

    steps = [
        ("left", None), ("left", None), ("right", None), ("left", None),
        ("left", offset(moved)), ("left", None), ("right", None),
        ("right", "open"), ("left", None),
        ("left", offset(first)), ("right", None), ("left", None),
        ("left", lambda s: impose_grasp(s, moved)), ("right", None),
        ("left", None), ("right", lambda s: setattr(s, "held_offset", None)),
        ("left", None), ("left", offset(moved)), ("right", None),
    ]
    ref = copy.deepcopy(scene)
    for finger, change in steps:
        open_gripper = change == "open"
        if callable(change):
            change(scene)
            change(ref)
        got = sample_tactile(scene, finger, open_gripper=open_gripper)
        want = tactile_reference.sample_tactile(ref, finger,
                                                open_gripper=open_gripper)
        _same_bits(got, want)
        assert scene.rng.bit_generator.state == ref.rng.bit_generator.state
    for finger in FINGERS:
        key, image = scene._held_images[finger]
        assert key == moved.tobytes()
        assert not image.flags.writeable
