"""Circle detector tests against synthetic disks and rendered scenes."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import hough_reference
from vialbench.core import ChtConfig, load_config
from vialbench.geometry import world_to_pixel
from vialbench.perception.hough import (
    Candidate,
    ChtParams,
    cht_params_for,
    _box_lines,
    _edges,
    _refine,
    _sobel,
    detect_circles,
)
from vialbench.simworld import reset_trial
from vialbench.core import RngStream
from vialbench.simworld import render_topdown


def draw_disk(h, w, cu, cv, r, fg=200.0, bg=20.0):
    """Bright disk on a dark ground with a one-pixel soft rim."""
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.hypot(xx - cu, yy - cv)
    alpha = np.clip(r - d + 0.5, 0.0, 1.0)
    return bg + alpha * (fg - bg)


# The detector thresholds every campaign runs with.
CHT = ChtConfig()
PARAMS = ChtParams(r_min=6, r_max=14, vote_frac=CHT.vote_frac,
                   edge_thresh=CHT.edge_thresh)


@pytest.mark.parametrize("edge_thresh", [1e300, np.inf])
def test_a_threshold_past_every_gradient_finds_nothing(edge_thresh):
    """The config takes any positive ``cht.edge_thresh``; one whose square
    overflows a float gates out every pixel instead of raising."""
    img = draw_disk(64, 64, 32.0, 32.0, 10.0).astype(np.uint8)
    for image in (img, img.astype(float)):
        assert detect_circles(image, dataclasses.replace(
            PARAMS, edge_thresh=edge_thresh)) == []


def test_blank_image_no_candidates():
    assert detect_circles(np.full((64, 64), 37.0), PARAMS) == []


def test_non_2d_image_rejected():
    with pytest.raises(ValueError):
        detect_circles(np.zeros((3, 64, 64)), PARAMS)


@pytest.mark.parametrize("bad", [(0, 5), (7, 6), (-1, 3)])
def test_bad_radius_range_rejected(bad):
    lo, hi = bad
    with pytest.raises(ValueError):
        ChtParams(r_min=lo, r_max=hi, vote_frac=CHT.vote_frac,
                  edge_thresh=CHT.edge_thresh)


def test_single_disk_center_and_radius():
    img = draw_disk(128, 128, 64.0, 64.0, 10.0)
    cands = detect_circles(img, PARAMS)
    assert cands
    top = cands[0]
    assert abs(top.u - 64.0) <= 2.0
    assert abs(top.v - 64.0) <= 2.0
    assert abs(top.r - 10.0) <= 2.0


@pytest.mark.parametrize("du,dv", [(5, -7), (-13, 4), (20, 20)])
def test_detection_tracks_translation(du, dv):
    a = detect_circles(draw_disk(128, 128, 60.0, 60.0, 9.0), PARAMS)[0]
    b = detect_circles(draw_disk(128, 128, 60.0 + du, 60.0 + dv, 9.0), PARAMS)[0]
    assert abs((b.u - a.u) - du) <= 1.0
    assert abs((b.v - a.v) - dv) <= 1.0


def test_seeded_disks_within_two_pixels():
    rng = np.random.default_rng(4242)
    for _ in range(10):
        cu = float(rng.uniform(30, 98))
        cv = float(rng.uniform(30, 98))
        r = float(rng.uniform(7, 13))
        img = draw_disk(128, 128, cu, cv, r)
        img += rng.normal(0.0, 2.0, img.shape)
        top = detect_circles(img, PARAMS)[0]
        assert np.hypot(top.u - cu, top.v - cv) <= 2.0
        assert abs(top.r - r) <= 2.0


def test_two_disks_found_and_sorted():
    img = draw_disk(128, 128, 40.0, 40.0, 10.0)
    img = np.maximum(img, draw_disk(128, 128, 90.0, 88.0, 10.0))
    cands = detect_circles(img, PARAMS)
    assert len(cands) >= 2
    votes = [c.votes for c in cands]
    assert votes == sorted(votes, reverse=True)
    found = {(round(c.u / 10), round(c.v / 10)) for c in cands[:2]}
    assert found == {(4, 4), (9, 9)}


def test_nms_enforces_minimum_separation():
    img = draw_disk(128, 128, 64.0, 64.0, 10.0)
    cands = detect_circles(img, PARAMS)
    # refinement can move a kept peak by under a pixel, hence the slack
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            assert np.hypot(a.u - b.u, a.v - b.v) >= PARAMS.r_min - 2.0


def test_detection_deterministic():
    img = draw_disk(96, 96, 50.0, 44.0, 8.0)
    assert detect_circles(img, PARAMS) == detect_circles(img, PARAMS)


def test_params_for_brackets_slot_radius(config):
    p = cht_params_for(config, config.camera.z)
    depth = config.camera.z - config.rack.height
    r_px = config.rack.slot_radius * config.camera.fx / depth
    assert p.r_min <= r_px <= p.r_max
    assert p.vote_frac == config.cht.vote_frac


def test_params_for_camera_below_rack_raises(config):
    with pytest.raises(ValueError):
        cht_params_for(config, config.rack.height - 0.01)


def test_rendered_rack_every_slot_recovered(config):
    stream = RngStream(2026)
    params = cht_params_for(config, config.camera.z)
    for i in range(2):
        scene = reset_trial(config, stream.child(i))
        image, eff = render_topdown(scene, config.camera.pose())
        cands = detect_circles(image, params)
        assert len(cands) >= scene.config.rack.rows * scene.config.rack.cols
        centers = scene.slots
        su, sv = world_to_pixel(centers[:, 0], centers[:, 1], config.camera,
                                eff, config.rack.height)
        cu = np.array([c.u for c in cands])
        cv = np.array([c.v for c in cands])
        d = np.hypot(su[:, None] - cu[None, :], sv[:, None] - cv[None, :])
        worst = d.min(axis=1).max()
        assert worst <= 3.0, f"scene {i}: worst slot-to-candidate gap {worst:.2f}px"


def test_candidate_is_plain_record():
    c = Candidate(u=1.0, v=2.0, r=3.0, votes=4.0)
    assert (c.u, c.v, c.r, c.votes) == (1.0, 2.0, 3.0, 4.0)


_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    hnp.arrays(np.uint8, _SHAPES),
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(0.0, 255.0)),
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(-1e6, 1e6))))
@example(np.array([[-0.0]]))
def test_sobel_matches_scipy(image):
    gx, gy = _sobel(image)
    img = image.astype(float)
    want_x = ndimage.sobel(img, axis=1, mode="nearest")
    want_y = ndimage.sobel(img, axis=0, mode="nearest")
    if not np.signbit(image).any():
        # bit for bit, the sign of zero included
        assert gx.astype(float).tobytes() == want_x.tobytes()
        assert gy.astype(float).tobytes() == want_y.tobytes()
    else:
        # at a pixel with the sign bit set (-0.0 included) scipy may give
        # -0.0 where these give 0.0, nothing else
        assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y)


@settings(max_examples=60, deadline=None)
@given(r_min=st.integers(3, 12), extra=st.integers(0, 2), last=st.booleans(),
       off=st.floats(-1.5, 1.5), ring=st.booleans(),
       vote_frac=st.sampled_from([0.3, 1.2]), cu=st.floats(24.0, 40.0),
       cv=st.floats(24.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
@example(r_min=7, extra=1, last=True, off=1.2, ring=False, vote_frac=1.2,
         cu=31.3, cv=32.6, seed=1)
def test_radius_window_edges_match_reference(r_min, extra, last, off, ring,
                                             vote_frac, cu, cv, seed):
    """One and two radii, and a circle near either end of the sweep.

    The radius slices stream through a window, so the first and the last
    slice, and a sweep of one, miss a neighbour on one side or both. A
    circle just past an end, at ``vote_frac`` 1.2, passes the threshold in
    the end slice only, whose neighbour's lines are then built for
    ``_refine`` alone.
    """
    params = ChtParams(r_min=r_min, r_max=r_min + extra, vote_frac=vote_frac,
                       edge_thresh=CHT.edge_thresh)
    r = (params.r_max if last else params.r_min) + off
    img = draw_disk(64, 64, cu, cv, r)
    if ring:
        # a bright band about r: edges at r - 1 and r + 1 vote across slices
        img = (20.0 + draw_disk(64, 64, cu, cv, r + 1.0)
               - draw_disk(64, 64, cu, cv, r - 1.0))
    img += np.random.default_rng(seed).normal(0.0, 4.0, img.shape)
    assert detect_circles(img, params) == hough_reference.detect_circles(img, params)


def test_refine_sums_like_the_dense_stack():
    """The batched ``_refine`` on gathered lines equals the seed's per-peak
    one on the dense stack, with every cell of the stack a peak.

    Axes of length 1, 2 and 4 clip the blocks to 1, 2 and 3 cells, so the
    27 stacks hold every block shape between them.
    """
    gen = np.random.default_rng(3)
    for n, h, w in itertools.product((1, 2, 4), repeat=3):
        dense = gen.random((n, h, w)) * 10.0 ** gen.integers(0, 9, (n, h, w))
        order = gen.permutation(n * h)
        scores = dense.reshape(n * h, w)[order]
        line = np.empty(n * h, dtype=np.intp)
        line[order] = np.arange(n * h)
        line = line.reshape(n, h)
        radii = np.arange(5, 5 + n)
        ci, cv, cu = (a.ravel() for a in np.indices((n, h, w)))
        got = _refine(scores, line, radii, ci, cv, cu)
        want = [hough_reference._refine(dense, radii, float(u), float(v),
                                        float(radii[i]))
                for i, v, u in zip(ci, cv, cu)]
        assert [tuple(col) for col in got.T.tolist()] == want


def test_refine_sums_in_the_seed_order():
    """Summing a block in another order changes the floats, so the test
    above has teeth."""
    gen = np.random.default_rng(3)
    dense = gen.random((4, 9, 11)) * 10.0 ** gen.integers(0, 9, (4, 9, 11))
    blocks = [dense[i:i + 3, v:v + 3, u:u + 3]
              for i in range(2) for v in range(7) for u in range(9)]
    assert any(b.sum(axis=2).sum(axis=1).sum() != b.sum() for b in blocks)


def test_refine_keeps_a_peak_whose_block_sums_to_zero():
    scores = np.zeros((3, 4))
    line = np.arange(3).reshape(1, 3)
    got = _refine(scores, line, np.array([9]), np.array([0]), np.array([1]),
                  np.array([2]))
    assert got.tolist() == [[2.0], [1.0], [9.0]]


def _reference_edges(image, edge_thresh):
    img = image.astype(float)
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    mag = np.hypot(gx, gy)
    ey, ex = np.nonzero(mag >= edge_thresh)
    return ey, ex, gx[ey, ex] / mag[ey, ex], gy[ey, ex] / mag[ey, ex]


def _gates_at(mag):
    """Thresholds that sit on, just under and just over magnitudes of
    ``mag``, and thresholds below every magnitude or past them all."""
    levels = np.unique(mag[mag > 0])
    levels = levels[np.linspace(0, levels.size - 1, 12).astype(int)]
    return ([float(t) for t in levels]
            + [float(np.nextafter(t, 0.0)) for t in levels]
            + [float(np.nextafter(t, np.inf)) for t in levels]
            + [1e-300, 2.0 ** 15.5, 2.0 ** 16, 1e150, 1e300, np.inf, np.nan])


@pytest.mark.parametrize("kind", ["uint8", "float"])
def test_edge_gate_keeps_the_hypot_pixels(kind):
    """The squared-magnitude gate (exact int32 for byte images) keeps
    exactly the pixels whose ``hypot(gx, gy)`` reaches the threshold, with
    thresholds on the magnitudes themselves and one float step off them."""
    gen = np.random.default_rng(21)
    image = gen.integers(0, 256, (24, 31)).astype(np.uint8)
    if kind == "float":
        image = image + gen.choice([0.0, 0.25, 0.5, 1e-7], image.shape)
    mag = np.hypot(ndimage.sobel(image.astype(float), axis=1, mode="nearest"),
                   ndimage.sobel(image.astype(float), axis=0, mode="nearest"))
    kept = 0
    for gate in _gates_at(mag):
        got = _edges(image, gate)
        want = _reference_edges(image, gate)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        kept += got[0].size
    assert 0 < kept < len(_gates_at(mag)) * image.size


def test_box_lines_into_out_equal_uniform_filter():
    """The detector's path: lines written into rows of a larger buffer."""
    gen = np.random.default_rng(12)
    acc = gen.poisson(3.0, size=(2, 23, 31)).astype(np.uint16)
    dense = ndimage.uniform_filter(acc.astype(float), size=(1, 3, 3),
                                   mode="constant") * 9.0
    padded = np.pad(acc, ((0, 0), (1, 1), (1, 1)))
    col = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    vi = np.flatnonzero(gen.random(23) < 0.5)
    buf = np.full((vi.size + 4, 31), 7.0)
    got = _box_lines(col, (np.ones(vi.size, dtype=np.intp), vi), out=buf[2:-2])
    assert np.shares_memory(got, buf)
    assert buf[2:-2].tobytes() == dense[1, vi].tobytes()
    assert (buf[:2] == 7.0).all() and (buf[-2:] == 7.0).all()
