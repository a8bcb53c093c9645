"""The sparse circle detector against the seed dense detector, bit for bit."""

import numpy as np
import pytest
from scipy import ndimage

import hough_reference
from vialbench.core import ChtConfig, Pose3, RngStream
from vialbench.perception import hough
from vialbench.perception.hough import (ChtParams, _box_lines, cht_params_for,
                                        detect_circles)
from vialbench.perception.pipeline import refined_camera_z
from vialbench.simworld import render_topdown, reset_trial


# The detector thresholds every campaign runs with.
CHT = ChtConfig()
PARAMS = ChtParams(r_min=6, r_max=14, vote_frac=CHT.vote_frac,
                   edge_thresh=CHT.edge_thresh)


def assert_same(image, params):
    got = detect_circles(image, params)
    assert got == hough_reference.detect_circles(image, params)
    return got


def test_rendered_racks_match_reference(config):
    # the 50 racks of acceptance criterion 2
    params = cht_params_for(config, config.camera.z)
    for seed in range(50):
        scene = reset_trial(config, RngStream(1000 + seed))
        assert assert_same(render_topdown(scene, config.camera.pose())[0], params)


def test_close_ups_match_reference(config):
    close_z = refined_camera_z(config)
    params = cht_params_for(config, close_z)
    for seed in range(20):
        scene = reset_trial(config, RngStream(2000 + seed))
        centers = scene.slots
        x, y = centers[seed % len(centers), :2]
        pose = Pose3(x=float(x), y=float(y), z=close_z)
        assert assert_same(render_topdown(scene, pose)[0], params)


def test_synthetic_circles_match_reference():
    # the 50 synthetic circles of acceptance criterion 2
    gen = np.random.default_rng(4242)
    yy, xx = np.mgrid[0:128, 0:128]
    for _ in range(50):
        cu, cv = gen.uniform(30.0, 98.0, 2)
        r = gen.uniform(7.0, 13.0)
        img = 20.0 + np.clip(r - np.hypot(xx - cu, yy - cv) + 0.5, 0.0, 1.0) * 180.0
        img += gen.normal(0.0, 2.0, img.shape)
        assert assert_same(img, PARAMS)


def test_blank_image_matches_reference():
    assert assert_same(np.full((64, 64), 37.0), PARAMS) == []


def test_dense_noise_matches_reference():
    # more than 2**15 edge pixels: the vote counts need 32 bits
    img = np.random.default_rng(5).uniform(0.0, 255.0, (200, 200))
    params = ChtParams(r_min=8, r_max=9, vote_frac=0.3,
                       edge_thresh=CHT.edge_thresh)
    assert 2 * np.count_nonzero(np.hypot(ndimage.sobel(img, axis=1),
                                         ndimage.sobel(img, axis=0))
                                >= params.edge_thresh) > 2 ** 16
    assert len(assert_same(img, params)) > 100


@pytest.mark.parametrize("rate", [0.05, 0.7, 3.0])
def test_box_lines_equal_uniform_filter(rate):
    gen = np.random.default_rng(11)
    acc = gen.poisson(rate, size=(4, 37, 53))
    acc[gen.random(acc.shape) < 0.5] = 0
    dense = ndimage.uniform_filter(acc.astype(float), size=(1, 3, 3),
                                   mode="constant") * 9.0
    padded = np.pad(acc, ((0, 0), (1, 1), (1, 1)))
    col = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    ri, vi = np.nonzero(gen.random(acc.shape[:2]) < 0.3)
    got = _box_lines(col, (ri, vi))
    assert np.array_equal(got, dense[ri, vi])
    # the float sums do drift from the integer ones, so this check has teeth
    exact = col[:, :, :-2] + col[:, :, 1:-1] + col[:, :, 2:]
    assert rate < 0.5 or np.any(dense != exact)


def disk(h, w, cu, cv, r):
    yy, xx = np.mgrid[0:h, 0:w]
    return 20.0 + np.clip(r - np.hypot(xx - cu, yy - cv) + 0.5, 0.0, 1.0) * 180.0


# A disk cut by each edge: centred a pixel inside it, on it and beyond it.
EDGE_CENTRES = {"left": lambda c: (c, 30.0), "right": lambda c: (63.0 - c, 34.0),
                "top": lambda c: (29.0, c), "bottom": lambda c: (35.0, 63.0 - c)}


@pytest.fixture
def block_shapes(monkeypatch):
    """The (radii, rows, columns) shape of every block the detector
    refines, as the batched ``_refine`` groups them. Blocks clipped to one
    row or column need an image one pixel high or wide;
    ``test_refine_sums_like_the_dense_stack`` covers every shape."""
    shapes = set()

    def spy(scores, line, radii, ci, cv, cu):
        bounds = [(line.shape[0], ci), (line.shape[1], cv), (scores.shape[1], cu)]
        size = [np.minimum(x + 2, n) - np.maximum(x - 1, 0) for n, x in bounds]
        shapes.update(zip(*(s.tolist() for s in size)))
        return refine(scores, line, radii, ci, cv, cu)

    refine = hough._refine
    monkeypatch.setattr(hough, "_refine", spy)
    return shapes


@pytest.mark.parametrize("edge", sorted(EDGE_CENTRES))
def test_circles_cut_by_an_edge_match_reference(edge):
    gen = np.random.default_rng(7)
    for c in (1.0, 0.0, -2.0):
        cu, cv = EDGE_CENTRES[edge](c)
        img = disk(64, 64, cu, cv, 9.0) + gen.normal(0.0, 2.0, (64, 64))
        assert assert_same(img, PARAMS)


def test_peaks_on_the_image_edges_match_reference(block_shapes):
    """A bright square r + 1 pixels in from every side: its top and left
    edges vote into the image's first two rows and columns only, so peaks
    tie there and the first row and column win, with blocks clipped to two
    rows or two columns at every radius position of the sweep. Moved one
    pixel out, each side casts one line of its votes just off the image,
    which must count for nothing."""
    r = 7
    for inset in (r + 1, r):
        img = np.full((40, 40), 20.0)
        img[inset:-inset, inset:-inset] = 200.0
        for r_min, r_max in ((7, 7), (6, 7), (7, 8), (6, 8)):
            params = ChtParams(r_min=r_min, r_max=r_max, vote_frac=0.05,
                               edge_thresh=CHT.edge_thresh)
            assert assert_same(img, params)
    assert {(a, 2, 3) for a in (1, 2, 3)} <= block_shapes
    assert {(a, 3, 2) for a in (1, 2, 3)} <= block_shapes


@pytest.mark.parametrize("end", ["r_min", "r_max"])
def test_circles_at_the_sweep_ends_match_reference(end, block_shapes):
    r = getattr(PARAMS, end)
    gen = np.random.default_rng(8)
    for cu, cv in ((40.3, 38.6), (47.0, 41.5)):
        img = disk(96, 96, cu, cv, r) + gen.normal(0.0, 2.0, (96, 96))
        got = assert_same(img, PARAMS)
        assert got and abs(got[0].r - r) <= 1.0
    assert any(s[0] == 2 for s in block_shapes)


def test_one_radius_sweep_matches_reference(block_shapes):
    gen = np.random.default_rng(9)
    for r in (6, 10, 13):
        params = ChtParams(r_min=r, r_max=r, vote_frac=CHT.vote_frac,
                           edge_thresh=CHT.edge_thresh)
        img = disk(64, 64, 31.4, 33.2, r) + gen.normal(0.0, 2.0, (64, 64))
        assert assert_same(img, params)
    assert {s[0] for s in block_shapes} == {1}
