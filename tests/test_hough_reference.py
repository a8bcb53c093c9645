"""The sparse circle detector against the seed dense detector, bit for bit."""

import numpy as np
import pytest
from scipy import ndimage

import hough_reference
from vialbench.core import ChtConfig, Pose3, RngStream
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
