"""Crop extraction, labeling, target selection, and dataset plumbing."""

import numpy as np
import pytest

from vialbench.core import RngStream, load_config
from vialbench.perception.hough import Candidate
from vialbench.perception.pipeline import (
    CROP_MARGIN,
    Label,
    NoValidSlotError,
    ScoredCandidate,
    accepted_rack_candidates,
    dump_dataset,
    extract_crops,
    generate_labeled_dataset,
    label_candidate,
    refined_camera_z,
    score_candidates,
    select_target,
)
from vialbench.pgm import read_pgm


# ---------------------------------------------------------------- crops


def test_crop_uniform_image():
    img = np.full((64, 64), 100.0)
    crops = extract_crops(img, [32.0, 10.0], [32.0, 50.0], [8.0, 5.0], 32)
    assert crops.shape == (2, 32, 32)
    assert crops.dtype == np.float32
    np.testing.assert_allclose(crops, 100.0 / 255.0, rtol=1e-6)

def test_crop_interior_bilinear_exact_on_ramp():
    # bilinear interpolation reproduces an affine image exactly, so each
    # resampled crop must equal the ramp evaluated at its sample points
    h = w = 96
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    img = 2.0 * xx + 3.0 * yy
    cs, margin = 32, CROP_MARGIN
    u, v, r = [48.0, 30.5], [40.0, 61.25], [10.0, 7.5]
    crops = extract_crops(img, u, v, r, cs)
    t = (np.arange(cs) + 0.5) / cs * 2.0 - 1.0
    for crop, cu, cv, cr in zip(crops, u, v, r):
        uu, vv = np.meshgrid(cu + t * margin * cr, cv + t * margin * cr)
        expected = (2.0 * uu + 3.0 * vv) / 255.0
        np.testing.assert_allclose(crop, expected, atol=1e-4)

def test_crop_replicates_border():
    img = np.full((32, 32), 50.0)
    img[0, 0] = 7.0
    img[31, 31] = 9.0
    crops = extract_crops(img, [-40.0, 80.0], [-40.0, 90.0], [3.0, 3.0], 32)
    np.testing.assert_allclose(crops[0], 7.0 / 255.0, rtol=1e-6)
    np.testing.assert_allclose(crops[1], 9.0 / 255.0, rtol=1e-6)

def test_crop_rejects_color_image():
    with pytest.raises(ValueError):
        extract_crops(np.zeros((16, 16, 3)), [8.0], [8.0], [4.0], 32)

def test_crop_rejects_ragged_candidates():
    with pytest.raises(ValueError):
        extract_crops(np.zeros((16, 16)), [8.0, 9.0], [8.0], [4.0, 4.0], 32)


# ---------------------------------------------------------------- labels


SLOT_U = np.array([100.0, 150.0])
SLOT_V = np.array([100.0, 100.0])
OCC = np.array([True, False])
PITCH_PX = 50.0

def test_label_occupied_slot():
    assert label_candidate(101.0, 99.0, SLOT_U, SLOT_V, OCC, PITCH_PX) \
        is Label.IN_RACK_OCCUPIED

def test_label_vacant_slot():
    assert label_candidate(148.0, 102.0, SLOT_U, SLOT_V, OCC, PITCH_PX) \
        is Label.IN_RACK_VACANT

def test_label_half_pitch_is_inclusive():
    # exactly half a pitch from the nearest center still counts as that slot
    assert label_candidate(125.0, 100.0, SLOT_U, SLOT_V, OCC, PITCH_PX) \
        is Label.IN_RACK_OCCUPIED
    assert label_candidate(125.1, 100.0, SLOT_U, SLOT_V, OCC, PITCH_PX) \
        is Label.IN_RACK_VACANT

def test_label_clutter_far_from_any_slot():
    assert label_candidate(300.0, 300.0, SLOT_U, SLOT_V, OCC, PITCH_PX) \
        is Label.NOT_IN_RACK


def test_refined_camera_z_halves_standoff(config):
    z = refined_camera_z(config)
    standoff = config.camera.z - config.rack.height
    assert z == pytest.approx(config.rack.height
                              + config.camera.refine_factor * standoff)
    assert config.rack.height < z < config.camera.z


# ---------------------------------------------------------------- selection


def sc(p_rack, p_occ, u=0.0, v=0.0):
    return ScoredCandidate(candidate=Candidate(u=u, v=v, r=8.0, votes=1.0),
                           p_rack=p_rack, p_occupied=p_occ)

GEN = np.random.default_rng(0)

def test_rack_gate_is_inclusive():
    scored = [sc(0.5, 0.1), sc(0.49, 0.1), sc(0.51, 0.1)]
    kept = accepted_rack_candidates(scored, theta_rack=0.5)
    assert [s.p_rack for s in kept] == [0.5, 0.51]

def test_select_most_confidently_vacant():
    scored = [sc(0.9, 0.40, u=1), sc(0.9, 0.05, u=2), sc(0.9, 0.20, u=3)]
    got = select_target(scored, 0.5, 0.5, 1e-6, GEN)
    assert got.candidate.u == 2

def test_select_skips_low_rack_confidence():
    scored = [sc(0.2, 0.0, u=1), sc(0.9, 0.3, u=2)]
    got = select_target(scored, 0.5, 0.5, 1e-6, GEN)
    assert got.candidate.u == 2

def test_select_occupancy_gate_inclusive():
    # p_occupied == theta_occ is still eligible
    got = select_target([sc(0.9, 0.5, u=4)], 0.5, 0.5, 1e-6, GEN)
    assert got.candidate.u == 4

def test_select_no_eligible_candidate_raises():
    scored = [sc(0.2, 0.1), sc(0.9, 0.9)]
    with pytest.raises(NoValidSlotError):
        select_target(scored, 0.5, 0.5, 1e-6, GEN)
    with pytest.raises(NoValidSlotError):
        select_target([], 0.5, 0.5, 1e-6, GEN)

def test_select_tie_is_seeded_and_balanced():
    scored = [sc(0.9, 0.1, u=1), sc(0.9, 0.1, u=2)]
    one = select_target(scored, 0.5, 0.5, 1e-6,
                        np.random.default_rng(7))
    two = select_target(scored, 0.5, 0.5, 1e-6,
                        np.random.default_rng(7))
    assert one.candidate.u == two.candidate.u
    picks = [select_target(scored, 0.5, 0.5, 1e-6,
                           np.random.default_rng(s)).candidate.u
             for s in range(200)]
    n_first = picks.count(1)
    assert 60 <= n_first <= 140, f"tie break badly skewed: {n_first}/200"

def test_select_nearest_center():
    scored = [sc(0.9, 0.01, u=10, v=10), sc(0.9, 0.45, u=99, v=101)]
    got = select_target(scored, 0.5, 0.5, 1e-6, GEN, ref_uv=(100.0, 100.0))
    assert got.candidate.u == 99


# ---------------------------------------------------------------- scoring


def test_score_candidates_empty():
    assert score_candidates(np.zeros((8, 8)), [], None, 32) == []

def test_score_candidates_shapes_and_range(config, weights):
    img = np.random.default_rng(3).uniform(0, 255, (128, 128))
    cands = [Candidate(u=40.0, v=40.0, r=9.0, votes=5.0),
             Candidate(u=80.0, v=70.0, r=9.0, votes=4.0)]
    scored = score_candidates(img, cands, weights, config.cnn.crop_size)
    assert len(scored) == 2
    for s, c in zip(scored, cands):
        assert s.candidate is c
        assert 0.0 <= s.p_rack <= 1.0
        assert 0.0 <= s.p_occupied <= 1.0
    again = score_candidates(img, cands, weights, config.cnn.crop_size)
    assert scored == again


# ---------------------------------------------------------------- dataset


def test_generate_labeled_dataset_small():
    config = load_config("", ["cnn.train_scenes = 8"])
    crops, labels = generate_labeled_dataset(config, RngStream(55))
    n = len(labels)
    assert n > 0
    assert crops.shape == (n, 1, config.cnn.crop_size, config.cnn.crop_size)
    assert crops.dtype == np.float32
    assert crops.min() >= 0.0 and crops.max() <= 1.0
    present = set(int(x) for x in labels)
    assert present == {0, 1, 2}, f"classes seen: {present}"

def test_generate_labeled_dataset_deterministic():
    four = load_config("", ["cnn.train_scenes = 4"])
    a = generate_labeled_dataset(four, RngStream(55))
    b = generate_labeled_dataset(four, RngStream(55))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])

def test_dump_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    crops = rng.uniform(0, 1, (3, 1, 8, 8)).astype(np.float32)
    labels = np.array([0, 2, 1], dtype=np.int64)
    index = dump_dataset(tmp_path / "ds", crops, labels)
    lines = index.read_text().splitlines()
    assert lines == ["crop_00000.pgm,0", "crop_00001.pgm,2", "crop_00002.pgm,1"]
    for i, crop in enumerate(crops):
        img = read_pgm(tmp_path / "ds" / f"crop_{i:05d}.pgm")
        expected = np.clip(np.rint(crop[0] * 255.0), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(img, expected)
