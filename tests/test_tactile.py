"""Tactile image pipeline: difference sums, contour tracing, calibration.

Most expected values are worked by hand; the contour and area cases use
small enough masks that the border sequence can be enumerated directly.
Frames are uint8 and references uint8 or int16, as the sensor gives them.
"""

import numpy as np
import pytest

from vialbench.core import TactileConfig, load_config
from vialbench.tactile import (CalibrationError, _difference_sum, _moore_trace,
                               apply_calibration, calibrate_mapping,
                               extract_contacts, find_contact, polygon_area,
                               track_deviation)


def frame(values):
    return np.asarray(values, dtype=np.uint8)


def flat(value, shape=(4, 4)):
    return np.full(shape, value, dtype=np.uint8)


def bare(threshold=0.35):
    """Every pixel counts: no noise floor, no area floor."""
    return TactileConfig(threshold=threshold, contact_floor=0.0, min_area=0.0)


# --- difference sum -------------------------------------------------------


def test_identical_frames_zero_delta():
    f = frame(np.random.default_rng(1).integers(0, 255, (8, 8)))
    assert np.all(_difference_sum(f, [f.copy(), f.copy()]) == 0)
    # a constant zero difference normalizes to 0.0 everywhere: nothing
    # reaches a positive threshold
    assert find_contact(f, [f.copy(), f.copy()], bare()) is None


def test_two_reference_mean():
    refs = [flat(10), flat(20)]
    # |30 - 10| + |30 - 20| = 30, a mean of 15 per reference
    assert np.all(_difference_sum(flat(30), refs) == 30)
    # the mean is exactly 15: a floor of 15 keeps the frame, the next float
    # above it rejects it
    whole = find_contact(flat(30), refs, TactileConfig(
        contact_floor=15.0, threshold=0.0, min_area=0.0))
    assert whole.area == 9.0  # the ring of the whole 4x4 frame
    assert find_contact(flat(30), refs, TactileConfig(
        contact_floor=float(np.nextafter(15.0, 16.0)), threshold=0.0,
        min_area=0.0)) is None


def test_single_reference_exact():
    ref = frame([[0, 50], [100, 200]])
    cur = frame([[10, 40], [150, 200]])
    assert _difference_sum(cur, [ref]).tolist() == [[10, 10], [50, 0]]


def test_delta_nonnegative():
    gen = np.random.default_rng(5)
    refs = [frame(gen.integers(0, 255, (16, 16))) for _ in range(3)]
    delta = _difference_sum(frame(gen.integers(0, 255, (16, 16))), refs)
    assert delta.dtype == np.int16
    assert delta.min() >= 0


def test_empty_reference_set_rejected():
    with pytest.raises(ValueError):
        find_contact(flat(0), [], bare())


def test_float_frame_rejected():
    """Frames hold bytes; a float frame or reference is refused."""
    with pytest.raises(TypeError):
        find_contact(np.full((4, 4), 30.0), [flat(10)], bare())
    with pytest.raises(TypeError):
        find_contact(flat(30), [np.full((4, 4), 10.0)], bare())


# --- normalize + threshold ------------------------------------------------


def _mean_row(values):
    """A one-row frame whose mean difference against a zero reference is
    ``values``."""
    return frame([values]), [frame([[0] * len(values)])]


def test_binarize_example():
    # means 0, 5, 10 normalize to 0, 0.5, 1: at 0.5 the last two pass, a
    # two-pixel region centred between them
    cur, refs = _mean_row([0, 5, 10])
    region = find_contact(cur, refs, bare(0.5))
    assert region.centroid == (1.5, 0.0)
    region = find_contact(cur, refs, bare(float(np.nextafter(0.5, 1.0))))
    assert region.centroid == (2.0, 0.0)


def test_constant_delta_binarizes_to_zero():
    assert find_contact(flat(7, (3, 3)), [flat(0, (3, 3))], bare()) is None


def test_threshold_zero_accepts_everything():
    cur = frame([[0, 1, 3], [1, 1, 1], [3, 1, 0]])
    region = find_contact(cur, [flat(0, (3, 3))], bare(0.0))
    # the whole 3x3 frame: its border ring encloses a 2x2 square
    assert region.area == 4.0
    assert region.centroid == (1.0, 1.0)


def test_normalized_range():
    gen = np.random.default_rng(2)
    cur = frame(gen.integers(0, 90, (32, 32)))
    cur[20, 7] = 90  # the one maximum
    refs = [flat(0, (32, 32))]
    # the minimum normalizes to 0.0: a zero threshold takes every pixel
    whole = find_contact(cur, refs, bare(0.0))
    assert whole.area == 31.0 * 31.0
    # the maximum normalizes to 1.0: a threshold of 1 takes it alone
    top = find_contact(cur, refs, bare(1.0))
    assert top.centroid == (7.0, 20.0)
    assert top.area == 0.0


# --- contour tracing and areas --------------------------------------------


def test_blank_image_no_contacts():
    assert extract_contacts(np.zeros((10, 10), dtype=int), 0.0) == []


def test_filled_block_border():
    img = np.zeros((7, 7), dtype=int)
    img[2:5, 2:5] = 1
    regions = extract_contacts(img, 0.0)
    assert len(regions) == 1
    rows, cols = _moore_trace(img.astype(bool), (2, 2))
    assert rows.dtype.kind == cols.dtype.kind == "i"
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (2, 2), (2, 3), (2, 4), (3, 4), (4, 4), (4, 3), (4, 2),
        (3, 2)]  # clockwise from the first pixel
    # border ring of a 3x3 block encloses a 2x2 square of pixel centers
    assert regions[0].area == 4.0
    assert regions[0].centroid == (3.0, 3.0)


def test_two_disjoint_blocks():
    img = np.zeros((12, 12), dtype=int)
    img[1:4, 1:4] = 1
    img[7:10, 6:9] = 1
    assert len(extract_contacts(img, 0.0)) == 2


def test_diagonal_pixels_are_one_component():
    img = np.zeros((5, 5), dtype=int)
    img[1, 1] = 1
    img[2, 2] = 1
    assert len(extract_contacts(img, 0.0)) == 1  # 8-connectivity


def area(vertices):
    """``polygon_area`` of a list of ``(row, col)`` vertices."""
    rows, cols = np.array(vertices, dtype=int).reshape(-1, 2).T
    return polygon_area(rows, cols)


def test_shoelace_unit_square():
    assert area([(0, 0), (0, 1), (1, 1), (1, 0)]) == 1.0


def test_shoelace_triangle():
    # base 4, height 3 -> area 6; border vertices are (row, col)
    assert area([(0, 0), (0, 4), (3, 0)]) == 6.0


def test_degenerate_polygons():
    assert area([(2, 3)]) == 0.0
    assert area([(2, 3), (5, 9)]) == 0.0


def test_shoelace_cyclic_and_translation_invariant():
    poly = [(0, 0), (0, 4), (2, 5), (3, 0)]
    base = area(poly)
    for k in range(1, len(poly)):
        rolled = poly[k:] + poly[:k]
        assert area(rolled) == base
    shifted = [(r + 11, c + 7) for r, c in poly]
    assert area(shifted) == base


def test_centroid_is_vertex_mean():
    img = np.zeros((9, 9), dtype=int)
    img[2:7, 3:6] = 1
    region = extract_contacts(img, 0.0)[0]
    rows, cols = _moore_trace(img.astype(bool), (2, 3))
    assert len(rows) == 12  # the block's 2 * (5 + 3) - 4 edge pixels
    assert region.centroid == (cols.astype(float).mean(),
                               rows.astype(float).mean())
    # the vertex mean of a triangle is not its area centroid
    tri = np.array([(0.0, 0.0), (0.0, 4.0), (3.0, 0.0)])
    assert tuple(tri.mean(axis=0)) == (1.0, 4.0 / 3.0)


def test_min_area_filters_speckles():
    gen = np.random.default_rng(9)
    img = (gen.random((20, 20)) > 0.93).astype(int)  # isolated specks
    assert extract_contacts(img, 25.0) == []


def test_centroid_inside_bounding_box():
    gen = np.random.default_rng(4)
    for _ in range(20):
        img = np.zeros((24, 24), dtype=int)
        r0, c0 = gen.integers(2, 10, 2)
        h, w = gen.integers(3, 10, 2)
        img[r0:r0 + h, c0:c0 + w] = 1
        regions = extract_contacts(img, 0.0)
        assert len(regions) == 1
        rows, cols = _moore_trace(img.astype(bool), (r0, c0))
        for region in regions:
            cx, cy = region.centroid
            assert cols.min() <= cx <= cols.max()
            assert rows.min() <= cy <= rows.max()


def test_regions_sorted_largest_first():
    img = np.zeros((20, 20), dtype=int)
    img[1:4, 1:4] = 1
    img[8:16, 8:16] = 1
    regions = extract_contacts(img, 0.0)
    assert regions[0].area > regions[1].area


def test_pipeline_deterministic():
    gen = np.random.default_rng(8)
    img = (gen.random((30, 30)) > 0.6).astype(int)
    a = extract_contacts(img, 4.0)
    b = extract_contacts(img, 4.0)
    assert a == b


# --- OLS calibration ------------------------------------------------------


def _normalized_grid():
    nx, ny = np.meshgrid(np.linspace(0.1, 0.9, 4), np.linspace(0.1, 0.9, 4))
    return np.stack([nx.ravel(), ny.ravel()], axis=1)


def test_identity_map_recovered():
    pts = _normalized_grid()
    cal = calibrate_mapping(pts * np.array([159.0, 159.0]), pts, 160, 160)
    assert np.allclose(cal.gain, np.eye(2), atol=1e-9)
    assert np.allclose(cal.bias, 0, atol=1e-9)
    assert cal.residual_rms <= 1e-9


def test_known_affine_recovered():
    A = np.array([[0.02, 0.0], [0.0, 0.018]])
    b = np.array([0.001, -0.002])
    pts = _normalized_grid()
    offsets = pts @ A.T + b
    cal = calibrate_mapping(pts * 159.0, offsets, 160, 160)
    assert np.allclose(cal.gain, A, atol=1e-6)
    assert np.allclose(cal.bias, b, atol=1e-6)
    assert cal.residual_rms <= 1e-6


def test_noise_shows_up_as_residual():
    sigma = 2.0e-4
    gen = np.random.default_rng(3)
    pts = gen.random((100, 2))
    offsets = pts @ np.array([[0.02, 0.0], [0.0, 0.018]]).T
    offsets = offsets + gen.normal(0.0, sigma, offsets.shape)
    cal = calibrate_mapping(pts * 159.0, offsets, 160, 160)
    assert 0.5 * sigma <= cal.residual_rms <= 2.0 * sigma


def test_collinear_samples_rejected():
    px = np.array([[10.0, 10.0], [50.0, 50.0], [90.0, 90.0]])
    offs = np.zeros((3, 2))
    with pytest.raises(CalibrationError):
        calibrate_mapping(px, offs, 160, 160)


def test_too_few_samples_rejected():
    with pytest.raises(CalibrationError):
        calibrate_mapping(np.array([[1.0, 2.0], [3.0, 4.0]]),
                          np.zeros((2, 2)), 160, 160)


def test_apply_calibration_normalizes_first():
    pts = _normalized_grid()
    cal = calibrate_mapping(pts * 159.0, pts * 0.01, 160, 160)
    out = apply_calibration(cal, (159.0, 0.0), 160, 160)
    assert out == pytest.approx([0.01, 0.0], abs=1e-9)


# --- full-frame pipeline and slip tracking --------------------------------

CFG = TactileConfig()


GEL = flat(90, (160, 160))


def _blob_frame(cx, cy, radius=16, size=(160, 160), level=235, base=90):
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.full(size, base, dtype=np.uint8)
    img[np.hypot(xx - cx, yy - cy) <= radius] = level
    return img


def _noisy(img, gen, sigma):
    """``img`` plus Gaussian noise, clipped and truncated to bytes as the
    sensor renders it."""
    return np.clip(img + gen.normal(0, sigma, img.shape), 0.0,
                   255.0).astype(np.uint8)


def test_find_contact_locates_blob():
    refs = [GEL] * 3
    region = find_contact(_blob_frame(60.0, 100.0), refs, CFG)
    assert region is not None
    assert region.centroid[0] == pytest.approx(60.0, abs=1.0)
    assert region.centroid[1] == pytest.approx(100.0, abs=1.0)


def test_find_contact_rejects_noise_only_frames():
    gen = np.random.default_rng(11)
    refs = [_noisy(GEL, gen, 2) for _ in range(4)]
    cur = _noisy(GEL, gen, 2)
    # raw differences stay far below the contact floor, so the normalize
    # step must not get the chance to amplify them into a phantom blob
    assert find_contact(cur, refs, CFG) is None


def _centroids(frames, refs, cfg=CFG):
    """Each finger's dominant contact centroid, a finger with none left
    out, as the trial loop hands them to ``track_deviation``."""
    regions = {f: find_contact(frames[f], refs[f], cfg) for f in frames}
    return {f: r.centroid for f, r in regions.items() if r is not None}


def test_track_neutral_continue():
    refs = {f: [GEL] for f in ("left", "right")}
    neutral = _centroids({f: _blob_frame(80.0, 80.0) for f in refs}, refs)
    assert set(neutral) == {"left", "right"}
    stop, travel = track_deviation(neutral, neutral, CFG)
    assert stop is False
    assert travel == pytest.approx(0.0, abs=1e-9)


def test_track_shift_past_threshold_stops():
    refs = {f: [GEL] for f in ("left", "right")}
    neutral = _centroids({f: _blob_frame(80.0, 80.0) for f in refs}, refs)
    shift = CFG.stop_px + 1.0
    moved = _centroids({f: _blob_frame(80.0 + shift, 80.0) for f in refs}, refs)
    stop, travel = track_deviation(moved, neutral, CFG)
    assert stop is True
    assert travel > CFG.stop_px


def test_track_lost_contact():
    refs = {f: [GEL] for f in ("left", "right")}
    gone = _centroids({f: GEL for f in refs}, refs)
    assert gone == {}
    stop, travel = track_deviation(gone, {"left": (0, 0), "right": (0, 0)}, CFG)
    assert stop is False
    assert travel is None


def test_track_skips_finger_without_grasp_centroid():
    # the right finger saw no contact at grasp time, so it has no baseline:
    # only the left finger's travel counts
    refs = {f: [GEL] for f in ("left", "right")}
    neutral = {"left": find_contact(_blob_frame(80.0, 80.0), refs["left"],
                                    CFG).centroid}
    shift = CFG.stop_px - 2.0
    moved = _centroids({"left": _blob_frame(80.0 + shift, 80.0),
                        "right": _blob_frame(40.0, 40.0)}, refs)
    assert "right" in moved
    stop, travel = track_deviation(moved, neutral, CFG)
    assert stop is False
    assert travel == pytest.approx(shift, abs=1.0)


def test_track_skips_finger_out_of_contact():
    # the left finger lost contact, so it is missing from the read: only
    # the right finger's travel counts
    neutral = {"left": (10.0, 10.0), "right": (20.0, 20.0)}
    assert track_deviation({"right": (23.0, 24.0)}, neutral,
                           CFG) == (False, 5.0)


def test_track_sub_threshold_shift_continues():
    refs = {f: [GEL] for f in ("left", "right")}
    neutral = _centroids({f: _blob_frame(80.0, 80.0) for f in refs}, refs)
    moved = _centroids({f: _blob_frame(80.0 + CFG.stop_px - 2.0, 80.0)
                        for f in refs}, refs)
    stop, travel = track_deviation(moved, neutral, CFG)
    assert stop is False and travel is not None


def test_default_noise_never_false_stops():
    """Sensor noise alone must not trip the slip monitor."""
    cfg = load_config()
    assert cfg.noise.sigma_pixel <= 3.0
    gen = np.random.default_rng(17)
    sigma = cfg.noise.sigma_pixel
    refs = {f: [_noisy(GEL, gen, sigma) for _ in range(cfg.tactile.n_reference)]
            for f in ("left", "right")}
    start = {f: _noisy(_blob_frame(80.0, 80.0), gen, sigma)
             for f in ("left", "right")}
    neutral = _centroids(start, refs, cfg.tactile)
    for _ in range(25):
        frames = {f: _noisy(_blob_frame(80.0, 80.0), gen, sigma)
                  for f in ("left", "right")}
        stop, travel = track_deviation(_centroids(frames, refs, cfg.tactile),
                                       neutral, cfg.tactile)
        assert stop is False and travel is not None
