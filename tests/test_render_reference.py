"""The boxed renderer and the batched crop sampler against the seed
full-frame versions, byte for byte."""

import numpy as np
import pytest

import render_reference
from vialbench.core import Pose3, RngStream, load_config
from vialbench.geometry import world_to_pixel
from vialbench.perception.hough import cht_params_for, detect_circles
from vialbench.perception.pipeline import extract_crops, refined_camera_z
from vialbench.simworld import _slot_centers, render_topdown, reset_trial


def _pose(config, scene, close_up: bool, k: int) -> Pose3:
    if not close_up:
        return config.camera.pose()
    centers = scene.slots
    x, y = centers[k % len(centers)]
    return Pose3(float(x), float(y), refined_camera_z(config))


def _render_both(config, seed: int, k: int, pose_of, edit=None):
    """Render trial ``k`` of ``seed`` with both renderers from identical
    scenes; require equal bytes, equal camera and equal RNG state after.
    Returns the image, the effective camera pose and the scene."""
    scenes = [reset_trial(config, RngStream(seed).child(k)) for _ in range(2)]
    for scene in scenes:
        if edit is not None:
            edit(scene)
    scene = scenes[0]
    got, eff = render_topdown(scene, pose_of(scene))
    want, want_eff = render_reference.render_topdown(scenes[1], pose_of(scenes[1]))
    assert got.dtype == want.dtype == np.uint8
    assert got.tobytes() == want.tobytes()
    assert eff == want_eff
    assert scene.rng.bit_generator.state == scenes[1].rng.bit_generator.state
    assert scene.rng.random() == scenes[1].rng.random()
    return got, eff, scene


def _clipped(lo_u, hi_u, lo_v, hi_v, width, height) -> bool:
    """A pixel box that reaches into the frame but past one of its edges."""
    inside = 0 <= lo_u and hi_u <= width - 1 and 0 <= lo_v and hi_v <= height - 1
    overlaps = hi_u >= 0 and lo_u <= width - 1 and hi_v >= 0 and lo_v <= height - 1
    return overlaps and not inside


def _edges_clipped(scene, eff: Pose3) -> tuple[bool, bool]:
    """Whether a distractor ring, and whether the rack, is cut by the frame
    of an image formed from ``eff``."""
    cfg = scene.config
    cam = cfg.camera
    ring = False
    for dx, dy, dr, _ in scene.distractors:
        u, v = world_to_pixel(dx, dy, cam, eff, 0.0)
        r = dr * cam.fx / eff.z
        ring |= _clipped(u - r, u + r, v - r, v + r, cam.width, cam.height)
    half = np.array([cfg.rack.footprint_w, cfg.rack.footprint_h]) / 2.0
    c, s = np.cos(scene.rack_yaw), np.sin(scene.rack_yaw)
    corners = np.array([[sx * half[0], sy * half[1]]
                        for sx in (-1, 1) for sy in (-1, 1)])
    world = scene.rack_xy + corners @ np.array([[c, s], [-s, c]])
    u, v = world_to_pixel(world[:, 0], world[:, 1], cam, eff, cfg.rack.height)
    rack = _clipped(u.min(), u.max(), v.min(), v.max(), cam.width, cam.height)
    return ring, rack


@pytest.mark.parametrize("close_up", [False, True], ids=["overview", "close-up"])
@pytest.mark.parametrize("seed", [42, 977])
def test_rendered_scenes_match_reference(seed, close_up):
    config = load_config("", [f"seed = {seed}"])
    rings = racks = 0
    for k in range(40):
        _, eff, scene = _render_both(config, seed, k,
                                     lambda s, k=k: _pose(config, s, close_up, k))
        ring, rack = _edges_clipped(scene, eff)
        rings += ring
        racks += rack
    # The overview holds every ring and the whole rack; close up, the frame
    # edge cuts both, which tries the clipping of their boxes. The edge
    # tests below put overview rings and racks on the edge on purpose.
    assert (rings > 0 and racks > 0) == close_up


def _move_first_ring(u: float, v: float):
    """Scene edit: centre the first distractor ring on pixel (u, v) of the
    nominal overview camera."""
    def edit(scene):
        cam = scene.config.camera
        x = cam.pose().x + (u - cam.cx) * cam.z / cam.fx
        y = cam.pose().y + (v - cam.cy) * cam.z / cam.fy
        _, _, radius, shade = scene.distractors[0]
        scene.distractors[0] = (x, y, radius, shade)
    return edit


@pytest.mark.parametrize("u, v", [(0.0, 190.0), (-12.0, 0.0), (511.5, 383.0),
                                  (250.0, 400.0), (-400.0, -400.0)],
                         ids=["left", "corner", "far-corner", "below",
                              "off-frame"])
def test_ring_on_the_frame_edge_matches_reference(config, u, v):
    _render_both(config, 42, 3, lambda s: config.camera.pose(),
                 _move_first_ring(u, v))


@pytest.mark.parametrize("dx, dy", [(0.0, 0.0), (0.2, 0.0), (0.0, -0.16),
                                    (0.5, 0.5)],
                         ids=["centred", "right-edge", "top-edge", "off-frame"])
def test_rack_on_the_frame_edge_matches_reference(config, dx, dy):
    def pose_of(scene):
        return Pose3(float(scene.rack_xy[0]) + dx, float(scene.rack_xy[1]) + dy,
                     config.camera.z)
    _render_both(config, 977, 5, pose_of)


@pytest.mark.parametrize("turn", ["diagonal", "quarter", "negative"])
def test_turned_rack_matches_reference(config, turn):
    # with the footprint's diagonal along x, the rack spans its whole
    # half-diagonal box, which is what its drawing box must allow for
    rack = config.rack
    yaw = {"diagonal": np.arctan2(rack.footprint_h, rack.footprint_w),
           "quarter": np.pi / 2,
           "negative": -np.arctan2(rack.footprint_w, rack.footprint_h)}[turn]

    def edit(scene):
        scene.rack_yaw = float(yaw)
        scene.slots = _slot_centers(rack, scene.rack_xy, scene.rack_yaw)
    _render_both(config, 42, 1, lambda s: config.camera.pose(), edit)


@pytest.mark.parametrize("close_up", [False, True], ids=["overview", "close-up"])
def test_slot_narrower_than_its_cap_dot_matches_reference(close_up):
    # A 1 mm slot: the 2 mm cap dot reaches past the rim, so the dot, not
    # the rim, bounds what an occupied slot draws.
    config = load_config("", ["rack.slot_radius = 0.001", "vial.radius = 0.0005",
                              "cht.r_hi_factor = 3"])
    for k in range(4):
        _render_both(config, 42, k, lambda s, k=k: _pose(config, s, close_up, k))


def _assert_crops_match(image, u, v, r, crop_size=32):
    got = extract_crops(image, u, v, r, crop_size)
    assert got.shape == (len(u), crop_size, crop_size)
    for k in range(len(u)):
        want = render_reference.extract_crop(image, float(u[k]), float(v[k]),
                                             float(r[k]), crop_size)
        assert got[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [42, 977])
def test_crops_of_detected_circles_match_reference(seed):
    config = load_config("", [f"seed = {seed}"])
    for k, close_up in ((0, False), (1, True), (2, False), (3, True)):
        pose_of = (lambda s, k=k, c=close_up: _pose(config, s, c, k))
        image, eff, _ = _render_both(config, seed, k, pose_of)
        cands = detect_circles(image, cht_params_for(config, eff.z))
        assert cands
        _assert_crops_match(image, [c.u for c in cands], [c.v for c in cands],
                            [c.r for c in cands], config.cnn.crop_size)


def test_crops_at_the_border_match_reference(config):
    image, _, _ = _render_both(config, 42, 0, lambda s: config.camera.pose())
    h, w = image.shape
    gen = np.random.default_rng(7)
    n = 200
    r = gen.uniform(2.0, 30.0, n)
    # centres within 2r of one of the four edges, on either side of it
    side = gen.integers(4, size=n)
    off = gen.uniform(-2.0, 2.0, n) * r
    u = np.select([side == 0, side == 1], [off, w - 1.0 + off],
                  gen.uniform(-2.0 * r, w - 1.0 + 2.0 * r))
    v = np.select([side == 2, side == 3], [off, h - 1.0 + off],
                  gen.uniform(-2.0 * r, h - 1.0 + 2.0 * r))
    near = (u < r) | (v < r) | (u > w - 1 - r) | (v > h - 1 - r)
    assert near.sum() > n // 2
    _assert_crops_match(image, u, v, r)
    _assert_crops_match(image.astype(float) * 0.37, u, v, r, crop_size=9)


def test_no_candidates_give_no_crops():
    crops = extract_crops(np.zeros((8, 8), np.uint8), [], [], [], 5)
    assert crops.shape == (0, 5, 5) and crops.dtype == np.float32
