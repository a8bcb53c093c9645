"""Pinhole projection between pixels and workspace planes.

The worked numbers here are hand-derived from the projection model:
x = cam_x + (u - cx) * depth / fx with depth = cam_z - plane_z.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vialbench.core import CameraConfig, Pose3
from vialbench.geometry import pixel_to_world, plane_grid, world_to_pixel

CAMERA = CameraConfig(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640,
                      height=480)
POSE = Pose3(0.0, 0.0, 0.8)


def test_principal_point_maps_to_camera_axis():
    assert pixel_to_world(320.0, 240.0, CAMERA, POSE, 0.05) == (0.0, 0.0)


def test_u_offset_example():
    # (380 - 320) * (0.8 - 0.05) / 600 = 0.075
    x, _ = pixel_to_world(380.0, 240.0, CAMERA, POSE, 0.05)
    assert x == pytest.approx(0.075, abs=1e-15)


def test_v_offset_example():
    # (360 - 240) * 0.75 / 600 = 0.15
    _, y = pixel_to_world(320.0, 360.0, CAMERA, POSE, 0.05)
    assert y == pytest.approx(0.15, abs=1e-15)


def _between(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


# A camera 0.3-2 m up and a plane 0.05 m or more below it, at a height
# drawn as a fraction of the room between the table and that limit.
_poses = st.builds(Pose3, _between(-1.0, 1.0), _between(-1.0, 1.0),
                   _between(0.3, 2.0))
_plane_frac = _between(0.0, 1.0)


def _plane_z(cam: Pose3, frac: float) -> float:
    return frac * (cam.z - 0.05)


@settings(max_examples=300, deadline=None)
@given(cam=_poses, frac=_plane_frac, u=_between(0.0, 640.0),
       v=_between(0.0, 480.0))
def test_round_trip_random_poses(cam, frac, u, v):
    plane = _plane_z(cam, frac)
    x, y = pixel_to_world(u, v, CAMERA, cam, plane)
    uu, vv = world_to_pixel(np.array(x), np.array(y), CAMERA, cam, plane)
    # compare in meters on the plane
    assert abs(uu - u) * (cam.z - plane) / CAMERA.fx <= 1e-9
    assert abs(vv - v) * (cam.z - plane) / CAMERA.fy <= 1e-9


def test_camera_below_plane_rejected():
    with pytest.raises(ValueError):
        pixel_to_world(0, 0, CAMERA, Pose3(0, 0, 0.1), 0.2)
    with pytest.raises(ValueError):
        world_to_pixel(np.zeros(1), np.zeros(1), CAMERA, Pose3(0, 0, 0.1), 0.5)


def test_array_inputs():
    x = np.array([0.0, 0.075])
    y = np.array([0.0, 0.15])
    u, v = world_to_pixel(x, y, CAMERA, POSE, 0.05)
    assert u.shape == v.shape == (2,)
    np.testing.assert_allclose(u, [320.0, 380.0])
    np.testing.assert_allclose(v, [240.0, 360.0])


def test_plane_grid_matches_pointwise():
    gx, gy = plane_grid(replace(CAMERA, width=8, height=6), POSE, 0.05)
    assert gx.shape == (8,) and gy.shape == (6,)
    x, y = pixel_to_world(3.0, 4.0, CAMERA, POSE, 0.05)
    assert gx[3] == pytest.approx(x)
    assert gy[4] == pytest.approx(y)


@settings(max_examples=100, deadline=None)
@given(cam=_poses, frac=_plane_frac, width=st.integers(1, 12),
       height=st.integers(1, 12))
def test_plane_grid_matches_pixel_to_world_everywhere(cam, frac, width,
                                                      height):
    plane = _plane_z(cam, frac)
    gx, gy = plane_grid(replace(CAMERA, width=width, height=height), cam,
                        plane)
    xy = np.array([[pixel_to_world(float(u), float(v), CAMERA, cam, plane)
                     for u in range(width)] for v in range(height)])
    assert gx.shape == (width,) and gy.shape == (height,)
    # same model, different rounding order: (u - cx) / fx * depth
    np.testing.assert_allclose(np.broadcast_to(gx, (height, width)),
                               xy[..., 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.broadcast_to(gy[:, None], (height, width)),
                               xy[..., 1], rtol=0, atol=1e-12)
