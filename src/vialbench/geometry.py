"""Pinhole projection between image pixels and horizontal workspace planes."""

from __future__ import annotations

import numpy as np

from .core import CameraIntrinsics, Pose3


def pixel_to_world(u: float, v: float, intrinsics: CameraIntrinsics, cam: Pose3,
                   plane_z: float) -> tuple[float, float]:
    """Back-project pixel (u, v) onto the horizontal plane at ``plane_z``.

    Assumes a nadir (straight-down) camera model:

        x = cam.x + (u - cx) * (cam.z - plane_z) / fx
        y = cam.y + (v - cy) * (cam.z - plane_z) / fy

    Returns (x, y).
    """
    depth = cam.z - plane_z
    if depth <= 0:
        raise ValueError(f"camera height {cam.z} must be above plane z={plane_z}")
    return (cam.x + (u - intrinsics.cx) * depth / intrinsics.fx,
            cam.y + (v - intrinsics.cy) * depth / intrinsics.fy)


def world_to_pixel(x: np.ndarray, y: np.ndarray, z: float,
                   intrinsics: CameraIntrinsics, cam: Pose3):
    """Project world points (arrays ``x``, ``y`` on the plane at ``z``) into
    the nadir image; exact inverse of pixel_to_world. Returns arrays (u, v)."""
    depth = cam.z - z
    if depth <= 0:
        raise ValueError("point at or behind the camera plane")
    u = intrinsics.cx + intrinsics.fx * (x - cam.x) / depth
    v = intrinsics.cy + intrinsics.fy * (y - cam.y) / depth
    return u, v


def plane_grid(intrinsics: CameraIntrinsics, cam: Pose3, plane_z: float,
               width: int, height: int):
    """World (x, y) for every pixel center, on the plane at ``plane_z``.

    Returns two (height, width) float arrays, the nadir model of
    pixel_to_world evaluated on the whole pixel grid. They are read-only
    broadcast views: x varies only along a row and y only down a column,
    so ``x[0]`` and ``y[:, 0]`` hold every value.
    """
    u = np.arange(width, dtype=float)[None, :]
    v = np.arange(height, dtype=float)[:, None]
    a = (u - intrinsics.cx) / intrinsics.fx
    b = (v - intrinsics.cy) / intrinsics.fy
    depth = cam.z - plane_z
    if depth <= 0:
        raise ValueError("camera must be above the plane")
    return (np.broadcast_to(cam.x + a * depth, (height, width)),
            np.broadcast_to(cam.y + b * depth, (height, width)))
