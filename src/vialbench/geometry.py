"""Pinhole projection between image pixels and horizontal workspace planes."""

from __future__ import annotations

import numpy as np

from .core import CameraIntrinsics, Pose3


def pixel_to_world(u, v, intrinsics: CameraIntrinsics, cam: Pose3, plane_z: float):
    """Back-project a pixel onto the horizontal plane at ``plane_z``.

    Assumes a nadir (straight-down) camera model:

        x = cam.x + (u - cx) * (cam.z - plane_z) / fx
        y = cam.y + (v - cy) * (cam.z - plane_z) / fy

    Returns (x, y, plane_z); accepts scalars or arrays for u, v.
    """
    depth = cam.z - plane_z
    if depth <= 0:
        raise ValueError(f"camera height {cam.z} must be above plane z={plane_z}")
    x = cam.x + (np.asarray(u, dtype=float) - intrinsics.cx) * depth / intrinsics.fx
    y = cam.y + (np.asarray(v, dtype=float) - intrinsics.cy) * depth / intrinsics.fy
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return float(x), float(y), float(plane_z)
    return x, y, np.full_like(x, float(plane_z))


def world_to_pixel(x, y, z, intrinsics: CameraIntrinsics, cam: Pose3):
    """Project world points into the nadir image; exact inverse of pixel_to_world."""
    dx = np.asarray(x, dtype=float) - cam.x
    dy = np.asarray(y, dtype=float) - cam.y
    depth = cam.z - np.asarray(z, dtype=float)
    if np.any(depth <= 0):
        raise ValueError("point at or behind the camera plane")
    u = intrinsics.cx + intrinsics.fx * dx / depth
    v = intrinsics.cy + intrinsics.fy * dy / depth
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(u), float(v)
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
