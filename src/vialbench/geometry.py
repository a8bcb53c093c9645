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
    """World x of every pixel column and y of every pixel row, on the plane
    at ``plane_z``: the nadir model of pixel_to_world on the pixel grid.

    Returns ``(x, y)``, float arrays of ``width`` and ``height`` values;
    pixel (u, v) lies at ``(x[u], y[v])``.
    """
    depth = cam.z - plane_z
    if depth <= 0:
        raise ValueError("camera must be above the plane")
    a = (np.arange(width, dtype=float) - intrinsics.cx) / intrinsics.fx
    b = (np.arange(height, dtype=float) - intrinsics.cy) / intrinsics.fy
    return cam.x + a * depth, cam.y + b * depth
