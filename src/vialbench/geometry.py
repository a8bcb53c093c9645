"""Pinhole projection between image pixels and horizontal workspace planes."""

from __future__ import annotations

import numpy as np

from .core import CameraConfig, Pose3


def _depth(pose: Pose3, plane_z: float) -> float:
    depth = pose.z - plane_z
    if depth <= 0:
        raise ValueError(f"camera at z={pose.z} must be above the plane z={plane_z}")
    return depth


def pixel_to_world(u: float, v: float, camera: CameraConfig, pose: Pose3,
                   plane_z: float) -> tuple[float, float]:
    """Back-project pixel (u, v) onto the horizontal plane at ``plane_z``.

    Assumes a nadir (straight-down) camera model:

        x = pose.x + (u - cx) * (pose.z - plane_z) / fx
        y = pose.y + (v - cy) * (pose.z - plane_z) / fy

    Returns (x, y).
    """
    depth = _depth(pose, plane_z)
    return (pose.x + (u - camera.cx) * depth / camera.fx,
            pose.y + (v - camera.cy) * depth / camera.fy)


def world_to_pixel(x: np.ndarray, y: np.ndarray, camera: CameraConfig,
                   pose: Pose3, plane_z: float):
    """Project world points (arrays ``x``, ``y`` on the plane at ``plane_z``)
    into the nadir image: arrays (u, v), the exact inverse of pixel_to_world."""
    depth = _depth(pose, plane_z)
    u = camera.cx + camera.fx * (x - pose.x) / depth
    v = camera.cy + camera.fy * (y - pose.y) / depth
    return u, v


def plane_grid(camera: CameraConfig, pose: Pose3, plane_z: float):
    """World x of every pixel column and y of every pixel row, on the plane
    at ``plane_z``: the nadir model of pixel_to_world on the pixel grid.

    Returns ``(x, y)``, float arrays of ``camera.width`` and
    ``camera.height`` values; pixel (u, v) lies at ``(x[u], y[v])``.
    """
    depth = _depth(pose, plane_z)
    a = (np.arange(camera.width, dtype=float) - camera.cx) / camera.fx
    b = (np.arange(camera.height, dtype=float) - camera.cy) / camera.fy
    return pose.x + a * depth, pose.y + b * depth
