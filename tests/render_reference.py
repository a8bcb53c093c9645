"""The seed camera renderer and crop sampler, kept unchanged as the reference
for tests.

``vialbench.simworld.render_topdown`` must return exactly the bytes and the
effective camera pose this full-frame version returns and leave
``scene.rng`` in the same state, and
``vialbench.perception.pipeline.extract_crops`` must return, for each
candidate, exactly the crop this per-candidate ``extract_crop`` returns. The
renderer evaluates every plane coordinate, ring distance and rack mask on
the whole (H, W) grid; the sampler converts the image once per candidate.
"""

from __future__ import annotations

import numpy as np

from vialbench.core import Pose3
from vialbench.geometry import world_to_pixel
from vialbench.simworld import (_CAP_DOT, _CAP_GRAY, _GAP_DARK, _RACK_BODY,
                                _RIM_DARK, _RIM_HALF, _TABLE_BASE,
                                _VACANT_BRIGHT, SceneState, SimError)


def plane_grid(intrinsics, cam: Pose3, plane_z: float, width: int, height: int):
    """World (x, y) for every pixel center, as two contiguous (H, W) arrays."""
    u = np.arange(width, dtype=float)[None, :]
    v = np.arange(height, dtype=float)[:, None]
    a = (u - intrinsics.cx) / intrinsics.fx
    b = (v - intrinsics.cy) / intrinsics.fy
    depth = cam.z - plane_z
    if depth <= 0:
        raise ValueError("camera must be above the plane")
    x = np.broadcast_to(cam.x + a * depth, (height, width))
    y = np.broadcast_to(cam.y + b * depth, (height, width))
    return np.ascontiguousarray(x), np.ascontiguousarray(y)


def render_topdown(scene: SceneState, cam_pose: Pose3) -> tuple[np.ndarray, Pose3]:
    """Render the overhead camera view from the *requested* pose.

    The image is actually formed from the requested pose shifted by the trial's
    calibration bias (angular error scales with height) plus fresh per-shot
    jitter; controllers inverting pixels through the requested pose therefore
    inherit exactly that bias. Returns the uint8 image of the camera's size
    and the effective pose it was formed from.
    """
    cfg = scene.config
    cam = cfg.camera
    if cam_pose.z <= cfg.rack.height:
        raise SimError("camera must be above the rack plane")
    W, H = cam.width, cam.height
    intr = cam

    depth = cam_pose.z - cfg.rack.height
    shift = (scene.bias_xy + scene.bias_angle * depth
             + scene.rng.normal(0.0, cfg.noise.sigma_detect, 2))
    eff = Pose3(cam_pose.x + shift[0], cam_pose.y + shift[1], cam_pose.z)

    img = np.empty((H, W), dtype=float)

    # Table plane: gradient, two straight seams, ring-shaped clutter.
    tx, ty = plane_grid(intr, eff, 0.0, W, H)
    ws = cfg.workspace
    cx0 = (ws.x_min + ws.x_max) / 2.0
    cy0 = (ws.y_min + ws.y_max) / 2.0
    img[:] = _TABLE_BASE + 50.0 * (tx - cx0) + 35.0 * (ty - cy0)
    img[np.abs(ty - (cy0 - 0.11)) < 0.0012] = 130.0
    img[np.abs(tx - (cx0 + 0.13)) < 0.0012] = 135.0
    for dx, dy, dr, shade in scene.distractors:
        dd = np.hypot(tx - dx, ty - dy)
        img[np.abs(dd - dr) < _RIM_HALF] = shade

    # Rack plane: body mask plus per-slot detail.
    rx, ry = plane_grid(intr, eff, cfg.rack.height, W, H)
    c, s = np.cos(scene.rack_yaw), np.sin(scene.rack_yaw)
    dxr = rx - scene.rack_xy[0]
    dyr = ry - scene.rack_xy[1]
    lx = c * dxr + s * dyr
    ly = -s * dxr + c * dyr
    rack_mask = (np.abs(lx) <= cfg.rack.footprint_w / 2) & \
                (np.abs(ly) <= cfg.rack.footprint_h / 2)
    img[rack_mask] = _RACK_BODY

    centers = scene.slots
    occ = scene.occupancy.ravel()
    slot_r = cfg.rack.slot_radius
    box_m = slot_r + 0.003
    for idx in range(centers.shape[0]):
        sx, sy = centers[idx]
        try:
            u, v = world_to_pixel(sx, sy, intr, eff, cfg.rack.height)
        except ValueError:
            continue
        half = int(np.ceil(box_m * intr.fx / depth)) + 2
        u0, u1 = int(u) - half, int(u) + half + 1
        v0, v1 = int(v) - half, int(v) + half + 1
        u0, u1 = max(u0, 0), min(u1, W)
        v0, v1 = max(v0, 0), min(v1, H)
        if u0 >= u1 or v0 >= v1:
            continue
        d = np.hypot(rx[v0:v1, u0:u1] - sx, ry[v0:v1, u0:u1] - sy)
        patch = img[v0:v1, u0:u1]
        interior = d <= slot_r - _RIM_HALF
        if occ[idx]:
            patch[interior] = _GAP_DARK
            patch[d <= cfg.vial.radius] = _CAP_GRAY
            patch[d <= 0.002] = _CAP_DOT
        else:
            patch[interior] = _VACANT_BRIGHT
        patch[np.abs(d - slot_r) <= _RIM_HALF] = _RIM_DARK

    img += scene.rng.normal(0.0, cfg.noise.sigma_pixel, (H, W))
    return np.clip(img, 0.0, 255.0).astype(np.uint8), eff


def extract_crop(image: np.ndarray, u: float, v: float, r: float,
                 crop_size: int = 32, margin: float = 1.1) -> np.ndarray:
    """Bilinear crop of side 2*margin*r, resampled to crop_size and scaled to [0, 1].

    Samples outside the image replicate the border pixel.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D image, got shape {img.shape}")
    h, w = img.shape
    half = margin * r
    t = (np.arange(crop_size) + 0.5) / crop_size * 2.0 - 1.0
    uu, vv = np.meshgrid(u + t * half, v + t * half)
    u0 = np.floor(uu).astype(int)
    v0 = np.floor(vv).astype(int)
    du = (uu - u0).astype(np.float32)
    dv = (vv - v0).astype(np.float32)
    u0c = np.clip(u0, 0, w - 1)
    u1c = np.clip(u0 + 1, 0, w - 1)
    v0c = np.clip(v0, 0, h - 1)
    v1c = np.clip(v0 + 1, 0, h - 1)
    out = (img[v0c, u0c] * (1 - du) * (1 - dv)
           + img[v0c, u1c] * du * (1 - dv)
           + img[v1c, u0c] * (1 - du) * dv
           + img[v1c, u1c] * du * dv)
    return out / np.float32(255.0)
