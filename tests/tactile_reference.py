"""The seed tactile pipeline, kept unchanged as the reference for tests.

``vialbench.tactile.find_contact`` must return exactly what this
``find_contact`` returns, the difference sum over ``n`` what
``difference_image`` returns, and ``vialbench.simworld.sample_tactile``
must render the same bytes from the same RNG state. These copies cast every
reference frame to float on every call, threshold the full normalized
image, label and trace the whole frame with a bounds-checked tuple walk,
take the shoelace area with ``np.roll`` and compute the contact blob over
the whole frame.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from vialbench.core import TactileConfig
from vialbench.simworld import SceneState, SimError, _blob_pixel
from vialbench.tactile import FINGERS, ContactRegion

# Moore neighborhood, clockwise from west, as (row, col) steps.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1),
          (0, 1), (1, 1), (1, 0), (1, -1))

_GEL_BASE = 26.0
_GEL_RING = 14.0
_BLOB_BRIGHT = 205.0


def _gel_pattern(width: int, height: int) -> np.ndarray:
    """Fixed resting texture of the gel surface (a soft vignette)."""
    u = (np.arange(width) - (width - 1) / 2.0) / width
    v = (np.arange(height) - (height - 1) / 2.0) / height
    r2 = u[None, :] ** 2 + v[:, None] ** 2
    return _GEL_BASE + _GEL_RING * np.exp(-r2 / 0.18)


def difference_image(frame: np.ndarray, references: list[np.ndarray]) -> np.ndarray:
    """Mean absolute difference of ``frame`` against the reference set."""
    if not references:
        raise ValueError("need at least one reference frame")
    f = np.asarray(frame, dtype=float)
    acc = np.zeros_like(f)
    for ref in references:
        acc += np.abs(f - np.asarray(ref, dtype=float))
    return acc / len(references)


def normalize(delta: np.ndarray) -> np.ndarray:
    lo = float(delta.min())
    hi = float(delta.max())
    if hi == lo:
        return np.zeros_like(delta, dtype=float)
    return (delta - lo) / (hi - lo)


def binarize(norm: np.ndarray, threshold: float) -> np.ndarray:
    return norm >= threshold


def _moore_trace(mask: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Clockwise outer-border trace from ``start`` (the first filled pixel in
    row-major order, so its west neighbor is guaranteed empty)."""
    h, w = mask.shape

    def filled(p):
        return 0 <= p[0] < h and 0 <= p[1] < w and mask[p[0], p[1]]

    border = [start]
    cur = start
    backtrack = (start[0], start[1] - 1)
    limit = 4 * int(mask.sum()) + 8
    for _ in range(limit):
        rel = (backtrack[0] - cur[0], backtrack[1] - cur[1])
        i0 = _MOORE.index(rel)
        nxt = None
        for k in range(1, 9):
            j = (i0 + k) % 8
            cand = (cur[0] + _MOORE[j][0], cur[1] + _MOORE[j][1])
            if filled(cand):
                nxt = cand
                backtrack = (cur[0] + _MOORE[(i0 + k - 1) % 8][0],
                             cur[1] + _MOORE[(i0 + k - 1) % 8][1])
                break
        if nxt is None:
            return border  # isolated pixel
        if nxt == start:
            return border
        border.append(nxt)
        cur = nxt
    raise RuntimeError("border trace failed to close")


def polygon_area(border) -> float:
    """Shoelace area of a traced border (vertices at pixel centers)."""
    if len(border) < 3:
        return 0.0
    pts = np.asarray(border, dtype=float)
    y = pts[:, 0]
    x = pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def extract_contacts(binary: np.ndarray, min_area: float) -> list[ContactRegion]:
    """Trace every 8-connected region and keep the ones of usable size.

    Returns regions sorted largest first.
    """
    labeled, count = ndimage.label(binary, structure=np.ones((3, 3), dtype=int))
    regions = []
    w = binary.shape[1]
    for lbl in range(1, count + 1):
        mask = labeled == lbl
        flat = int(np.argmax(mask))
        border = _moore_trace(mask, (flat // w, flat % w))
        area = polygon_area(border)
        if area < min_area:
            continue
        pts = np.asarray(border, dtype=float)
        regions.append(ContactRegion(
            centroid=(float(pts[:, 1].mean()), float(pts[:, 0].mean())),
            area=area,
        ))
    regions.sort(key=lambda reg: (-reg.area, reg.centroid))
    return regions


def find_contact(frame: np.ndarray, references: list[np.ndarray],
                 config: TactileConfig) -> ContactRegion | None:
    """Full pipeline for one frame; the dominant contact patch or None.

    The normalization step stretches pure sensor noise across the full range,
    so frames whose raw difference never exceeds ``contact_floor`` are
    rejected before thresholding instead of being amplified into phantom
    contacts.
    """
    delta = difference_image(frame, references)
    if float(delta.max()) < config.contact_floor:
        return None
    regions = extract_contacts(binarize(normalize(delta), config.threshold),
                               config.min_area)
    return regions[0] if regions else None


def sample_tactile(scene: SceneState, finger: str,
                   open_gripper: bool = False) -> np.ndarray:
    """One tactile frame for ``finger`` ("left" or "right").

    A held vial appears as a bright filled disk positioned by the finger's
    true (perturbed) mount map applied to the in-gripper offset; an empty
    gripper yields only the resting gel pattern plus noise.
    ``open_gripper=True`` renders a no-contact frame even with a vial held,
    which is how the pre-campaign reference set is captured.
    """
    cfg = scene.config
    if not scene.rig.has_tactile:
        raise SimError("fingertips have no tactile sensors in this rig")
    if finger not in FINGERS:
        raise ValueError(f"finger must be one of {FINGERS}, got {finger!r}")
    W, H = cfg.tactile.width, cfg.tactile.height
    img = _gel_pattern(W, H).copy()
    if scene.held_offset is not None and not open_gripper:
        center = _blob_pixel(scene.rig, finger, scene.held_offset, W, H)
        px_per_m = (W - 1.0) / cfg.tactile.span
        r_px = cfg.tactile.blob_diameter / 2.0 * px_per_m
        uu = np.arange(W)[None, :] - center[0]
        vv = np.arange(H)[:, None] - center[1]
        d = np.hypot(uu, vv)
        cover = np.clip((r_px - d + 1.0) / 2.0, 0.0, 1.0)
        img = img + (_BLOB_BRIGHT - img) * cover
    img += scene.rng.normal(0.0, cfg.noise.sigma_pixel, (H, W))
    return np.clip(img, 0.0, 255.0).astype(np.uint8)

