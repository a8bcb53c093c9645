"""The seed circle detector, kept unchanged as the reference for tests.

``vialbench.perception.hough.detect_circles`` must return exactly what this
dense version returns: the same candidates, field for field, in the same
order. It runs a full ``uniform_filter`` and ``maximum_filter`` over every
radius slice and is several times slower.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from vialbench.perception.hough import Candidate, ChtParams


def detect_circles(image: np.ndarray, params: ChtParams) -> list[Candidate]:
    """Detect circles by voting along gradient directions.

    Sobel gradients above ``edge_thresh`` vote for centers at +-r along the
    local gradient for every radius in the sweep; each radius slice is
    box-accumulated, thresholded at ``vote_frac * 2*pi*r``, peak-picked, and
    the surviving peaks are merged across radii by greedy non-maximum
    suppression. Candidates come back sorted by vote count, strongest first.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D grayscale image, got shape {img.shape}")
    h, w = img.shape
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    mag = np.hypot(gx, gy)
    edge = mag >= params.edge_thresh
    if not edge.any():
        return []
    ey, ex = np.nonzero(edge)
    ux = gx[ey, ex] / mag[ey, ex]
    uy = gy[ey, ex] / mag[ey, ex]

    radii = np.arange(params.r_min, params.r_max + 1)
    peaks: list[tuple[float, float, float, float]] = []  # votes, u, v, r
    slices = np.zeros((len(radii), h, w))
    for i, r in enumerate(radii):
        acc = np.zeros((h, w))
        for sign in (1.0, -1.0):
            cu = np.rint(ex + sign * r * ux).astype(int)
            cv = np.rint(ey + sign * r * uy).astype(int)
            ok = (cu >= 0) & (cu < w) & (cv >= 0) & (cv < h)
            np.add.at(acc, (cv[ok], cu[ok]), 1.0)
        # 3x3 box sum concentrates votes smeared by pixel quantization.
        slices[i] = ndimage.uniform_filter(acc, size=3, mode="constant") * 9.0

    for i, r in enumerate(radii):
        votes = slices[i]
        thresh = params.vote_frac * 2.0 * np.pi * r
        local_max = votes == ndimage.maximum_filter(votes, size=3, mode="constant")
        vy, vx = np.nonzero(local_max & (votes >= thresh))
        for v, u in zip(vy, vx):
            peaks.append((float(votes[v, u]), float(u), float(v), float(r)))

    if not peaks:
        return []
    # Strongest-first greedy merge across radii.
    peaks.sort(key=lambda p: (-p[0], p[1], p[2], p[3]))
    nms = float(params.r_min)
    kept: list[tuple[float, float, float, float]] = []
    for votes, u, v, r in peaks:
        if any((u - ku) ** 2 + (v - kv) ** 2 < nms ** 2 for _, ku, kv, _ in kept):
            continue
        kept.append((votes, u, v, r))

    out = []
    for votes, u, v, r in kept:
        ru, rv, rr = _refine(slices, radii, u, v, r)
        out.append(Candidate(u=ru, v=rv, r=rr, votes=votes))
    return out


def _refine(slices: np.ndarray, radii: np.ndarray, u: float, v: float, r: float):
    """Sub-pixel center and radius by center-of-mass over the peak's 3x3x3."""
    i = int(np.searchsorted(radii, r))
    ui, vi = int(u), int(v)
    i0, i1 = max(i - 1, 0), min(i + 2, len(radii))
    u0, u1 = max(ui - 1, 0), min(ui + 2, slices.shape[2])
    v0, v1 = max(vi - 1, 0), min(vi + 2, slices.shape[1])
    block = slices[i0:i1, v0:v1, u0:u1]
    total = block.sum()
    if total <= 0:
        return u, v, r
    ri, yi, xi = np.meshgrid(radii[i0:i1], np.arange(v0, v1), np.arange(u0, u1),
                             indexing="ij")
    return (float((xi * block).sum() / total),
            float((yi * block).sum() / total),
            float((ri * block).sum() / total))
