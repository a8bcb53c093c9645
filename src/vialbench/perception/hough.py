"""Gradient-voting circular Hough transform for rack slot candidates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..core import WorkspaceConfig, hough_radii


@dataclass(frozen=True)
class Candidate:
    """A circle hypothesis in pixel coordinates (center, radius, vote score)."""

    u: float
    v: float
    r: float
    votes: float


@dataclass(frozen=True)
class ChtParams:
    """Detector tuning: radius sweep, edge gate, and vote acceptance.

    ``vote_frac`` is a fraction of the theoretical full-circle vote count
    (2*pi*r); it is kept deliberately low so partial or slightly elliptical
    rims still fire, at the cost of clutter candidates that the downstream
    classifier must reject. Non-maximum suppression drops a peak within
    ``r_min`` pixels of a stronger one.
    """

    r_min: int
    r_max: int
    vote_frac: float
    edge_thresh: float

    def __post_init__(self):
        if not (1 <= self.r_min <= self.r_max):
            raise ValueError(f"bad radius range [{self.r_min}, {self.r_max}]")


def cht_params_for(config: WorkspaceConfig, cam_z: float) -> ChtParams:
    """Radius sweep bracketing the slot radius as seen from ``cam_z``."""
    r_min, r_max = hough_radii(config, cam_z)
    return ChtParams(r_min=r_min, r_max=r_max, vote_frac=config.cht.vote_frac,
                     edge_thresh=config.cht.edge_thresh)


# The 8 neighbours of a cell in the local-maximum test.
_NEIGHBOURS = [(dv, du) for dv in (-1, 0, 1) for du in (-1, 0, 1) if dv or du]


def detect_circles(image: np.ndarray, params: ChtParams) -> list[Candidate]:
    """Detect circles by voting along gradient directions.

    Sobel gradients above ``edge_thresh`` vote for centers at +-r along the
    local gradient for every radius in the sweep; each radius slice is
    box-accumulated over 3x3, thresholded at ``vote_frac * 2*pi*r``,
    peak-picked against its 8 neighbours, and the surviving peaks are merged
    across radii by greedy non-maximum suppression. Candidates come back
    sorted by vote count, strongest first.

    The vote scores are floats: ``ndimage.uniform_filter(acc, size=(1, 3, 3),
    mode="constant") * 9.0`` of the integer vote counts ``acc``. scipy's
    filter is a running sum, so most of these floats drift from the exact
    integer box sums by up to ~1e-14, and the drift reaches ``votes``, tie
    order and ``_refine``. The dense work is therefore done on exact
    integers only: the vote counts and their 3x3 box sums, which find every
    cell that can pass the threshold. The floats are made, bit for bit as
    the filter makes them, only on the (radius, row) lines around those
    cells; see ``_box_lines``.

    The radii stream through a two-slice window. Each slice's votes are
    counted in place (``np.add.at``) into one reused integer array, and
    only the slice's vertical 3-sums and the rows of its above-threshold
    cells outlive it. The lines of slice i are the 3x3 dilation of those
    rows over (radius, row), so they are known, and made from the kept
    vertical sums, as soon as slice i + 1 is thresholded. The integer
    scratch is a few slices of the image's size whatever the sweep's
    length. The float lines are written in (radius, row) order into one
    buffer with room for every line, of which only the built rows are
    touched.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D grayscale image, got shape {img.shape}")
    h, w = img.shape
    gx, gy = _sobel(img)
    # hypot only where the squared magnitude can reach the threshold
    ey, ex = np.nonzero(gx * gx + gy * gy >= (params.edge_thresh * (1.0 - 1e-9)) ** 2)
    gx = gx[ey, ex].astype(float, copy=False)
    gy = gy[ey, ex].astype(float, copy=False)
    mag = np.hypot(gx, gy)
    edge = mag >= params.edge_thresh
    if not edge.any():
        return []
    ey, ex, mag = ey[edge], ex[edge], mag[edge]
    ux = gx[edge] / mag
    uy = gy[edge] / mag

    radii = np.arange(params.r_min, params.r_max + 1)
    n = len(radii)
    thresh = params.vote_frac * 2.0 * np.pi * radii
    # A 3x3 box in one slice holds at most two votes per edge pixel.
    dtype = np.uint16 if 2 * ex.size <= np.iinfo(np.uint16).max else np.uint32
    # The float scores differ from the integer box sums only by rounding
    # drift, far below 0.5, so ``hit`` keeps every cell whose score can
    # reach ``thresh``.
    floor = np.ceil(thresh - 0.5).astype(dtype)
    # Scratch for one radius slice: the vote counts, with a one-cell border
    # that catches votes outside the image and is then zeroed, their 3x3
    # box sums and the threshold mask. A slice's vertical 3-sums (column
    # u + 1 is image column u) wait in ``ring`` for one more slice.
    # ``hit_rows[i + 1, v + 1]`` marks a row v of slice i with a cell in
    # ``hit``; the zero border stands for the rows and radii outside.
    acc = np.empty((h + 2, w + 2), dtype)
    box = np.empty((h, w), dtype)
    hit = np.empty((h, w), dtype=bool)
    ring = np.empty((2, h, w + 2), dtype)
    hit_rows = np.zeros((n + 2, h + 2), dtype=bool)
    found = []
    # Float lines: the candidates' rows +-1 (local maxima) at radius +-1
    # (_refine). ``line[i, v]`` is the row of ``scores`` that holds line
    # (i, v), -1 for a line not built; every line read below is built.
    line = np.full((n, h), -1, dtype=np.intp)
    scores = np.empty((n * h, w))
    built = 0
    # Pass i counts slice i and then builds the lines of slice i - 1.
    for i in range(n + 1):
        if i < n:
            # Row 0 votes along +gradient, row 1 along -.
            step = np.array([[1.0 * radii[i]], [-1.0 * radii[i]]])
            vote_u = step * ux
            vote_u += ex
            np.rint(vote_u, out=vote_u)
            np.clip(vote_u, -1, w, out=vote_u)
            vote_v = step * uy
            vote_v += ey
            np.rint(vote_v, out=vote_v)
            np.clip(vote_v, -1, h, out=vote_v)
            cell = vote_v + 1
            cell *= w + 2
            cell += vote_u + 1
            acc.fill(0)
            np.add.at(acc.reshape(-1), cell.astype(np.intp).ravel(), dtype(1))
            acc[[0, -1]] = 0
            acc[:, [0, -1]] = 0
            col = ring[i % 2]
            np.add(acc[:-2], acc[1:-1], out=col)
            col += acc[2:]
            np.add(col[:, :-2], col[:, 1:-1], out=box)
            box += col[:, 2:]
            np.greater_equal(box, floor[i], out=hit)
            found.append(np.flatnonzero(hit))
            hit_rows[i + 1, found[-1] // w + 1] = True
        if i > 0:
            j = i - 1
            band = hit_rows[j:j + 3].any(axis=0)
            lv = np.flatnonzero(band[:-2] | band[1:-1] | band[2:])
            _box_lines(ring, (np.full(lv.size, j % 2), lv),
                       out=scores[built:built + lv.size])
            line[j, lv] = np.arange(built, built + lv.size)
            built += lv.size
    ci = np.repeat(np.arange(n), [f.size for f in found])
    if ci.size == 0:
        return []
    cv, cu = np.divmod(np.concatenate(found), w)

    # A clipped index still names a cell of the 3x3 window, and a score that
    # passes the threshold is above the 0.0 outside the image.
    at_row = {dv: line[ci, np.clip(cv + dv, 0, h - 1)] for dv in (-1, 0, 1)}
    at_col = {du: np.clip(cu + du, 0, w - 1) for du in (-1, 1)}
    at_col[0] = cu
    votes = scores[at_row[0], cu]
    peak = votes >= thresh[ci]
    for dv, du in _NEIGHBOURS:
        peak &= votes >= scores[at_row[dv], at_col[du]]
    votes = votes[peak]
    u = cu[peak].astype(float)
    v = cv[peak].astype(float)
    r = radii[ci[peak]].astype(float)
    if votes.size == 0:
        return []
    order = np.lexsort((r, v, u, -votes))
    votes, u, v, r = votes[order], u[order], v[order], r[order]

    # Strongest-first greedy merge across radii.
    alive = np.ones(votes.size, dtype=bool)
    out = []
    k = 0
    while True:
        ru, rv, rr = _refine(scores, line, radii, float(u[k]), float(v[k]), float(r[k]))
        out.append(Candidate(u=ru, v=rv, r=rr, votes=float(votes[k])))
        alive &= (u - u[k]) ** 2 + (v - v[k]) ** 2 >= params.r_min ** 2
        rest = np.flatnonzero(alive[k + 1:])
        if rest.size == 0:
            return out
        k += 1 + int(rest[0])


def _sobel(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ndimage.sobel`` along axis 1 and along axis 0, ``mode="nearest"``.

    scipy runs each as two ``correlate1d`` passes over the edge-padded
    image: the antisymmetric [-1, 0, 1] along the axis, ``x[i+1] - x[i-1]``,
    then the symmetric [1, 2, 1] across it, ``d[i] * 2 + (d[i-1] + d[i+1])``.
    The same formulas on slices give the same floats bit for bit on finite
    images; scipy's extra ``0 * x[i]`` term can only turn a +0.0 into -0.0
    at a pixel whose sign bit is set (a negative one or -0.0), and the sign
    of a zero gradient reaches no candidate. Byte images are differenced
    exactly in int32, everything else in float64.
    """
    dtype = np.int32 if img.dtype.kind in "iu" and img.dtype.itemsize == 1 else float
    p = np.pad(img.astype(dtype, copy=False), 1, mode="edge")
    d = p[:, 2:] - p[:, :-2]
    gx = d[1:-1] * 2
    gx += d[:-2] + d[2:]
    d = p[2:] - p[:-2]
    gy = d[:, 1:-1] * 2
    gy += d[:, :-2] + d[:, 2:]
    return gx, gy


def _box_lines(col: np.ndarray, lines: tuple[np.ndarray, np.ndarray],
               out: np.ndarray | None = None) -> np.ndarray:
    """Float 3x3 box sums (times 9) on the (radius, row) ``lines``.

    ``col[i, v, u + 1]`` is the exact integer sum of ``acc[i, v-1:v+2, u]``,
    zero outside the image. The result is bit for bit the rows of
    ``ndimage.uniform_filter(acc, size=(1, 3, 3), mode="constant") * 9.0``.
    That filter runs axis 1 first: its running sum over integers is exact,
    so the first pass is ``col / 3.0``. The axis-2 pass then drifts along
    each row, so it is run here on whole rows. Both passes and the scaling
    run in place in ``out`` (a new array when None), one row per line.
    """
    ri, vi = lines
    out = np.divide(col[ri, vi, 1:-1], 3.0, out=out)
    ndimage.uniform_filter1d(out, 3, axis=1, output=out, mode="constant")
    out *= 9.0
    return out


def _refine(scores: np.ndarray, line: np.ndarray, radii: np.ndarray,
            u: float, v: float, r: float):
    """Sub-pixel center and radius by center-of-mass over the peak's 3x3x3.

    The block's lines are gathered into a (radii, rows, w) buffer and then
    sliced on columns: the stride layout of the dense (radii, h, w) stack
    the seed detector summed, so numpy adds the cells in the same order.
    """
    i = int(np.searchsorted(radii, r))
    ui, vi = int(u), int(v)
    i0, i1 = max(i - 1, 0), min(i + 2, len(radii))
    u0, u1 = max(ui - 1, 0), min(ui + 2, scores.shape[1])
    v0, v1 = max(vi - 1, 0), min(vi + 2, line.shape[1])
    block = scores[line[i0:i1, v0:v1]][:, :, u0:u1]
    total = block.sum()
    if total <= 0:
        return u, v, r
    return (float((np.arange(u0, u1) * block).sum() / total),
            float((np.arange(v0, v1)[:, None] * block).sum() / total),
            float((radii[i0:i1, None, None] * block).sum() / total))
