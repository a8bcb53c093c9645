"""Gradient-voting circular Hough transform for rack slot candidates."""

from __future__ import annotations

import math
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
    counted in place (``np.add.at``) into one reused integer accumulator,
    padded by ``r_max + 1`` cells on every side so that no vote needs
    clipping; the one-cell halo around the image is zeroed after the count,
    and the cells beyond it are never read. A radius forms ``r * ux`` and
    ``r * uy`` once and votes at the sum and the difference with the edge
    pixel: negating a product is exact, so these are the seed's
    ``(+-r) * ux + ex``. Only the slice's vertical 3-sums and the rows of
    its above-threshold cells outlive it. The lines of slice i are the 3x3
    dilation of those rows over (radius, row), so they are known, and made
    from the kept vertical sums, as soon as slice i + 1 is thresholded. The
    integer scratch is a few slices of the padded image's size whatever the
    sweep's length. The float lines are written in (radius, row) order into
    one buffer with room for every line, of which only the built rows are
    touched. The merge runs on the peaks' integer cells, and then one
    batched centre of mass refines every kept peak; see ``_refine``.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D grayscale image, got shape {img.shape}")
    h, w = img.shape
    ey, ex, ux, uy = _edges(img, params.edge_thresh)
    if ex.size == 0:
        return []
    # float coordinates, so that each vote adds two float arrays
    ey, ex = ey.astype(float), ex.astype(float)

    radii = np.arange(params.r_min, params.r_max + 1)
    n = len(radii)
    thresh = params.vote_frac * 2.0 * np.pi * radii
    # A 3x3 box in one slice holds at most two votes per edge pixel.
    dtype = np.uint16 if 2 * ex.size <= np.iinfo(np.uint16).max else np.uint32
    # The float scores differ from the integer box sums only by rounding
    # drift, far below 0.5, so ``hit`` keeps every cell whose score can
    # reach ``thresh``.
    floor = np.ceil(thresh - 0.5).astype(dtype)
    # Scratch for one radius slice: the vote counts, whose window ``win``
    # is the image with a one-cell halo, their 3x3 box sums and the
    # threshold mask. A vote lands at most r_max cells off the image, so
    # inside the padding; ``origin`` is the flat index of image cell
    # (0, 0). A slice's vertical 3-sums (column u + 1 is image column u)
    # wait in ``ring`` for one more slice. ``hit_rows[i + 1, v + 1]``
    # marks a row v of slice i with a cell in ``hit``; the zero border
    # stands for the rows and radii outside.
    pad = params.r_max + 1
    acc = np.zeros((h + 2 * pad, w + 2 * pad), dtype)
    win = acc[pad - 1:pad + h + 1, pad - 1:pad + w + 1]
    origin = pad * acc.shape[1] + pad
    # Row 0 of each holds the votes along +gradient, row 1 along -.
    vote_u = np.empty((2, ex.size))
    vote_v = np.empty((2, ex.size))
    cell = np.empty((2, ex.size), dtype=np.intp)
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
            for vote, e, unit in ((vote_u, ex, ux), (vote_v, ey, uy)):
                step = radii[i] * unit
                np.add(e, step, out=vote[0])
                np.subtract(e, step, out=vote[1])
                np.rint(vote, out=vote)
            vote_v *= acc.shape[1]
            vote_v += vote_u
            np.add(vote_v, origin, out=cell, casting="unsafe")
            win.fill(0)
            np.add.at(acc.reshape(-1), cell.reshape(-1), dtype(1))
            win[[0, -1]] = 0
            win[:, [0, -1]] = 0
            col = ring[i % 2]
            np.add(win[:-2], win[1:-1], out=col)
            col += win[2:]
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
    if not peak.any():
        return []
    votes, ci, cv, cu = votes[peak], ci[peak], cv[peak], cu[peak]
    order = np.lexsort((ci, cv, cu, -votes))
    votes, ci, cv, cu = votes[order], ci[order], cv[order], cu[order]

    # Strongest-first greedy merge across radii.
    alive = np.ones(votes.size, dtype=bool)
    kept = []
    k = 0
    while True:
        kept.append(k)
        alive &= (cu - cu[k]) ** 2 + (cv - cv[k]) ** 2 >= params.r_min ** 2
        rest = np.flatnonzero(alive[k + 1:])
        if rest.size == 0:
            break
        k += 1 + int(rest[0])
    u, v, r = _refine(scores, line, radii, ci[kept], cv[kept], cu[kept])
    return [Candidate(u=float(a), v=float(b), r=float(c), votes=float(s))
            for a, b, c, s in zip(u, v, r, votes[kept])]


def _edges(img: np.ndarray, edge_thresh: float) -> tuple[np.ndarray, ...]:
    """Edge pixels ``(ey, ex)`` and their unit gradients ``(ux, uy)``.

    An edge pixel is one whose ``np.hypot(gx, gy)`` of the Sobel gradients
    reaches ``edge_thresh``. hypot runs only where the squared magnitude
    can: a byte image's ``gx*gx + gy*gy``, squared from its int16
    gradients, is an exact int32 (at most 2 * 1020**2), and an integer
    reaches a float exactly when it reaches that float's ceiling, which is
    passed as a Python int so that the comparison stays in int32 (NEP 50).
    """
    gx, gy = _sobel(img)
    wide = np.int32 if gx.dtype == np.int16 else gx.dtype
    mag2 = np.multiply(gx, gx, dtype=wide)
    mag2 += np.multiply(gy, gy, dtype=wide)
    # a product, not ``** 2``: a huge threshold squares to inf, not an error
    gate = edge_thresh * (1.0 - 1e-9)
    gate *= gate
    if mag2.dtype == np.int32:
        # NaN and anything past int32 gate out every pixel, as the float would
        gate = math.ceil(gate) if gate < 2 ** 31 else 2 ** 31 - 1
    ey, ex = np.nonzero(mag2 >= gate)
    gx = gx[ey, ex].astype(float, copy=False)
    gy = gy[ey, ex].astype(float, copy=False)
    mag = np.hypot(gx, gy)
    edge = mag >= edge_thresh
    mag = mag[edge]
    return ey[edge], ex[edge], gx[edge] / mag, gy[edge] / mag


def _sobel(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ndimage.sobel`` along axis 1 and along axis 0, ``mode="nearest"``.

    scipy runs each as two ``correlate1d`` passes over the edge-padded
    image: the antisymmetric [-1, 0, 1] along the axis, ``x[i+1] - x[i-1]``,
    then the symmetric [1, 2, 1] across it, ``d[i] * 2 + (d[i-1] + d[i+1])``.
    The same formulas on slices give the same floats bit for bit on finite
    images; scipy's extra ``0 * x[i]`` term can only turn a +0.0 into -0.0
    at a pixel whose sign bit is set (a negative one or -0.0), and the sign
    of a zero gradient reaches no candidate. Byte images are differenced
    exactly in int16 (a gradient is at most 4 * 255), everything else in
    float64. The edge padding is written by slicing into one buffer.
    """
    dtype = np.int16 if img.dtype.kind in "iu" and img.dtype.itemsize == 1 else float
    p = np.empty((img.shape[0] + 2, img.shape[1] + 2), dtype)
    p[1:-1, 1:-1] = img
    p[0, 1:-1] = img[0]
    p[-1, 1:-1] = img[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
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
            ci: np.ndarray, cv: np.ndarray, cu: np.ndarray):
    """Sub-pixel centers and radii by center-of-mass over each peak's 3x3x3.

    Peak k sits at radius index ``ci[k]``, row ``cv[k]`` and column
    ``cu[k]``; its block is clipped to the sweep and the image, so it has
    1 to 3 radii, rows and columns. The peaks are refined together, one
    group per block shape: each group's blocks are gathered into one
    contiguous (K, radii, rows, columns) array and summed over its last
    three axes, which adds each block's cells in the order numpy sums the
    seed's strided view of the dense (radii, h, w) stack. A peak whose
    block sums to at most zero keeps its integer cell. Returns the centers'
    columns and rows and the radii, as float arrays.
    """
    idx = np.stack([ci, cv, cu])
    lo = np.maximum(idx - 1, 0)
    size = np.minimum(idx + 2, [[line.shape[0]], [line.shape[1]], [scores.shape[1]]]) - lo
    out = np.stack([cu, cv, radii[ci]]).astype(float)
    shapes, group = np.unique(size, axis=1, return_inverse=True)
    for g, shape in enumerate(shapes.T):
        k = np.flatnonzero(group == g)
        i, v, u = (lo[a, k, None] + np.arange(shape[a]) for a in range(3))
        block = scores[line[i[:, :, None], v[:, None, :]][..., None], u[:, None, None, :]]
        total = block.sum(axis=(1, 2, 3))
        ok = total > 0
        for a, weight in enumerate((u[:, None, None, :], v[:, None, :, None],
                                    radii[i][:, :, None, None])):
            out[a, k[ok]] = (weight * block).sum(axis=(1, 2, 3))[ok] / total[ok]
    return out
