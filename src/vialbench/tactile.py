"""Fingertip gel image processing and in-gripper offset tracking.

Contact is read out of raw gel frames in four steps: absolute difference
against a no-contact reference set, min-max normalization, fixed-threshold
binarization, and border tracing of the 8-connected components. The largest
traced region's centroid is mapped to a physical in-gripper offset through a
per-finger affine calibration fit by least squares on frames with known
offsets.

Frames are uint8 and the references one uint8 stack, as
``simworld.sample_tactile`` and ``simworld.reference_frames`` produce them,
so a frame is differenced against the whole stack in one exact step on the
bytes: the larger value minus the smaller. ``find_contact`` thresholds
the integer sum of those differences, not the float mean:
normalize-then-binarize is monotone in the sum, so the pixels that pass
are those at or above the smallest sum
that passes. That sum is found by bisection over the sums from the frame's
min to its max, testing one sum at a time with the float operations of
normalizing the mean and comparing it with the threshold: ``k / n``, then
``(k / n - lo) / (hi - lo) >= threshold``. Python floats round each of
these as numpy does element by element, and ``lo`` and ``hi`` are the
means of the frame's own min and max sums, so each sum meets the same
rounded floats as on the full image and the mask is the same bit for bit.

A contact mask is usually one patch whose rows are each one run of pixels,
each run reaching the next. ``extract_contacts`` checks that from the rows'
first and last filled columns and counts; when it holds, the mask's
bounding box is one 8-connected component and is traced without labelling.

During a descent the tracker compares each finger's current centroid with
the one captured right after the grasp; the centroid travel in pixels,
averaged over the fingers, is the slip signal that stops the motion.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import TactileConfig

FINGERS = ("left", "right")

# Moore neighborhood, clockwise from west, as (row, col) steps.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1),
          (0, 1), (1, 1), (1, 0), (1, -1))


class CalibrationError(RuntimeError):
    """Calibration input is unusable (too few or degenerate samples)."""


@dataclass(frozen=True)
class ContactRegion:
    """One traced contact patch: the mean of its border vertices in (x, y)
    pixels and the area the border encloses."""

    centroid: tuple[float, float]
    area: float


@dataclass(frozen=True)
class TactileCalibration:
    """Affine map from normalized centroid to in-gripper offset, per finger."""

    gain: np.ndarray      # (2, 2): offset_i = gain[i] @ (nx, ny) + bias[i]
    bias: np.ndarray      # (2,)
    residual_rms: float


def _difference_sum(frame: np.ndarray, references) -> np.ndarray:
    """Per-pixel sum of ``|frame - reference|`` over the reference stack.

    The frame and references are integer arrays holding byte values: an
    ``(n, H, W)`` stack, as ``simworld.reference_frames`` gives it, or a
    list of frames. Each difference is the larger value minus the smaller,
    so it is exact in the inputs' own dtype and at most 255; the total stays
    in int16 while ``n * 255`` fits and goes to int32 past that. A float
    frame or reference raises TypeError.
    """
    refs = np.asarray(references)
    n = len(refs)
    if n == 0:
        raise ValueError("need at least one reference frame")
    if frame.dtype.kind not in "iu" or refs.dtype.kind not in "iu":
        raise TypeError(f"tactile frames hold bytes, got {frame.dtype} "
                        f"against {refs.dtype} references")
    diff = np.maximum(refs, frame)
    np.subtract(diff, np.minimum(refs, frame), out=diff)
    return diff.sum(axis=0, dtype=np.int16 if n * 255 <= np.iinfo(np.int16).max
                    else np.int32)


# After entering a cell by Moore step j, the backtrack (the last empty cell
# looked at) sits at step _MOORE[j - 1] - _MOORE[j] from it.
_BACK = tuple(_MOORE.index((_MOORE[j - 1][0] - _MOORE[j][0],
                            _MOORE[j - 1][1] - _MOORE[j][1]))
              for j in range(8))

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


@functools.cache
def _moore_scan(stride: int) -> tuple:
    """For each backtrack b, the eight cells a Moore step looks at, in
    order: ``(flat offset, backtrack after stepping there)`` for steps
    ``b + 1, ..., b + 8`` (mod 8) in a grid of row length ``stride``."""
    return tuple(
        tuple(((_MOORE[j][0] * stride + _MOORE[j][1]), _BACK[j])
              for j in ((b + k) % 8 for k in range(1, 9)))
        for b in range(8))


def _moore_trace(mask: np.ndarray,
                 start: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Clockwise outer-border trace from ``start`` (the first filled pixel in
    row-major order, so its west neighbor is guaranteed empty).

    The walk runs on flat indices into the mask padded by one empty cell, so
    no step needs a bounds check, and looks at the neighbors in the order
    ``_moore_scan`` lists for the current backtrack. Returns the border's
    vertices in trace order as two int arrays, their rows and their columns.
    """
    h, w = mask.shape
    stride = w + 2
    padded = np.zeros((h + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = mask
    cells = padded.tobytes()  # one byte per cell
    scan = _moore_scan(stride)
    first = (start[0] + 1) * stride + start[1] + 1
    trail = [first]
    cur = first
    back = 0  # the backtrack starts west of ``start``
    for _ in range(4 * np.count_nonzero(mask) + 8):
        for step, after in scan[back]:
            if cells[cur + step]:
                break
        else:
            break  # isolated pixel
        cur += step
        if cur == first:
            break
        trail.append(cur)
        back = after
    else:
        raise RuntimeError("border trace failed to close")
    # Cell (r, c) sits at (r + 1) * stride + c + 1 in the padded grid.
    return np.divmod(np.array(trail) - (stride + 1), stride)


def polygon_area(rows: np.ndarray, cols: np.ndarray) -> float:
    """Shoelace area of a traced border (vertices at pixel centers), given
    as the integer arrays of its vertex rows and columns.

    Integer coordinates make every product and sum exact, so the area is
    the same whatever order they are added in and wherever the border sits.
    """
    if len(rows) < 3:
        return 0.0
    twice = (np.dot(cols[:-1], rows[1:]) - np.dot(rows[:-1], cols[1:])
             + cols[-1] * rows[0] - rows[-1] * cols[0])
    return 0.5 * abs(float(twice))


def _single_component_start(box: np.ndarray) -> int | None:
    """Prove from its row runs that the bounding box of a mask holds one
    8-connected component; return the column of its first pixel in row 0,
    or None when the proof fails.

    The proof holds when every row is one run of filled cells (its count
    equals its last column minus its first plus one, which an empty row
    fails) and each run reaches the next row's run, diagonals included.
    It does not decide every one-component mask: a U shape fails it.
    """
    h, w = box.shape
    first = box.argmax(axis=1)
    last = (w - 1) - box[:, ::-1].argmax(axis=1)
    # A row's count is at most its span, with equality only for one run; an
    # empty row spans the whole box. So the counts sum to the spans exactly
    # when every row is one run.
    if np.count_nonzero(box) != int(last.sum()) - int(first.sum()) + h:
        return None
    if h > 1 and ((first[1:] - last[:-1]).max() > 1
                  or (first[:-1] - last[1:]).max() > 1):
        return None
    return int(first[0])


def extract_contacts(binary: np.ndarray, min_area: float) -> list[ContactRegion]:
    """Trace every 8-connected region and keep the ones of usable size.

    Only the bounding box of the filled pixels is labelled and traced. The
    box keeps their raster order, so labels, start pixels and borders are
    those of the whole frame, moved by the box origin. When the box's row
    runs prove it holds one component, that component is the box itself
    and nothing is labelled.

    Returns regions sorted largest first.
    """
    rows = np.flatnonzero(binary.any(axis=1))
    if rows.size == 0:
        return []
    band = binary[rows[0]:rows[-1] + 1]
    cols = np.flatnonzero(band.any(axis=0))
    r0, c0 = int(rows[0]), int(cols[0])
    box = band[:, c0:cols[-1] + 1].astype(bool, copy=False)
    start = _single_component_start(box)
    if start is not None:
        components = [(box, (0, start))]
    else:
        labeled, count = ndimage.label(box, structure=_EIGHT_CONNECTED)
        components = []
        for lbl in range(1, count + 1):
            mask = labeled == lbl
            components.append((mask, divmod(int(np.argmax(mask)), box.shape[1])))
    regions = []
    for mask, first in components:
        vr, vc = _moore_trace(mask, first)
        area = polygon_area(vr, vc)
        if area < min_area:
            continue
        # Integer coordinates sum exactly and Python divides them with one
        # rounding, so these means equal numpy's float ones over the frame.
        n = len(vr)
        regions.append(ContactRegion(
            centroid=((int(vc.sum()) + n * c0) / n, (int(vr.sum()) + n * r0) / n),
            area=area))
    regions.sort(key=lambda reg: (-reg.area, reg.centroid))
    return regions


def find_contact(frame: np.ndarray, references,
                 config: TactileConfig) -> ContactRegion | None:
    """Full pipeline for one frame; the dominant contact patch or None.

    The normalization step stretches pure sensor noise across the full range,
    so frames whose raw difference never exceeds ``contact_floor`` are
    rejected before thresholding instead of being amplified into phantom
    contacts. The threshold is applied to the difference sum, as the module
    docstring explains.
    """
    total = _difference_sum(frame, references)
    n = len(references)
    ladder = range(int(total.min()), int(total.max()) + 1)
    if ladder[-1] / n < config.contact_floor:
        return None
    cut = _threshold_cut(ladder, n, config.threshold)
    if cut is None:
        return None
    regions = extract_contacts(total >= cut, config.min_area)
    return regions[0] if regions else None


def _threshold_cut(ladder, n: int, threshold: float):
    """The smallest sum ``k`` of the ``ladder`` range whose normalized mean
    ``(k / n - lo) / (hi - lo)`` is at least ``threshold``, or None when
    none is. The test is monotone in ``k``, so it is bisected.
    """
    lo, hi = ladder[0] / n, ladder[-1] / n
    if hi == lo:  # normalizing maps every mean to 0.0
        return ladder[0] if 0.0 >= threshold else None
    span = hi - lo
    i = bisect.bisect_left(ladder, True,
                           key=lambda k: (k / n - lo) / span >= threshold)
    return ladder[i] if i < len(ladder) else None


def calibrate_mapping(centroids_px: np.ndarray, offsets: np.ndarray,
                      width: int, height: int) -> TactileCalibration:
    """Least-squares fit of offset = gain @ normalized_centroid + bias.

    ``centroids_px`` is (n, 2) in (x, y) pixels, ``offsets`` (n, 2) in meters.
    Needs at least three non-collinear samples to pin down the affine map.
    """
    c = np.asarray(centroids_px, dtype=float)
    o = np.asarray(offsets, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or c.shape != o.shape:
        raise ValueError("centroids and offsets must both be (n, 2)")
    n = c.shape[0]
    if n < 3:
        raise CalibrationError(f"need at least 3 calibration samples, got {n}")
    design = np.column_stack([c[:, 0] / (width - 1.0),
                              c[:, 1] / (height - 1.0),
                              np.ones(n)])
    if np.linalg.matrix_rank(design) < 3:
        raise CalibrationError("calibration centroids are collinear")
    coef, _, _, _ = np.linalg.lstsq(design, o, rcond=None)
    residual = design @ coef - o
    return TactileCalibration(
        gain=np.ascontiguousarray(coef[:2].T),
        bias=coef[2].copy(),
        residual_rms=float(np.sqrt(np.mean(residual ** 2))),
    )


def apply_calibration(cal: TactileCalibration, centroid_px: tuple[float, float],
                      width: int, height: int) -> np.ndarray:
    n = np.array([centroid_px[0] / (width - 1.0),
                  centroid_px[1] / (height - 1.0)])
    return cal.gain @ n + cal.bias


def track_deviation(centroids: dict[str, tuple[float, float]],
                    grasp_centroids: dict[str, tuple[float, float]],
                    config: TactileConfig) -> tuple[bool, float | None]:
    """Slip check for one sampling instant during a monitored descent:
    ``(stop, travel)``, as ``force.update_and_check`` returns its verdict.

    ``centroids`` holds the dominant contact's centroid of each finger in
    contact; a finger left out has none. Each is compared with the finger's
    centroid captured right after the grasp; a finger with no grasp
    centroid has no baseline and is skipped. ``travel`` is the usable
    fingers' mean pixel travel, or None when no finger is usable: the vial
    is gone. The stop fires only when the mean travel strictly exceeds
    ``stop_px``.
    """
    travel = [float(np.hypot(x - grasp_centroids[f][0],
                             y - grasp_centroids[f][1]))
              for f, (x, y) in centroids.items() if f in grasp_centroids]
    if not travel:
        return False, None
    mean_travel = sum(travel) / len(travel)
    return mean_travel > config.stop_px, mean_travel
