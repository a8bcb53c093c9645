"""Bounded expanding lattice search around an estimated slot position.

When a guarded descent stops on the rack surface, the estimate was off by
less than an inter-slot gap, so the true opening is searched on a square
lattice centered on the estimate, ring by ring outward. A ring is a function
of its index alone: its cells are walked clockwise from the +x cell,
skipping cells outside the envelope (rings are disjoint, so no cell
repeats). The walk ends at the first ring with no cell in the envelope;
every later ring is empty too. The envelope extents come from the gaps to
neighboring detections, so the search can never wander onto an adjacent slot.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-9


def _ring_cells(e: int) -> list[tuple[int, int]]:
    """Chebyshev ring ``e``, clockwise starting at (e, 0)."""
    cells = [(e, 0)]
    cells += [(e, y) for y in range(-1, -e - 1, -1)]
    cells += [(x, -e) for x in range(e - 1, -e - 1, -1)]
    cells += [(-e, y) for y in range(-e + 1, e + 1)]
    cells += [(x, e) for x in range(-e + 1, e + 1)]
    cells += [(e, y) for y in range(e - 1, 0, -1)]
    return cells


def next_trial_positions(target_xy, width: float, height: float,
                         spacing: float, ring: int) -> list[np.ndarray]:
    """World positions of the cells of lattice ring ``ring`` (>= 1) around
    ``target_xy`` that lie in the ``width`` x ``height`` envelope, in walk
    order.

    Returns [] exactly when ``spacing * ring`` exceeds both half extents:
    otherwise (ring, 0) or (0, ring) is in the envelope.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if width < 0 or height < 0:
        raise ValueError("envelope extents cannot be negative")
    target = np.asarray(target_xy, dtype=float)
    half_w = 0.5 * width + _EPS
    half_h = 0.5 * height + _EPS
    return [target + spacing * np.array([ex, ey], dtype=float)
            for ex, ey in _ring_cells(ring)
            if abs(spacing * ex) <= half_w and abs(spacing * ey) <= half_h]


def compute_search_bounds(neighbors_xy, target_xy, fallback_pitch: float
                          ) -> tuple[float, float]:
    """Envelope extents from the gaps between the target and its neighbors.

    ``neighbors_xy`` are world positions of other accepted detections (the
    target's own detection may be among them; anything closer than
    0.3 * pitch is treated as a duplicate of the target and dropped). Up to
    the eight nearest remaining neighbors vote; each axis extent is the
    smallest same-axis gap of at least 0.3 * pitch, falling back to the
    nominal pitch when no neighbor constrains that axis.
    """
    if fallback_pitch <= 0:
        raise ValueError("fallback_pitch must be positive")
    deltas = (np.asarray(neighbors_xy, dtype=float).reshape(-1, 2)
              - np.asarray(target_xy, dtype=float))
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    min_gap = 0.3 * fallback_pitch
    keep = dists >= min_gap
    deltas = deltas[keep][np.argsort(dists[keep], kind="stable")[:8]]

    def axis_extent(gaps: np.ndarray) -> float:
        usable = np.abs(gaps)
        usable = usable[usable >= min_gap]
        return float(usable.min()) if len(usable) else fallback_pitch

    return axis_extent(deltas[:, 0]), axis_extent(deltas[:, 1])
