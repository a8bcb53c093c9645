"""Bounded expanding lattice search around an estimated slot position.

When a guarded descent stops on the rack surface, the estimate was off by
less than an inter-slot gap, so the true opening is searched on a square
lattice centered on the estimate: ring by ring outward, each ring walked
clockwise from its +x cell, skipping cells outside the envelope (rings are
disjoint, so no cell repeats). The envelope extents come from the gaps to
neighboring detections, so the search can never wander onto an adjacent slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-9


@dataclass
class SearchState:
    """Mutable cursor over the lattice; cells are integer (ex, ey) offsets."""

    target: np.ndarray          # (2,) world xy of the lattice origin
    width: float                # envelope full extent along x, meters
    height: float               # envelope full extent along y, meters
    spacing: float
    expansion: int = 1

    @property
    def exhausted(self) -> bool:
        half_w = 0.5 * self.width + _EPS
        half_h = 0.5 * self.height + _EPS
        reach = self.spacing * self.expansion
        return reach > half_w and reach > half_h


def make_search(target_xy, width: float, height: float,
                spacing: float) -> SearchState:
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if width < 0 or height < 0:
        raise ValueError("envelope extents cannot be negative")
    return SearchState(target=np.asarray(target_xy, dtype=float).copy(),
                       width=float(width), height=float(height),
                       spacing=float(spacing))


def _ring_cells(e: int) -> list[tuple[int, int]]:
    """Chebyshev ring ``e``, clockwise starting at (e, 0)."""
    cells = [(e, 0)]
    cells += [(e, y) for y in range(-1, -e - 1, -1)]
    cells += [(x, -e) for x in range(e - 1, -e - 1, -1)]
    cells += [(-e, y) for y in range(-e + 1, e + 1)]
    cells += [(x, e) for x in range(-e + 1, e + 1)]
    cells += [(e, y) for y in range(e - 1, 0, -1)]
    return cells


def next_trial_positions(state: SearchState) -> list[np.ndarray]:
    """World positions of the next ring's in-envelope cells, or [] once
    exhausted. Until then (e, 0) or (0, e) is in the envelope, so the ring
    is never empty."""
    if state.exhausted:
        return []
    half_w = 0.5 * state.width + _EPS
    half_h = 0.5 * state.height + _EPS
    ring = _ring_cells(state.expansion)
    state.expansion += 1
    return [state.target + state.spacing * np.array([ex, ey], dtype=float)
            for ex, ey in ring
            if abs(state.spacing * ex) <= half_w
            and abs(state.spacing * ey) <= half_h]


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
    target = np.asarray(target_xy, dtype=float)
    pts = np.asarray(neighbors_xy, dtype=float).reshape(-1, 2)
    min_gap = 0.3 * fallback_pitch
    if len(pts):
        deltas = pts - target
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        keep = dists >= min_gap
        deltas = deltas[keep]
        dists = dists[keep]
        if len(deltas) > 8:
            nearest = np.argsort(dists, kind="stable")[:8]
            deltas = deltas[nearest]
    else:
        deltas = np.empty((0, 2))

    def axis_extent(gaps: np.ndarray) -> float:
        usable = np.abs(gaps)
        usable = usable[usable >= min_gap]
        return float(usable.min()) if len(usable) else fallback_pitch

    return axis_extent(deltas[:, 0]), axis_extent(deltas[:, 1])
