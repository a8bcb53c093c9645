"""Expanding-envelope lattice search and its neighbor-derived bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vialbench.search import compute_search_bounds, next_trial_positions

S = 0.0025


def exhausted(width, height, spacing, ring):
    """Oracle of the empty ring: ``spacing * ring`` reaches past both half
    extents of the envelope."""
    reach = spacing * ring
    return reach > width / 2 + 1e-9 and reach > height / 2 + 1e-9


def walk(target, width, height, spacing, max_rings=100):
    """The search's rings up to, not including, the first empty one; fails
    unless that ring comes within ``max_rings``."""
    rings = []
    for ring in range(1, max_rings + 1):
        batch = next_trial_positions(target, width, height, spacing, ring)
        if not batch:
            return rings
        rings.append(batch)
    raise AssertionError(f"ring {max_rings} is still not empty")


def collect_all(target, width, height, spacing):
    """Every position the search tries, as (x, y) tuples."""
    return [tuple(p) for batch in walk(target, width, height, spacing)
            for p in batch]


def test_first_ring_cells():
    batch = [tuple(p) for p in next_trial_positions((0.0, 0.0), 25.0, 25.0,
                                                    2.5, 1)]
    expected = {(2.5, 0.0), (2.5, -2.5), (0.0, -2.5), (-2.5, -2.5),
                (-2.5, 0.0), (-2.5, 2.5), (0.0, 2.5), (2.5, 2.5)}
    assert set(batch) == expected
    assert len(batch) == 8
    # clockwise walk starting at (+S, 0)
    assert batch[0] == (2.5, 0.0)
    assert batch[1] == (2.5, -2.5)


def test_second_ring_is_the_16_cell_perimeter():
    ring2 = [tuple(p) for p in next_trial_positions((0.0, 0.0), 25.0, 25.0,
                                                    2.5, 2)]
    assert len(ring2) == 16
    cheb = {max(abs(x), abs(y)) for x, y in ring2}
    assert cheb == {5.0}


def test_center_cell_never_emitted():
    for pos in collect_all((0.3, -0.1), 0.02, 0.02, S):
        assert pos != (0.3, -0.1)


def test_bounds_clip_and_exhaust():
    ring1 = next_trial_positions((0.0, 0.0), 10.0, 10.0, 2.5, 1)
    ring2 = next_trial_positions((0.0, 0.0), 10.0, 10.0, 2.5, 2)
    seen = ring1 + ring2
    for x, y in (tuple(p) for p in seen):
        assert abs(x) <= 5.0 + 1e-9
        assert abs(y) <= 5.0 + 1e-9
    assert next_trial_positions((0.0, 0.0), 10.0, 10.0, 2.5, 3) == []
    assert exhausted(10.0, 10.0, 2.5, 3)


def test_degenerate_width_limits_to_a_column():
    rings = walk((0.0, 0.0), 0.0, 10.0 * S, S)
    for batch in rings:
        for x, y in batch:
            assert x == 0.0
    assert exhausted(0.0, 10.0 * S, S, len(rings) + 1)


def test_no_duplicates_and_in_bounds():
    cells = collect_all((0.4, 0.0), 0.011, 0.007, S)
    assert len(cells) == len(set(cells))
    for x, y in cells:
        assert abs(x - 0.4) <= 0.0055 + 1e-9
        assert abs(y) <= 0.0035 + 1e-9


def test_cell_count_bound():
    w, h = 0.012, 0.009
    cells = collect_all((0.0, 0.0), w, h, S)
    nx = 2 * int(np.floor(0.5 * w / S + 1e-9)) + 1
    ny = 2 * int(np.floor(0.5 * h / S + 1e-9)) + 1
    assert len(cells) == nx * ny - 1  # every lattice cell except the origin


def test_invalid_construction():
    with pytest.raises(ValueError):
        next_trial_positions((0, 0), 1.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        next_trial_positions((0, 0), -1.0, 1.0, S, 1)


def brute_force_cells(width, height, spacing, max_e):
    """Oracle: all in-envelope lattice cells with Chebyshev ring <= max_e,
    ordered by ring."""
    half_w = width / 2 + 1e-9
    half_h = height / 2 + 1e-9
    by_ring = {}
    for ex in range(-max_e, max_e + 1):
        for ey in range(-max_e, max_e + 1):
            ring = max(abs(ex), abs(ey))
            if ring == 0:
                continue
            if abs(spacing * ex) > half_w or abs(spacing * ey) > half_h:
                continue
            by_ring.setdefault(ring, set()).add(
                (round(spacing * ex, 12), round(spacing * ey, 12)))
    return by_ring


def assert_matches_oracle(center, width, height, spacing):
    """Walked to the first empty ring, the search emits every in-envelope
    lattice cell but the origin exactly once, at ``center + spacing * (ex,
    ey)``, one whole Chebyshev ring per batch, rings in increasing order."""
    max_e = int(max(width, height) / 2 / spacing) + 2
    oracle = brute_force_cells(width, height, spacing, max_e)
    rings = []
    for e in range(1, max_e + 3):
        batch = next_trial_positions(center, width, height, spacing, e)
        if not batch:
            break
        offsets = np.rint((np.array(batch) - center) / spacing).astype(int)
        assert np.array_equal(np.array(batch), center + spacing * offsets)
        cells = {(round(spacing * ex, 12), round(spacing * ey, 12))
                 for ex, ey in offsets}
        assert len(cells) == len(batch)
        ring = {max(abs(ex), abs(ey)) for ex, ey in offsets}
        assert ring == {e}
        rings.append(ring.pop())
        assert cells == oracle[rings[-1]]
    assert next_trial_positions(center, width, height, spacing, e + 1) == []
    assert exhausted(width, height, spacing, e)
    assert rings == sorted(oracle)


@pytest.mark.parametrize("rw", [0.001, 0.004, 0.0075, 0.013, 0.02])
@pytest.mark.parametrize("rh", [0.001, 0.004, 0.0075, 0.013, 0.02])
def test_matches_brute_force_oracle(rw, rh):
    assert_matches_oracle(np.zeros(2), rw, rh, S)


@settings(max_examples=200, deadline=None)
@given(center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       width=st.floats(0.0, 0.03), height=st.floats(0.0, 0.03),
       spacing=st.floats(1e-3, 5e-3))
def test_matches_brute_force_oracle_anywhere(center, width, height, spacing):
    assert_matches_oracle(np.array(center), width, height, spacing)


def test_search_terminates_everywhere():
    for rw in np.linspace(0.0, 0.02, 6):
        for rh in np.linspace(0.0, 0.02, 6):
            rings = walk((0.0, 0.0), rw, rh, S, max_rings=100)
            assert exhausted(rw, rh, S, len(rings) + 1)


@settings(max_examples=300, deadline=None)
@given(width=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
       height=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
       spacing=st.floats(1e-4, 1e-2), ring=st.integers(1, 60),
       later=st.integers(1, 60))
# An 18 mm envelope (5.999999999999999 * 3 mm) at 3 mm spacing: 3 * 0.003
# rounds to just past 0.009, and the 1e-9 slack keeps ring 3's (3, 0) cell.
@example(width=5.999999999999999, height=0.0, spacing=0.003, ring=3, later=1)
def test_a_ring_is_empty_exactly_when_the_reach_passes_both_half_extents(
        width, height, spacing, ring, later):
    """The walk's stop rule: ring ``ring`` is empty exactly when the old
    search cursor's ``exhausted`` inequality holds, and then every later
    ring is empty too. ``width`` and ``height`` are in lattice spacings."""
    w, h = width * spacing, height * spacing
    empty = next_trial_positions((0.0, 0.0), w, h, spacing, ring) == []
    assert empty == exhausted(w, h, spacing, ring)
    if empty:
        assert next_trial_positions((0.0, 0.0), w, h, spacing,
                                    ring + later) == []


@settings(max_examples=200, deadline=None)
@given(target=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       width=st.floats(0.0, 40.0), height=st.floats(0.0, 40.0),
       spacing=st.floats(1e-4, 1e-2))
def test_every_ring_before_exhaustion_is_new_and_not_empty(target, width,
                                                           height, spacing):
    """Each ring before exhaustion has at least one cell; over the whole
    search no position repeats and none is the target. ``width`` and
    ``height`` are in lattice spacings."""
    w, h = width * spacing, height * spacing
    tried = []
    ring = 1
    while not exhausted(w, h, spacing, ring):
        batch = next_trial_positions(target, w, h, spacing, ring)
        assert batch
        tried += [tuple(p) for p in batch]
        ring += 1
    assert next_trial_positions(target, w, h, spacing, ring) == []
    assert len(tried) == len(set(tried))
    assert tuple(target) not in tried


# --- neighbor-derived envelope bounds -------------------------------------

PITCH = 0.020


def test_bounds_full_grid_of_neighbors():
    target = np.array([0.0, 0.0])
    neighbors = [(dx * PITCH, dy * PITCH)
                 for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]
    w, h = compute_search_bounds(neighbors, target, PITCH)
    assert w == pytest.approx(PITCH)
    assert h == pytest.approx(PITCH)


def test_bounds_isolated_target_falls_back_to_pitch():
    w, h = compute_search_bounds(np.empty((0, 2)), (0.1, 0.2), PITCH)
    assert (w, h) == (PITCH, PITCH)


def test_bounds_single_axis_neighbors():
    neighbors = [(0.018, 0.0), (-0.018, 0.0)]
    w, h = compute_search_bounds(neighbors, (0.0, 0.0), PITCH)
    assert w == pytest.approx(0.018)
    assert h == pytest.approx(PITCH)


def test_bounds_drop_near_duplicates_of_target():
    # a second detection of the target itself must not shrink the envelope
    neighbors = [(0.001, 0.0005), (0.020, 0.0)]
    w, h = compute_search_bounds(neighbors, (0.0, 0.0), PITCH)
    assert w == pytest.approx(0.020)
    assert h == pytest.approx(PITCH)


def test_bounds_use_nearest_eight():
    gen = np.random.default_rng(3)
    near = [(PITCH, 0.0), (-PITCH, 0.0), (0.0, PITCH), (0.0, -PITCH),
            (PITCH, PITCH), (-PITCH, PITCH), (PITCH, -PITCH), (-PITCH, -PITCH)]
    far = [(gen.uniform(0.1, 0.2), gen.uniform(0.1, 0.2)) for _ in range(10)]
    w, h = compute_search_bounds(near + far, (0.0, 0.0), PITCH)
    assert w == pytest.approx(PITCH)
    assert h == pytest.approx(PITCH)


def test_bounds_invalid_pitch():
    with pytest.raises(ValueError):
        compute_search_bounds([], (0, 0), 0.0)
