"""Acceptance gate: nine numbered release criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` to get one PASSED/FAILED
line per criterion (add ``-s`` for the measured numbers behind each one).
The campaign criteria (7/8) share one 200-trial-per-modality experiment,
and the golden test pins that campaign's first trials of each modality.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import as_dtype, numeric_gradient
from vialbench.bench import run_experiment, summarize_modality
from vialbench.cli import main as cli_main
from vialbench.control import MODALITIES, check_record
from vialbench.core import (CameraConfig, ChtConfig, CnnConfig, Pose3,
                            RngStream, TactileConfig, load_config)
from vialbench.force import (ForceBuffer, buffer_capacity, init_baseline,
                             update_and_check)
from vialbench.geometry import pixel_to_world, world_to_pixel
from vialbench.perception import (cht_params_for, detect_circles,
                                  generate_labeled_dataset, save_weights)
from vialbench.perception.cnn import forward, init_weights, loss_and_grads
from vialbench.perception.hough import ChtParams
from vialbench.search import next_trial_positions
from vialbench.simworld import render_topdown, reset_trial
from vialbench.tactile import (_difference_sum, calibrate_mapping,
                               find_contact, polygon_area)


GOLDEN = Path(__file__).parent / "golden" / "campaign_seed42_first10.json"
# The same campaign with no grasp noise on either rig.
GOLDEN_NO_GRASP_NOISE = GOLDEN.with_name(
    "campaign_seed42_sigma_grasp0_first10.json")
GOLDEN_TRIALS = 10


def golden_rows(records) -> list[dict]:
    """The pinned view of each trial: every field that the RNG drives,
    positions rounded to 1e-6 m and times/offsets to 1e-9 (non-finite
    positions become None)."""

    def pos(x):
        return round(x, 6) if math.isfinite(x) else None

    return [{
        "modality": r.modality,
        "trial_index": r.trial_index,
        "attempts": r.attempts,
        "success": r.success,
        "placement": r.placement,
        "results": [o.result for o in r.outcomes],
        "positions": [[pos(p) for p in o.position] for o in r.outcomes],
        "runtime_s": round(r.runtime_s, 9),
        "final_offset": (None if r.final_offset is None
                         else [round(v, 9) for v in r.final_offset]),
    } for r in records]


@pytest.fixture(scope="module")
def campaign(config, trained):
    weights = trained[0]
    t0 = time.perf_counter()
    result = run_experiment(config, 200, 3, weights=weights)
    return result, time.perf_counter() - t0


def test_criterion_1_projection_round_trip():
    camera = CameraConfig(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640,
                          height=480)
    cam = Pose3(0.0, 0.0, 0.8)
    t0 = time.perf_counter()

    # the three worked examples, exact
    assert pixel_to_world(320.0, 240.0, camera, cam, 0.05) == (0.0, 0.0)
    x, _ = pixel_to_world(380.0, 240.0, camera, cam, 0.05)
    assert x == pytest.approx(0.075, abs=1e-15)
    _, y = pixel_to_world(320.0, 360.0, camera, cam, 0.05)
    assert y == pytest.approx(0.15, abs=1e-15)

    gen = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        plane = gen.uniform(0.0, 0.2)
        pose = Pose3(gen.uniform(-0.5, 0.5), gen.uniform(-0.5, 0.5),
                     plane + gen.uniform(0.1, 1.0))
        u, v = gen.uniform(0.0, 640.0), gen.uniform(0.0, 480.0)
        x0, y0 = pixel_to_world(u, v, camera, pose, plane)
        u1, v1 = world_to_pixel(np.array(x0), np.array(y0), camera, pose, plane)
        x1, y1 = pixel_to_world(float(u1), float(v1), camera, pose, plane)
        worst = max(worst, float(np.hypot(x1 - x0, y1 - y0)))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"\ncriterion 1: worst round trip {worst:.2e} m, "
          f"{elapsed * 1e3:.0f} ms for 1000 poses")


def test_criterion_2_circle_detection(config):
    t0 = time.perf_counter()

    # 50 seeded synthetic single-circle images
    cht = ChtConfig()
    params = ChtParams(r_min=6, r_max=14, vote_frac=cht.vote_frac,
                       edge_thresh=cht.edge_thresh)
    gen = np.random.default_rng(4242)
    yy, xx = np.mgrid[0:128, 0:128]
    worst_center = worst_radius = 0.0
    for _ in range(50):
        cu, cv = gen.uniform(30.0, 98.0, 2)
        r = gen.uniform(7.0, 13.0)
        d = np.hypot(xx - cu, yy - cv)
        img = 20.0 + np.clip(r - d + 0.5, 0.0, 1.0) * 180.0
        img += gen.normal(0.0, 2.0, img.shape)
        top = detect_circles(img, params)[0]
        worst_center = max(worst_center, float(np.hypot(top.u - cu, top.v - cv)))
        worst_radius = max(worst_radius, abs(top.r - r))
    assert worst_center <= 2.0
    assert worst_radius <= 2.0

    # 50 rendered racks: every true slot matched within 3 px
    rack_params = cht_params_for(config, config.camera.z)
    worst_slot = 0.0
    for seed in range(50):
        scene = reset_trial(config, RngStream(1000 + seed))
        image, eff = render_topdown(scene, config.camera.pose())
        cands = detect_circles(image, rack_params)
        assert cands
        centers = scene.slots
        su, sv = world_to_pixel(centers[:, 0], centers[:, 1], config.camera,
                                eff, config.rack.height)
        cu = np.array([c.u for c in cands])
        cv = np.array([c.v for c in cands])
        gap = np.hypot(su[:, None] - cu[None, :],
                       sv[:, None] - cv[None, :]).min(axis=1).max()
        worst_slot = max(worst_slot, float(gap))
    elapsed = time.perf_counter() - t0

    assert worst_slot <= 3.0
    assert elapsed < 30.0
    print(f"\ncriterion 2: synthetic worst center {worst_center:.2f} px / "
          f"radius {worst_radius:.2f} px; rack worst slot gap "
          f"{worst_slot:.2f} px; {elapsed:.1f} s")


def test_criterion_3_classifier(config, trained):
    weights, history, n_examples, train_wall = trained

    # gradient check against central differences
    cnn_cfg = CnnConfig()
    gen = np.random.default_rng(7)
    w = as_dtype(init_weights(gen, cnn_cfg), np.float64)
    x = gen.random((2, 1, cnn_cfg.crop_size, cnn_cfg.crop_size))
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    mask = np.array([[1.0, 1.0], [1.0, 0.0]])
    _, grads = loss_and_grads(w, x, targets, mask)
    picker = np.random.default_rng(8)
    worst_rel = 0.0
    for name, arr in w.tensors():
        analytic = grads[name]
        for _ in range(40):
            idx = tuple(int(picker.integers(s)) for s in arr.shape)
            num = numeric_gradient(w, x, targets, mask, name, idx, eps=1e-6)
            ana = float(analytic[idx])
            worst_rel = max(worst_rel,
                            abs(ana - num) / max(abs(num), abs(ana), 1e-8))
    assert worst_rel <= 1e-3

    # held-out three-way accuracy on a fresh 10k-crop dataset
    crops, labels = generate_labeled_dataset(
        load_config("", ["cnn.train_scenes = 215"]), RngStream(987))
    assert len(labels) >= 10_000
    crops, labels = crops[:10_000], labels[:10_000]
    preds = np.empty(len(labels), dtype=np.int64)
    for i in range(0, len(crops), 256):
        probs, _ = forward(crops[i:i + 256], weights)
        chunk = np.where(probs[:, 0] < config.cnn.theta_rack, 0,
                         np.where(probs[:, 1] > config.cnn.theta_occ, 1, 2))
        preds[i:i + len(chunk)] = chunk
    accuracy = float((preds == labels).mean())

    assert accuracy >= 0.90
    assert train_wall <= 300.0
    print(f"\ncriterion 3: gradient worst rel err {worst_rel:.2e}; held-out "
          f"accuracy {accuracy:.4f} on 10000 crops; trained on {n_examples} "
          f"crops in {train_wall:.0f} s (final loss {history[-1]:.4f})")


def test_criterion_4_tactile_math():
    # mean absolute difference against the reference stack: a sum of 30
    # over two references
    refs = [np.full((2, 2), 10, np.uint8), np.full((2, 2), 20, np.uint8)]
    np.testing.assert_array_equal(
        _difference_sum(np.full((2, 2), 30, np.uint8), refs) / len(refs),
        np.full((2, 2), 15.0))

    # normalize then threshold at 0.5: means 0, 5, 10 keep the last two
    # pixels, one region centred between them
    bare = TactileConfig(threshold=0.5, contact_floor=0.0, min_area=0.0)
    region = find_contact(np.array([[0, 5, 10]], np.uint8),
                          [np.zeros((1, 3), np.uint8)], bare)
    assert region.centroid == (1.5, 0.0)

    # shoelace areas on the listed polygons
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    triangle = [(0, 0), (0, 4), (3, 0)]
    for polygon, want in ((square, 1.0), (triangle, 6.0)):
        rows, cols = np.array(polygon).T
        assert polygon_area(rows, cols) == want

    # border centroid is the vertex mean
    vx = float(np.mean([p[0] for p in triangle]))
    vy = float(np.mean([p[1] for p in triangle]))
    assert (vx, vy) == (1.0, 4.0 / 3.0)

    # least squares recovers a known affine map from noiseless samples
    true_gain = np.array([[0.02, 0.0], [0.0, 0.018]])
    true_bias = np.array([0.001, -0.002])
    W = H = 160
    px = np.array([(u, v) for u in (20.0, 80.0, 140.0)
                   for v in (30.0, 90.0, 150.0)])
    n = px / np.array([W - 1.0, H - 1.0])
    offsets = n @ true_gain.T + true_bias
    cal = calibrate_mapping(px, offsets, W, H)
    np.testing.assert_allclose(cal.gain, true_gain, atol=1e-6)
    np.testing.assert_allclose(cal.bias, true_bias, atol=1e-6)
    assert cal.residual_rms < 1e-9
    print("\ncriterion 4: difference/threshold/shoelace/centroid/least-squares "
          "examples all exact")


def test_criterion_5_force_monitor(config):
    fc = config.force
    capacity = buffer_capacity(fc)
    quiet = np.array([0.0, 0.0, -10.0])
    baseline = init_baseline([quiet] * capacity, fc)

    def fill_and_check(sample):
        buf = ForceBuffer(capacity)
        stop = False
        for _ in range(capacity):
            stop, _ = update_and_check(buf, sample, baseline, fc)
        return stop

    # strict boundary: 20% of the baseline magnitude is still Continue
    assert fill_and_check(np.array([0.0, 0.0, -12.0])) is False
    assert fill_and_check(np.array([0.0, 0.0, -12.001])) is True
    assert fill_and_check(np.array([0.0, 0.0, -8.5])) is False
    assert fill_and_check(np.array([0.0, 0.0, -12.5])) is True

    # a noiseless contact-free descent never stops
    buf = ForceBuffer(capacity)
    stops = 0
    for _ in range(1_000_000):
        stop, _ = update_and_check(buf, quiet, baseline, fc)
        stops += stop is True
    assert stops == 0

    # a 2x-threshold load step is caught within one buffer length
    buf = ForceBuffer(capacity)
    for _ in range(capacity):
        update_and_check(buf, quiet, baseline, fc)
    step = np.array([0.0, 0.0, -14.0])  # twice the 2 N deviation band
    for ticks in range(1, capacity + 1):
        stop, _ = update_and_check(buf, step, baseline, fc)
        if stop:
            break
    assert stop is True
    assert ticks <= capacity
    print(f"\ncriterion 5: boundary strict, 1e6 quiet ticks with 0 stops, "
          f"2x step caught after {ticks}/{capacity} ticks")


def test_criterion_6_search_matches_oracle(config):
    spacing = config.search.spacing
    t0 = time.perf_counter()
    grid = [0.001, 0.004, 0.0075, 0.013, 0.02]
    for r_w in grid:
        for r_h in grid:
            emitted: list[tuple[float, float]] = []
            by_ring: dict[int, set] = {}
            for ring in itertools.count(1):
                batch = next_trial_positions((0.0, 0.0), r_w, r_h, spacing,
                                             ring)
                if not batch:
                    break
                cells = [(round(float(x), 12), round(float(y), 12))
                         for x, y in map(tuple, batch)]
                by_ring.setdefault(ring, set()).update(cells)
                emitted.extend(cells)

            # independent oracle: every in-envelope lattice cell, by ring
            oracle: dict[int, set] = {}
            half_w, half_h = r_w / 2 + 1e-9, r_h / 2 + 1e-9
            max_ring = max(by_ring, default=0) + 2
            for ex in range(-max_ring, max_ring + 1):
                for ey in range(-max_ring, max_ring + 1):
                    ring = max(abs(ex), abs(ey))
                    if ring == 0:
                        continue
                    if abs(spacing * ex) > half_w or abs(spacing * ey) > half_h:
                        continue
                    if ring <= 4:
                        oracle.setdefault(ring, set()).add(
                            (round(spacing * ex, 12), round(spacing * ey, 12)))

            flat = set().union(*by_ring.values()) if by_ring else set()
            flat_oracle = set().union(*oracle.values()) if oracle else set()
            assert flat == flat_oracle, (r_w, r_h)
            for ring, cells in by_ring.items():
                assert cells <= oracle.get(ring, set()), (r_w, r_h, ring)
            assert len(emitted) == len(set(emitted)), (r_w, r_h)
            for x, y in emitted:
                assert abs(x) <= half_w and abs(y) <= half_h
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 6: 25 bound configurations match the lattice oracle "
          f"in {elapsed:.2f} s")


def test_criterion_7_campaign_gates(campaign, trained):
    result, campaign_wall = campaign
    train_wall = trained[3]
    summaries = {m: summarize_modality(result.records[m], result.batches)
                 for m in MODALITIES}
    succ = {m: 100.0 * summaries[m].success_rate for m in MODALITIES}
    first = {m: 100.0 * summaries[m].first_time_rate for m in MODALITIES}

    assert succ["force"] > succ["tactile"] > succ["visual"]
    assert succ["force"] >= 80.0
    assert 35.0 <= succ["visual"] <= 65.0
    visual_attempts = summaries["visual"].attempts
    assert visual_attempts.mean == 1.0
    assert visual_attempts.std == 0.0
    assert first["force"] < first["visual"]
    total_wall = train_wall + campaign_wall
    assert total_wall < 600.0
    print(f"\ncriterion 7: success force {succ['force']:.1f} > tactile "
          f"{succ['tactile']:.1f} > visual {succ['visual']:.1f}; first-time "
          f"force {first['force']:.1f} < visual {first['visual']:.1f}; "
          f"visual attempts {visual_attempts.mean:.2f}+-"
          f"{visual_attempts.std:.2f}; wall {total_wall:.0f} s")


def test_criterion_8_cumulative_curves(campaign):
    result, _ = campaign
    cum = {m: summarize_modality(result.records[m], result.batches).cumulative
           for m in MODALITIES}
    for m in MODALITIES:
        levels = [cum[m][k] for k in sorted(cum[m])]
        assert all(b >= a for a, b in zip(levels, levels[1:])), m

    visual_level = cum["visual"][max(cum["visual"])]
    assert visual_level == cum["visual"][1]  # one attempt, flat ever after
    assert cum["force"][1] <= visual_level
    assert cum["tactile"][1] <= visual_level
    assert cum["force"][2] > visual_level
    assert cum["tactile"][2] > visual_level
    print(f"\ncriterion 8: visual flat at {visual_level:.3f}; by attempt 2 "
          f"force {cum['force'][2]:.3f} and tactile {cum['tactile'][2]:.3f} "
          "are above it")


def test_criterion_9_byte_identical_reports(tmp_path, trained):
    weights_path = tmp_path / "slot.weights"
    save_weights(weights_path, trained[0])
    base = ["run", "--trials", "10", "--weights", str(weights_path)]
    assert cli_main(base + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(base + ["--out", str(tmp_path / "b")]) == 0
    for name in ("summary.csv", "histogram.csv", "cumulative.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
    print("\ncriterion 9: repeated run produced byte-identical "
          "summary/histogram/cumulative CSVs")


def assert_golden(records, path) -> None:
    """The first ``GOLDEN_TRIALS`` records of each modality equal the rows
    of the fixture at ``path``, field for field."""
    got = [row for m in MODALITIES
           for row in golden_rows(records[m][:GOLDEN_TRIALS])]
    want = json.loads(path.read_text())
    assert len(want) == GOLDEN_TRIALS * len(MODALITIES)
    for g, w in zip(got, want):
        differ = sorted(k for k in g.keys() | w.keys() if g.get(k) != w.get(k))
        assert g == w, (w["modality"], w["trial_index"], differ)
    assert len(got) == len(want)


def test_golden_campaign_trials(campaign):
    """Trial-level drift guard between commits (criterion 9 only compares
    two runs of the same commit). Trial i of a campaign depends only on the
    seed and i, so the fixture also equals a ``GOLDEN_TRIALS``-trial run.
    Rewrite ``GOLDEN`` from ``golden_rows`` only for an intended behaviour
    change, and say so in the change log."""
    result, _ = campaign
    assert_golden(result.records, GOLDEN)


def test_campaign_records_keep_the_record_rules(campaign):
    """Every record the trial loop writes passes ``check_record``, whose
    rules ``report`` applies to each line it reads back."""
    result, _ = campaign
    for m in MODALITIES:
        assert result.records[m]
        for record in result.records[m]:
            check_record(record)


def test_golden_campaign_trials_without_grasp_noise(trained):
    """The same guard at zero grasp noise on both rigs, where the rubber
    and tactile scenes of an index must still make the same draws."""
    config = load_config("", ["noise.sigma_grasp = 0",
                              "tactile.sigma_grasp = 0"])
    result = run_experiment(config, GOLDEN_TRIALS, 1, weights=trained[0])
    assert_golden(result.records, GOLDEN_NO_GRASP_NOISE)
