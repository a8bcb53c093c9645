"""Metrics bookkeeping and report serialization."""

import json
from itertools import permutations

import numpy as np
import pytest

from vialbench import bench, control
from vialbench.bench import (
    Stat,
    _stat,
    load_records,
    record_from_dict,
    record_to_dict,
    summarize_modality,
    write_report,
)
from vialbench.control import MODALITIES, AttemptOutcome, TrialRecord
from vialbench.core import RngStream, load_config, split_rng
from vialbench.simworld import make_rig


def rec(attempts, success, runtime=10.0, modality="force", idx=0):
    results = ["rack_top"] * (attempts - 1)
    results.append("inserted" if success else "released_failed")
    return TrialRecord(
        modality=modality, trial_index=idx, attempts=attempts, success=success,
        runtime_s=runtime,
        outcomes=tuple(AttemptOutcome((0.4, 0.0), r) for r in results),
        final_offset=(0.0, 0.0),
        placement="inserted" if success else "resting_on_rack")


# Worked example used throughout: three trials, one first-try insert, one
# third-try insert, one two-attempt failure.
TRIO = [rec(1, True, runtime=30.0), rec(3, True, runtime=60.0), rec(2, False)]


def test_metrics_worked_example():
    s = summarize_modality(TRIO, 1)
    assert s.success_rate == pytest.approx(2 / 3)
    assert s.first_time_rate == pytest.approx(1 / 3)
    # the two insertions took 1 and 3 attempts, in 30 s and 60 s
    assert s.attempts == Stat(2.0, pytest.approx(np.sqrt(2.0)))
    assert s.runtime_s.mean == pytest.approx(45.0)
    assert s.histogram == {1: 1, 3: 1}
    assert s.cumulative == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3),
                            3: pytest.approx(2 / 3)}
    # one batch: the rates as percentages, with no spread
    assert s.success_pct == Stat(pytest.approx(200 / 3), None)
    assert s.first_time_pct == Stat(pytest.approx(100 / 3), None)


def test_metrics_order_invariant():
    m0 = summarize_modality(TRIO, 1)
    m1 = summarize_modality(TRIO[::-1], 1)
    assert m0.success_rate == m1.success_rate
    assert m0.histogram == m1.histogram
    assert m0.cumulative == m1.cumulative


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        summarize_modality([], 1)


def test_metrics_all_failed():
    s = summarize_modality([rec(2, False), rec(1, False)], 1)
    assert s.success_rate == 0.0
    assert s.attempts == Stat(None, None)
    assert s.runtime_s == Stat(None, None)
    assert s.histogram == {}
    assert s.cumulative == {1: 0.0, 2: 0.0}


def test_cumulative_monotone():
    rng = np.random.default_rng(2)
    records = [rec(int(rng.integers(1, 9)), bool(rng.random() < 0.6))
               for _ in range(80)]
    s = summarize_modality(records, 1)
    levels = [s.cumulative[k] for k in sorted(s.cumulative)]
    assert all(b >= a for a, b in zip(levels, levels[1:]))
    assert levels[-1] == pytest.approx(s.success_rate)


def test_stat_helper():
    s = _stat([2.0, 4.0])
    assert s.mean == 3.0
    assert s.std == pytest.approx(np.std([2.0, 4.0], ddof=1))
    assert _stat([5.0]) == Stat(5.0, None)
    assert _stat([]) == Stat(None, None)


def test_summary_batching_uses_even_bounds():
    # 10 trials over 3 batches -> sizes 3/3/4 (linspace truncation), with the
    # only success sitting in the middle batch: 0%, 33.3%, 0% (rounded
    # bounds, sizes 3/4/3, would give 25% to the middle batch)
    records = [rec(1, i == 4, idx=i) for i in range(10)]
    s = summarize_modality(records, 3)
    assert s.success_pct == _stat([0.0, 100.0 / 3, 0.0])
    assert s.success_rate == pytest.approx(0.1)
    assert s.attempts == Stat(1.0, None)


def test_summary_rejects_bad_batching():
    with pytest.raises(ValueError):
        summarize_modality(TRIO, 0)
    with pytest.raises(ValueError):
        summarize_modality(TRIO, 4)


def test_summary_attempts_pool_successes_only():
    records = [rec(1, True), rec(1, True), rec(7, False)]
    s = summarize_modality(records, 1)
    # the 7-attempt failure does not pollute the mean or the spread
    assert s.attempts == Stat(1.0, 0.0)
    assert s.histogram == {1: 2}


# ---------------------------------------------------------------- serde


def test_record_round_trip():
    r = rec(3, True, runtime=12.345)
    assert record_from_dict(record_to_dict(r)) == r


def test_record_round_trip_non_finite_position():
    r = TrialRecord(modality="visual", trial_index=1, attempts=1,
                    success=False, runtime_s=5.0,
                    outcomes=(AttemptOutcome((float("nan"), float("nan")),
                                             "no_target"),),
                    final_offset=None, placement=None)
    d = record_to_dict(r)
    assert d["outcomes"][0]["position"] == [None, None]
    assert json.loads(json.dumps(d)) == d  # strict JSON, no NaN literals
    back = record_from_dict(d)
    assert np.isnan(back.outcomes[0].position[0])
    assert back.final_offset is None


def test_write_report_files(tmp_path):
    records = {"visual": [rec(1, True, modality="visual"),
                          rec(1, False, modality="visual")],
               "force": TRIO}
    paths = write_report(records, 1, tmp_path / "out", manifest={"seed": 9})
    assert sorted(p.name for p in paths.values()) == [
        "cumulative.csv", "histogram.csv", "records.jsonl",
        "run_manifest.json", "summary.csv"]

    summary = paths["summary"].read_text().splitlines()
    assert summary[0] == ("modality,attempts_mean,attempts_std,"
                          "runtime_s_mean,runtime_s_std,"
                          "success_pct_mean,success_pct_std,"
                          "first_time_pct_mean,first_time_pct_std")
    assert summary[1] == "visual,1.00,,10.00,,50.00,,50.00,"
    assert summary[2] == "force,2.00,1.41,45.00,21.21,66.67,,33.33,"

    hist = paths["histogram"].read_text().splitlines()
    assert hist[0] == "modality,attempt_n,success_count"
    # both modalities padded out to the global max attempt count (3)
    assert hist[1:4] == ["visual,1,1", "visual,2,0", "visual,3,0"]
    assert hist[4:7] == ["force,1,1", "force,2,0", "force,3,1"]

    cum = paths["cumulative"].read_text().splitlines()
    assert cum[0] == "modality,attempt_n,cumulative_probability"
    assert cum[1:4] == ["visual,1,0.500000", "visual,2,0.500000",
                        "visual,3,0.500000"]
    assert cum[4:7] == ["force,1,0.333333", "force,2,0.333333",
                        "force,3,0.666667"]

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["seed"] == 9
    assert manifest["trials"] == {"visual": 2, "force": 3}
    assert not any("time" in k or "date" in k for k in manifest)


def test_all_failure_summary_has_empty_cells_not_nan(tmp_path):
    records = {"force": [rec(2, False), rec(1, False)]}
    paths = write_report(records, 1, tmp_path)
    text = paths["summary"].read_text()
    assert "nan" not in text.lower()
    assert text.splitlines()[1] == "force,,,,,0.00,,0.00,"


def test_report_rebuild_is_byte_identical(tmp_path):
    records = {"visual": [rec(1, True, modality="visual", idx=i)
                          for i in range(6)],
               "force": [rec((i % 3) + 1, i % 4 != 0, idx=i)
                         for i in range(6)]}
    first = write_report(records, 3, tmp_path / "a", manifest={"seed": 1})
    reloaded = load_records(first["records"])
    second = write_report(reloaded, 3, tmp_path / "b", manifest={"seed": 1})
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes(), key


def test_load_records_rejects_empty_file(tmp_path):
    empty = tmp_path / "records.jsonl"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_records(empty)


@pytest.mark.parametrize("trials,batches", [(2, 3), (5, 0)])
def test_run_experiment_checks_batches_before_training(monkeypatch, trials,
                                                       batches):
    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr(bench, "train_discriminator", no_training)
    with pytest.raises(ValueError, match="batches"):
        bench.run_experiment(load_config(), trials, batches)


def test_run_experiment_refuses_a_repeated_modality_before_training(
        monkeypatch):
    """A repeated modality would write its trial indices twice, and
    ``load_records`` refuses such a file."""
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(bench, "train_discriminator", no_work)
    monkeypatch.setattr(bench, "calibrate_rig", no_work)
    with pytest.raises(ValueError, match=r"repeated modalities: \['force'\]"):
        bench.run_experiment(load_config(), 2, 1,
                             modalities=("force", "tactile", "force"))


def test_run_experiment_refuses_no_modality_before_training(monkeypatch):
    """A campaign of no modality would write a report that ``vialbench
    report`` refuses as holding no records."""
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(bench, "train_discriminator", no_work)
    monkeypatch.setattr(bench, "calibrate_rig", no_work)
    with pytest.raises(ValueError, match="need at least one modality"):
        bench.run_experiment(load_config(), 3, 1, modalities=())


def test_index_records_do_not_depend_on_modality_order(config, weights):
    """Whichever modality runs first takes the index's overview miss and the
    later ones hit the shared cache; in each of the six orders every record
    equals a fresh trial's."""
    rig = make_rig(config, "tactile")
    calibration = control.calibrate_rig(config, rig)
    for i in range(2):
        stream = split_rng(RngStream(config.seed), i)
        fresh = {
            "visual": control.run_visual_trial(config, stream, weights,
                                               trial_index=i, seen={}),
            "force": control.run_force_trial(config, stream, weights,
                                             trial_index=i, seen={}),
            "tactile": control.run_tactile_trial(
                config, stream, weights, rig, calibration, trial_index=i,
                seen={})}
        for order in permutations(MODALITIES):
            assert bench.run_index(config, weights, rig, calibration, i,
                                   order) == [fresh[m] for m in order], order


def test_shuffled_records_rebuild_the_same_report(tmp_path):
    """Batches follow the trial index, not the line order of the file."""
    records = {"visual": [rec(1, i % 4 == 0, modality="visual", idx=i)
                          for i in range(12)],
               "force": [rec((i % 3) + 1, i < 6, idx=i) for i in range(12)]}
    ordered = write_report(records, 3, tmp_path / "a")
    first, *rest = ordered["records"].read_text().splitlines()
    np.random.default_rng(5).shuffle(rest)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join([first, *rest]) + "\n")
    reloaded = load_records(shuffled)
    assert list(reloaded) == ["visual", "force"]
    rebuilt = write_report(reloaded, 3, tmp_path / "b")
    for key in ("summary", "histogram", "cumulative", "records"):
        assert rebuilt[key].read_bytes() == ordered[key].read_bytes(), key
