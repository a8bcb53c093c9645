"""Benchmark campaigns: paired trials, metrics, and report files.

``prepare`` builds a run's fixed inputs once, as a picklable ``Campaign``,
and ``run_index(campaign, i)`` runs trial i of every modality: all draw
from one per-trial random stream, so they see the same rack pose,
occupancy, camera miscalibration and overview image at any grasp noise.
Metrics follow two conventions side by side: attempt and runtime statistics
pool the successful trials, while success and first-time percentages are
computed per batch and summarized across batches.

Reports are deterministic byte for byte: rerunning the same seed and trial
count reproduces identical CSV output.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .control import (MODALITIES, AttemptOutcome, TrialRecord, calibrate_rig,
                      check_record, run_force_trial, run_tactile_trial,
                      run_visual_trial)
from .core import (PACKAGE_VERSION, RngStream, WorkspaceConfig, read_utf8,
                   split_rng)
from .perception import CnnWeights, check_weights, train_discriminator
from .simworld import FingertipRig, make_rig


@dataclass(frozen=True)
class Stat:
    """A mean/std pair (std is ddof=1, None when fewer than two values are
    defined)."""

    mean: float | None
    std: float | None


def _stat(values) -> Stat:
    vals = [float(v) for v in values]
    if not vals:
        return Stat(None, None)
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) >= 2 else None
    return Stat(mean, std)


@dataclass(frozen=True)
class ModalitySummary:
    """What the report writes and ``vialbench run`` prints for one
    modality's records."""

    success_rate: float
    first_time_rate: float
    attempts: Stat                # successful trials, pooled
    runtime_s: Stat               # successful trials, pooled
    success_pct: Stat             # one value per batch
    first_time_pct: Stat          # one value per batch
    histogram: dict[int, int]     # attempts -> success count
    cumulative: dict[int, float]  # attempt n -> P(success in <= n)


def summarize_modality(records: list[TrialRecord], n_batches: int) -> ModalitySummary:
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if n_batches > len(records):
        raise ValueError(f"cannot split {len(records)} trials into {n_batches} batches")
    n = len(records)
    wins = [r for r in records if r.success]
    histogram: dict[int, int] = {}
    for r in wins:
        histogram[r.attempts] = histogram.get(r.attempts, 0) + 1
    max_n = max(r.attempts for r in records)
    cumulative = {
        k: sum(1 for r in wins if r.attempts <= k) / n
        for k in range(1, max_n + 1)
    }
    success_pct = []
    first_pct = []
    bounds = np.linspace(0, n, n_batches + 1).astype(int)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        chunk = records[b0:b1]
        chunk_wins = [r for r in chunk if r.success]
        success_pct.append(100.0 * len(chunk_wins) / len(chunk))
        first_pct.append(100.0 * sum(1 for r in chunk_wins if r.attempts == 1)
                         / len(chunk))
    return ModalitySummary(
        success_rate=len(wins) / n,
        first_time_rate=sum(1 for r in wins if r.attempts == 1) / n,
        attempts=_stat([r.attempts for r in wins]),
        runtime_s=_stat([r.runtime_s for r in wins]),
        success_pct=_stat(success_pct),
        first_time_pct=_stat(first_pct),
        histogram=histogram,
        cumulative=cumulative,
    )


@dataclass
class ExperimentResult:
    seed: int
    trials: int
    batches: int
    records: dict[str, list[TrialRecord]]
    campaign_wall_s: float


def _quiet(msg: str) -> None:
    """The default ``progress``: report nothing."""


@dataclass(frozen=True)
class Campaign:
    """A run's fixed inputs, built by ``prepare``; it pickles. ``rig`` and
    ``calibration`` are the tactile trials', None when tactile is not run."""

    config: WorkspaceConfig
    weights: CnnWeights
    modalities: tuple[str, ...]
    rig: FingertipRig | None
    calibration: dict | None      # finger -> TactileCalibration


def prepare(config: WorkspaceConfig, weights: CnnWeights | None = None,
            modalities=MODALITIES, progress=_quiet) -> Campaign:
    """Check the modalities and given weights, build the tactile rig and
    its calibration once for every tactile trial (a fixed physical
    gripper), then train the slot classifier from the config seed when no
    weights are given: a calibration that fails does so before training."""
    if not modalities:
        raise ValueError("need at least one modality")
    unknown = set(modalities) - set(MODALITIES)
    if unknown:
        raise ValueError(f"unknown modalities: {sorted(unknown)}")
    repeated = sorted({m for m in modalities if modalities.count(m) > 1})
    if repeated:
        raise ValueError(f"repeated modalities: {repeated}")

    if weights is not None:
        check_weights(weights, config.cnn)
    rig = calibration = None
    if "tactile" in modalities:
        rig = make_rig(config, "tactile")
        calibration = calibrate_rig(config, rig)
    if weights is None:
        progress("training slot classifier")
        t0 = time.perf_counter()
        weights, _, n_crops = train_discriminator(config)
        progress(f"trained on {n_crops} crops in {time.perf_counter() - t0:.1f}s")
    return Campaign(config, weights, tuple(modalities), rig, calibration)


def run_index(campaign: Campaign, i: int) -> list[TrialRecord]:
    """Trial ``i`` of each of the campaign's modalities, in order: all draw
    from ``split_rng(seed, i)`` and share one ``seen`` cache, so the first
    renders and perceives the overview and the others reuse it (see
    control._run_trial)."""
    trial = {"visual": run_visual_trial, "force": run_force_trial,
             "tactile": partial(run_tactile_trial, rig=campaign.rig,
                                calibration=campaign.calibration)}
    stream, seen = split_rng(RngStream(campaign.config.seed), i), {}
    return [trial[m](campaign.config, stream, campaign.weights,
                     trial_index=i, seen=seen)
            for m in campaign.modalities]


def run_experiment(config: WorkspaceConfig, trials: int, batches: int,
                   weights: CnnWeights | None = None,
                   modalities=MODALITIES, progress=_quiet) -> ExperimentResult:
    """``prepare``, then ``run_index`` for i in range(trials), by modality."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 1 <= batches <= trials:
        raise ValueError(f"cannot split {trials} trials into {batches} batches")
    campaign = prepare(config, weights, modalities, progress)

    t0 = time.perf_counter()
    records: dict[str, list[TrialRecord]] = {m: [] for m in campaign.modalities}
    for i in range(trials):
        for rec in run_index(campaign, i):
            records[rec.modality].append(rec)
        if (i + 1) % 25 == 0:
            progress(f"{i + 1}/{trials} trials")
    return ExperimentResult(seed=config.seed, trials=trials, batches=batches,
                            records=records,
                            campaign_wall_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# report files


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def record_to_dict(record: TrialRecord) -> dict:
    def clean(x):
        return None if not np.isfinite(x) else float(x)

    return {
        "modality": record.modality,
        "trial_index": record.trial_index,
        "attempts": record.attempts,
        "success": record.success,
        "runtime_s": float(record.runtime_s),
        "outcomes": [{"position": [clean(p) for p in o.position],
                      "result": o.result} for o in record.outcomes],
        "final_offset": (None if record.final_offset is None
                         else [float(v) for v in record.final_offset]),
        "placement": record.placement,
    }


def _number(value, what: str) -> float:
    """A finite JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not np.isfinite(number):  # a literal past the float range, like 1e999
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _count(value, what: str) -> int:
    """A JSON integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _pair(value, what: str, nulls: bool) -> tuple[float, float]:
    """A JSON list of two numbers; with ``nulls``, null reads as NaN."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{what} must be a list of two numbers, got {value!r}")
    return tuple(np.nan if nulls and p is None else _number(p, what)
                 for p in value)


def record_from_dict(data: dict) -> TrialRecord:
    """The record ``record_to_dict`` wrote; ValueError if a field has the
    wrong JSON type or the record breaks a rule of ``control.check_record``.

    ``success`` is a JSON bool, ``trial_index`` and ``attempts`` integers,
    ``runtime_s`` a finite number >= 0; positions hold finite numbers or
    null (no target), and ``final_offset`` is null or two finite numbers.
    """
    success = data["success"]
    if not isinstance(success, bool):
        raise ValueError(f"success must be true or false, got {success!r}")
    runtime_s = _number(data["runtime_s"], "runtime_s")
    if runtime_s < 0.0:
        raise ValueError(f"runtime_s must be finite and >= 0, got {runtime_s!r}")
    outcomes = tuple(
        AttemptOutcome(position=_pair(o["position"], "position", nulls=True),
                       result=o["result"])
        for o in data["outcomes"])
    final = data.get("final_offset")
    record = TrialRecord(
        modality=data["modality"],
        trial_index=_count(data["trial_index"], "trial_index"),
        attempts=_count(data["attempts"], "attempts"),
        success=success,
        runtime_s=runtime_s,
        outcomes=outcomes,
        final_offset=(None if final is None
                      else _pair(final, "final_offset", nulls=False)),
        placement=data.get("placement"),
    )
    check_record(record)
    return record


def write_report(records: dict[str, list[TrialRecord]], batches: int,
                 out_dir, manifest: dict | None = None) -> dict[str, Path]:
    """Write summary/histogram/cumulative CSVs plus records and manifest.

    Returns the path of every file written. Output is deterministic for a
    given record set. A modality whose records cannot be summarized in
    ``batches`` raises ValueError naming it before ``out_dir`` is made.
    """
    modalities = list(records)
    summaries = {}
    for m in modalities:
        try:
            summaries[m] = summarize_modality(records[m], batches)
        except ValueError as exc:
            raise ValueError(f"{m}: {exc}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def table(name, header, rows):
        paths[name] = out / f"{name}.csv"
        with open(paths[name], "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)

    table("summary",
          ["modality", "attempts_mean", "attempts_std",
           "runtime_s_mean", "runtime_s_std",
           "success_pct_mean", "success_pct_std",
           "first_time_pct_mean", "first_time_pct_std"],
          [[m, _fmt(s.attempts.mean), _fmt(s.attempts.std),
            _fmt(s.runtime_s.mean), _fmt(s.runtime_s.std),
            _fmt(s.success_pct.mean), _fmt(s.success_pct.std),
            _fmt(s.first_time_pct.mean), _fmt(s.first_time_pct.std)]
           for m, s in summaries.items()])
    # A modality's cumulative has a key for each attempt number up to its
    # own last one; past it, the probability is its success rate.
    attempt_ns = range(1, max((r.attempts for recs in records.values()
                               for r in recs), default=1) + 1)
    table("histogram", ["modality", "attempt_n", "success_count"],
          [[m, k, s.histogram.get(k, 0)]
           for m, s in summaries.items() for k in attempt_ns])
    table("cumulative", ["modality", "attempt_n", "cumulative_probability"],
          [[m, k, f"{s.cumulative.get(k, s.success_rate):.6f}"]
           for m, s in summaries.items() for k in attempt_ns])

    paths["records"] = out / "records.jsonl"
    with open(paths["records"], "w") as f:
        for m in modalities:
            for rec in records[m]:
                f.write(json.dumps(record_to_dict(rec), sort_keys=True) + "\n")

    paths["manifest"] = out / "run_manifest.json"
    base = {"package_version": PACKAGE_VERSION, "batches": batches,
            "modalities": modalities,
            "trials": {m: len(records[m]) for m in modalities}}
    if manifest:
        base.update(manifest)
    with open(paths["manifest"], "w") as f:
        json.dump(base, f, indent=2, sort_keys=True)
        f.write("\n")
    return paths


def emit_report(result: ExperimentResult, out_dir) -> dict[str, Path]:
    return write_report(result.records, result.batches, out_dir,
                        manifest={"seed": result.seed,
                                  "trials_requested": result.trials})


def _not_json_number(token: str):
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise ValueError(f"{token} is not a JSON number")


def load_records(path) -> dict[str, list[TrialRecord]]:
    """Read a records.jsonl back into per-modality record lists.

    Each modality's records come back in trial index order, and the
    modalities in the order their first lines appear, so the lines of a
    file may be shuffled without changing its report.

    A byte that is not UTF-8, a ``NaN`` or ``Infinity`` token (not JSON),
    a line that does not hold a trial record that keeps
    ``control.check_record``'s rules, or a record whose modality and trial
    index an earlier line already holds, raises ValueError naming the file
    and the line.
    """
    records: dict[str, list[TrialRecord]] = {}
    first_line: dict[tuple[str, int], int] = {}
    for line_no, line in enumerate(read_utf8(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = record_from_dict(json.loads(line,
                                              parse_constant=_not_json_number))
        except (ValueError, KeyError, TypeError, IndexError,
                OverflowError) as exc:
            raise ValueError(f"{path}: line {line_no}: not a trial record "
                             f"({type(exc).__name__}: {exc})") from None
        key = (rec.modality, rec.trial_index)
        if key in first_line:
            raise ValueError(f"{path}: line {line_no}: {rec.modality} trial "
                             f"index {rec.trial_index} repeats line "
                             f"{first_line[key]}")
        first_line[key] = line_no
        records.setdefault(rec.modality, []).append(rec)
    if not records:
        raise ValueError(f"{path}: no records found")
    for recs in records.values():
        recs.sort(key=lambda r: r.trial_index)
    return records
