#!/usr/bin/env python3
"""Campaign benchmark: seeded vialbench campaigns timed from outside the package.

    python3 campaignbench/run.py --workload camera_campaign --seed 42 \
        --seconds 50 --trace 0

A run is a fixed set of campaigns, each driven exactly as ``vialbench run``
drives one: ``bench.run_experiment`` and then ``bench.emit_report``. The
trial count is sized from ``--seconds`` but never from how fast the code
runs, so two commits always run identical trials. Times are scaled to a
nominal host speed (see hostspeed.py). ``--trace 0`` times the campaigns and
prints the end-to-end metrics. ``--trace 1`` also runs every campaign with
spans around each layer's public functions, and prints the per-layer metrics
and the tracing overhead.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, stamped with versions and seeds, also goes to
``campaignbench/out/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The campaign is single-threaded; one BLAS thread keeps timings steady on a
# shared host. These must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if not (ROOT / "src" / "vialbench").is_dir():
    sys.exit(f"campaignbench: no vialbench sources in {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import scipy
    from vialbench import bench, perception
    from vialbench.core import load_config
except ImportError as exc:
    sys.exit(f"campaignbench: cannot import vialbench from {ROOT / 'src'}: {exc}")

from hostspeed import HostSpeed
from tracer import LAYER_SITES, TRIAL_SITES, Tracer, layer_of, self_times

# Every campaign trains on 16 of the default 120 scenes for 4 of the default
# 20 epochs, so that a camera run can train more than once.
TRAIN_OVERRIDES = ("cnn.train_scenes = 16", "cnn.epochs = 4")


@dataclass(frozen=True)
class Workload:
    name: str
    modalities: tuple[str, ...]
    pretrained: bool      # weights trained once per seed, outside timing
    campaigns: int        # campaigns per run, each on its own seed
    trials_per_s: float   # trials per modality per second of --seconds
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("camera_campaign", ("visual", "force"), False, 2, 0.64,
             "trains in-process, then paired visual and force trials: "
             "dataset synthesis, SGD and circle detection at both camera "
             "heights; no tactile code runs"),
    Workload("tactile_campaign", ("tactile",), True, 22, 1.76,
             "pre-trained weights, fingertip calibration, then tactile "
             "trials: frame rendering and contact tracing at 60 Hz inside "
             "the 125 Hz ticks; no SGD, little circle detection"),
)}

MODALITIES = ("visual", "force", "tactile")
OUTCOMES = ("inserted", "rack_top", "safety_stop", "released_failed",
            "lost_contact", "no_target")
# Layers whose functions can run inside a trial.
TRIAL_LAYERS = ("control", "simworld", "geometry", "perception.hough",
                "perception.pipeline", "perception.cnn", "tactile", "force",
                "search")
# Traced functions that call other traced functions; they also get .self_s.
PARENT_FNS = {
    "bench.run_experiment", "control.run_visual_trial",
    "control.run_force_trial", "control.run_tactile_trial",
    "control.calibrate_rig", "perception.pipeline.train_discriminator",
    "perception.pipeline.generate_labeled_dataset", "perception.cnn.train_cnn",
    "perception.cnn.loss_and_grads", "perception.pipeline.score_candidates",
    "simworld.render_topdown", "simworld.reference_frames",
    "tactile.track_deviation",
}


def end_to_end_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the end-to-end metrics BENCHMARK.json gates,
    which a ``--trace 0`` run prints as JSON. The others are only printed:
    their spread over seeds is too wide for a gate (see README.md)."""
    return [("setup_s", "s", "lower"), ("realtime_factor", "s/s", "higher")]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a ``--trace 1`` run prints."""
    spec = []
    for fn in LAYER_SITES:
        spec.append((f"{fn}.calls", "count", "lower"))
        spec.append((f"{fn}.busy_s", "s", "lower"))
        if fn in PARENT_FNS:
            spec.append((f"{fn}.self_s", "s", "lower"))
    spec += [
        ("perception.hough.candidates_per_image", "count", "lower"),
        ("perception.pipeline.rack_accept_frac", "ratio", "higher"),
        ("simworld.tick.per_trial", "count", "lower"),
    ]
    for m in MODALITIES:
        spec.append((f"control.trials.{m}", "count", "higher"))
        spec.append((f"control.attempts.{m}", "count", "lower"))
        spec.append((f"control.successes.{m}", "count", "higher"))
    for kind in OUTCOMES:
        spec.append((f"control.outcomes.{kind}", "count",
                     "higher" if kind == "inserted" else "lower"))
    for layer in TRIAL_LAYERS:
        spec.append((f"{layer}.trial_share", "ratio", "lower"))
    spec.append(("trace.overhead", "ratio", "lower"))
    return spec


# ---------------------------------------------------------------------------
# inputs


def campaign_seeds(seed: int, count: int) -> list[int]:
    """The workload seed itself, then seeds derived from it, so that seed 42
    starts with the reference campaign and no two workload seeds share a
    campaign."""
    derived = np.random.SeedSequence(seed).generate_state(count - 1)
    return [seed, *(int(s) for s in derived)]


def campaign_config(seed: int, overrides=()):
    return load_config("", [*TRAIN_OVERRIDES, *overrides, f"seed = {seed}"])


def source_digest() -> str:
    """sha256 over vialbench's source files, names included."""
    h = hashlib.sha256()
    src = ROOT / "src" / "vialbench"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def pretrained_weights(seed: int, overrides, src_digest: str) -> tuple[Path, bool]:
    """Weights trained from ``seed`` by ``vialbench train``, cached per source
    digest. Returns (path, whether this call trained them). Training runs in
    a child process so that it does not count toward this one's peak memory."""
    tag = hashlib.sha256(repr((src_digest, TRAIN_OVERRIDES, tuple(overrides),
                               seed)).encode()).hexdigest()[:16]
    path = OUT / "cache" / f"weights-{tag}.bin"
    if path.exists():
        return path, False
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    sets = [a for o in (*TRAIN_OVERRIDES, *overrides) for a in ("--set", o)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "vialbench", "train", "--seed",
                    str(seed), *sets, "--out", str(tmp)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    os.replace(tmp, path)
    return path, True


# ---------------------------------------------------------------------------
# one campaign


@dataclass
class Campaign:
    seed: int
    wall_s: float
    setup_s: float
    trial_s: float                    # summed trial durations
    trial_times: dict[str, list[float]]
    records: dict                     # modality -> list[TrialRecord]
    digest: str
    problems: list[str]
    probe_s: float                    # mean host speed probe time


def run_campaign(w: Workload, config, trials: int, batches: int,
                 weights_path: Path | None, out_dir: Path, tracer: Tracer,
                 sites, hooks, speed: HostSpeed) -> Campaign:
    """One campaign as ``vialbench run`` does it, timed around the call.
    ``hooks`` probe ``speed`` after every trial; that time is not campaign
    time."""
    first = len(tracer.start)
    first_probe, probed = len(speed.samples), speed.total_s
    with tracer.installed(sites, hooks):
        t0 = time.perf_counter()
        weights = (perception.load_weights(weights_path)
                   if weights_path is not None else None)
        result = bench.run_experiment(config, trials, batches, weights=weights,
                                      modalities=w.modalities)
        bench.emit_report(result, out_dir)
        t1 = time.perf_counter()
    probed = speed.total_s - probed
    trials_run = tracer.trial_spans(first)
    trial_times: dict[str, list[float]] = {}
    for m, start, end in trials_run:
        trial_times.setdefault(m, []).append(end - start)
    problems = [f"{m}: timed {len(trial_times.get(m, []))} of {trials} trials"
                for m in w.modalities if len(trial_times.get(m, [])) != trials]
    first_start = min((s for _, s, _ in trials_run), default=t1)
    digest, report_problems = check_report(out_dir, result, trials, batches)
    return Campaign(
        seed=config.seed, wall_s=t1 - t0 - probed, setup_s=first_start - t0,
        trial_s=sum(e - s for _, s, e in trials_run), trial_times=trial_times,
        records=result.records, digest=digest,
        problems=problems + report_problems,
        probe_s=statistics.fmean(speed.samples[first_probe:]))


def check_report(out_dir: Path, result, trials: int, batches: int):
    """Digest of records.jsonl + summary.csv, and the report's own checks:
    every trial has a record, and the CSVs rebuild byte for byte from the
    records alone, as ``vialbench report`` rebuilds them."""
    problems = []
    for m, recs in result.records.items():
        if len(recs) != trials:
            problems.append(f"{m}: {len(recs)} records for {trials} trials")
    records = (out_dir / "records.jsonl").read_bytes()
    summary = (out_dir / "summary.csv").read_bytes()
    digest = hashlib.sha256(records + b"\0" + summary).hexdigest()
    rebuilt = bench.write_report(bench.load_records(out_dir / "records.jsonl"),
                                 batches, out_dir / "rebuilt")
    for name in ("summary", "histogram", "cumulative"):
        if rebuilt[name].read_bytes() != (out_dir / rebuilt[name].name).read_bytes():
            problems.append(f"{rebuilt[name].name} does not rebuild from records")
    return digest, problems


def check_ledger(key: str, digest: str) -> str:
    """Digest seen before for ``key`` (the same code, workload and inputs);
    records ``digest`` when the key is new."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    if key not in ledger:
        ledger[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    return ledger[key]


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    trials: int
    batches: int
    seeds: list[int]
    stamp: dict
    campaigns: list[Campaign] = field(default_factory=list)
    baseline: Campaign | None = None   # trace runs: the first, untraced
    tracer: Tracer | None = None
    speed: HostSpeed | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    stats: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and bool(self.metrics)


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def make_stamp(w: Workload, seed: int, trials: int, batches: int,
               seeds: list[int], overrides, src_digest: str) -> dict:
    return {
        "workload": w.name, "seed": seed, "campaign_seeds": seeds,
        "trials_per_modality": trials, "modalities": list(w.modalities),
        "batches": batches,
        "config_overrides": [*TRAIN_OVERRIDES, *overrides],
        "git_rev": git_rev(), "src_sha256": src_digest,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 trials: int | None = None, batches: int = 3,
                 campaigns: int | None = None, overrides=()) -> RunResult:
    w = WORKLOADS[name]
    count = campaigns or w.campaigns
    if trials is None:
        trials = max(batches, round(seconds * w.trials_per_s / count))
    seeds = campaign_seeds(seed, count)
    src_digest = source_digest()
    run = RunResult(name, seed, trace, trials, batches, seeds,
                    make_stamp(w, seed, trials, batches, seeds, overrides,
                               src_digest))
    ops_per_campaign = trials * len(w.modalities) + 2  # + set-up + report

    weights_path = None
    if w.pretrained:
        try:
            weights_path, trained = pretrained_weights(seed, overrides, src_digest)
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.failed += 1
            return run
        run.attempted += trained

    theta = campaign_config(seed, overrides).cnn.theta_rack
    timer = Tracer()
    run.tracer = tracer = Tracer() if trace else None
    hooks = {
        "perception.hough.detect_circles": lambda cands: (
            tracer.count("images"), tracer.count("candidates", len(cands))),
        "perception.pipeline.score_candidates": lambda scored: (
            tracer.count("scored", len(scored)),
            tracer.count("accepted", sum(s.p_rack >= theta for s in scored))),
    }
    # Every campaign probes the host's speed after each trial. In a traced
    # campaign the probe is a span of its own, so no layer's self time holds it.
    run.speed = speed = HostSpeed()
    probe = {n: lambda _: speed.sample() for n in TRIAL_SITES}
    plan = [(timer, TRIAL_SITES, probe, s) for s in seeds]
    if trace:
        traced_probe = tracer.wrap("hostspeed.probe", speed.sample)
        hooks.update({n: lambda _: traced_probe() for n in TRIAL_SITES})
        # The first campaign runs untraced twice: first to warm the process
        # up, then right after its traced run, as the baseline for the overhead.
        traced = [(tracer, LAYER_SITES, hooks, s) for s in seeds]
        plan = [plan[0], traced[0], plan[0], *traced[1:]]
    done: list[Campaign] = []
    for k, (rec, sites, hk, cseed) in enumerate(plan):
        run.attempted += ops_per_campaign
        out_dir = OUT / "reports" / name / f"seed{seed}" / f"campaign{k}"
        try:
            c = run_campaign(w, campaign_config(cseed, overrides), trials,
                             batches, weights_path, out_dir, rec, sites, hk,
                             speed)
        except Exception:
            traceback.print_exc()
            run.failed += 1
            continue
        run.failed += bool(c.problems)
        run.problems += c.problems
        done.append(c)
    if len(done) != len(plan):
        return run
    if trace:
        warm, first, run.baseline, *rest = done
        run.campaigns = [first, *rest]
        if not warm.digest == run.baseline.digest == run.campaigns[0].digest:
            run.failed += 1
            run.problems.append("tracing changed the report of the first campaign")
    else:
        run.campaigns = done
    run.digest = hashlib.sha256(
        "".join(c.digest for c in run.campaigns).encode()).hexdigest()
    key = f"{src_digest}|{name}|{seed}|{trials}|{batches}|{len(seeds)}|{list(overrides)}"
    seen = check_ledger(key, run.digest)
    if seen != run.digest:
        run.failed += 1
        run.problems.append(f"report digest {run.digest[:16]} differs from "
                            f"{seen[:16]} of an earlier run of this code")
    run.stats = run_stats(run)
    run.metrics = (layer_metrics(run) if trace else
                   {name: run.stats[name] for name, _, _ in end_to_end_spec()})
    return run


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; the
    median when there are too few samples for that."""
    return max(50, min(99, int(100 * (1 - 10 / n)))) if n > 0 else 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_factor(run: RunResult) -> float:
    """Host seconds times this are seconds at nominal host speed."""
    return run.speed.factor() if run.speed.samples else 1.0


def run_stats(run: RunResult) -> dict[str, tuple[float, str]]:
    """Every end-to-end statistic of the run, gated or only printed."""
    cs = run.campaigns
    f = speed_factor(run)
    records = [r for c in cs for recs in c.records.values() for r in recs]
    trial_s = f * sum(c.trial_s for c in cs)
    out = {
        "setup_s": (f * statistics.median(c.setup_s for c in cs), "s"),
        "campaign_s": (f * statistics.fmean(c.wall_s for c in cs), "s"),
        "trials_per_s": (len(records) / trial_s, "1/s"),
        "realtime_factor": (sum(r.runtime_s for r in records) / trial_s, "s/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for m in WORKLOADS[run.workload].modalities:
        ms = np.array([t for c in run.campaigns for t in c.trial_times[m]]) * 1e3 * f
        p = tail_percentile(len(ms))
        recs = [r for c in run.campaigns for r in c.records[m]]
        out[f"trial_ms_p50.{m}"] = (float(np.median(ms)), "ms")
        out[f"trial_ms_tail.{m}"] = (float(np.percentile(ms, p)),
                                     f"ms@p{p}/n{len(ms)}")
        out[f"success_rate.{m}"] = (sum(r.success for r in recs) / len(recs),
                                    "ratio")
    out["error_rate"] = (run.failed / run.attempted, "ratio")
    out["host_speed_factor"] = (f, "ratio")
    out["campaign_wall_s"] = (statistics.fmean(c.wall_s for c in run.campaigns), "s")
    return out


def layer_metrics(run: RunResult) -> dict[str, tuple[float, str]]:
    tracer = run.tracer
    span = tracer.spans()
    span_names = np.asarray(tracer.names)[span["name_id"]]
    dur = span["end"] - span["start"]
    own = self_times(span)
    units = {name: unit for name, unit, _ in per_layer_spec()}
    values: dict[str, float] = {}
    for fn in LAYER_SITES:
        hit = span_names == fn
        values[f"{fn}.calls"] = int(hit.sum())
        values[f"{fn}.busy_s"] = float(dur[hit].sum())
        if fn in PARENT_FNS:
            values[f"{fn}.self_s"] = float(own[hit].sum())
    counts = tracer.counts
    values["perception.hough.candidates_per_image"] = (
        counts.get("candidates", 0) / counts["images"] if counts.get("images") else 0.0)
    values["perception.pipeline.rack_accept_frac"] = (
        counts.get("accepted", 0) / counts["scored"] if counts.get("scored") else 0.0)
    n_trials = sum(values[f"{fn}.calls"] for fn in TRIAL_SITES)
    values["simworld.tick.per_trial"] = (
        values["simworld.tick.calls"] / n_trials if n_trials else 0.0)
    for m in MODALITIES:
        recs = [r for c in run.campaigns for r in c.records.get(m, [])]
        values[f"control.trials.{m}"] = len(recs)
        values[f"control.attempts.{m}"] = sum(r.attempts for r in recs)
        values[f"control.successes.{m}"] = sum(r.success for r in recs)
    outcomes = [o.result for c in run.campaigns for recs in c.records.values()
                for r in recs for o in r.outcomes]
    for kind in OUTCOMES:
        values[f"control.outcomes.{kind}"] = outcomes.count(kind)
    in_trial = span["trial"] >= 0
    trial_total = float(dur[np.isin(span_names, list(TRIAL_SITES))].sum())
    layers = np.array([layer_of(n) for n in tracer.names])[span["name_id"]]
    for layer in TRIAL_LAYERS:
        share = own[in_trial & (layers == layer)].sum()
        values[f"{layer}.trial_share"] = float(share / trial_total) if trial_total else 0.0
    traced, untraced = run.campaigns[0], run.baseline
    values["trace.overhead"] = ((traced.wall_s / traced.probe_s)
                                / (untraced.wall_s / untraced.probe_s) - 1.0)
    return {k: (float(v), units[k]) for k, v in values.items()}


# ---------------------------------------------------------------------------
# command line


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_run(run: RunResult) -> None:
    w = WORKLOADS[run.workload]
    print(f"campaignbench {run.workload} seed={run.seed} trace={int(run.trace)} "
          f"campaigns={len(run.seeds)} trials={run.trials}x{len(w.modalities)} "
          f"batches={run.batches}")
    print("stamp " + json.dumps(run.stamp, sort_keys=True))
    sets = " ".join(f"--set {o.replace(' ', '')}" for o in run.stamp["config_overrides"])
    if run.baseline is not None:
        print(f"  untraced baseline seed={run.baseline.seed} "
              f"{run.baseline.wall_s:.3f} s digest {run.baseline.digest[:16]}")
    for c in run.campaigns:
        how = (f"--modality tactile --weights W(seed {run.seed})" if w.pretrained
               else "--modality all (visual and force rows)")
        print(f"  campaign seed={c.seed} {c.wall_s:.3f} s digest {c.digest[:16]}  "
              f"= vialbench run --seed {c.seed} --trials {run.trials} "
              f"--batches {run.batches} {how} {sets}")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print(f"digest {run.workload} seed={run.seed} {run.digest or 'none'}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:48s} {_fmt(value):>12s} {unit}")
    print("not gated" + (" (traced: times include tracing)" if run.trace else ""))
    for name, (value, unit) in run.stats.items():
        if name not in run.metrics:
            print(f"  {name:48s} {_fmt(value):>12s} {unit}")
    if run.tracer is not None:
        for site in sorted(set(run.tracer.missing)):
            print(f"  not traced (name gone): {site}")


def result_json(run: RunResult) -> dict:
    return {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }


def save_run(run: RunResult) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    if run.tracer is not None:
        run.tracer.save(OUT / f"spans-{stem}.npz")
    path = OUT / f"result-{stem}.json"
    path.write_text(json.dumps({
        **result_json(run), "stamp": run.stamp, "digest": run.digest,
        "campaign_digests": [c.digest for c in run.campaigns],
        "stats": {k: {"value": v, "unit": u} for k, (v, u) in run.stats.items()},
        "problems": run.problems,
    }, indent=1) + "\n")
    return path


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(f"{self.prog}: error: {message}")


def parse_args(argv=None):
    p = _Parser(prog="campaignbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=50,
                   help="nominal run length; sizes the trial count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per modality per campaign (default: from --seconds)")
    p.add_argument("--batches", type=int, default=3)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds < 1:
        p.error(f"--seconds must be >= 1, got {args.seconds}")
    if args.batches < 1:
        p.error(f"--batches must be >= 1, got {args.batches}")
    if args.trials is not None and args.trials < args.batches:
        p.error(f"need trials >= batches >= 1, got --trials {args.trials} "
                f"--batches {args.batches}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       trials=args.trials, batches=args.batches)
    print_run(run)
    print(f"result file {save_run(run).relative_to(ROOT)}")
    print(json.dumps(result_json(run)), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
