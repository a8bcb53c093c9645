#!/usr/bin/env python3
"""Assemble one committed benchmark snapshot, ``BENCH_<pr>.json``.

    python3 tools/bench_snapshot.py --pr 7
    python3 tools/bench_snapshot.py --pr 7 --results path/to/campaignbench/out

Runs nothing. It reads the result files that ``campaignbench/run.py``
writes, ``result-<workload>-seed<seed>-trace<0|1>.json``, for both
workloads at seeds 42 and 977, and writes ``BENCH_<pr>.json`` at the repo
root. For each workload and seed the snapshot holds the untraced run's
stamp, digests, ``setup_s`` and ``realtime_factor``, and the traced run's
per-call layer times in milliseconds (``busy_ms`` and, for functions with
traced children, ``self_ms``) with their call counts and its tracing
overhead. Produce the inputs first, e.g.

    python3 campaignbench/run.py --workload camera_campaign --seed 42 --trace 0
    python3 campaignbench/run.py --workload camera_campaign --seed 42 --trace 1

A missing or incorrect result, or a traced run of other source or with
another digest than the untraced one, ends with exit code 2 and one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("camera_campaign", "tactile_campaign")
SEEDS = (42, 977)


class SnapshotError(Exception):
    pass


def load_result(results: Path, workload: str, seed: int, trace: int) -> dict:
    path = results / f"result-{workload}-seed{seed}-trace{trace}.json"
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise SnapshotError(f"{path}: run is not correct "
                            f"(failed {result.get('failed')}, problems "
                            f"{result.get('problems')})")
    return result


def layer_times(metrics: dict) -> dict[str, dict]:
    """Per-call times of every traced function the run called."""
    out = {}
    for key, entry in metrics.items():
        if not key.endswith(".calls") or entry["value"] <= 0:
            continue
        fn = key[:-len(".calls")]
        calls = entry["value"]
        row = {"calls": int(calls),
               "busy_ms": 1e3 * metrics[f"{fn}.busy_s"]["value"] / calls}
        if f"{fn}.self_s" in metrics:
            row["self_ms"] = 1e3 * metrics[f"{fn}.self_s"]["value"] / calls
        out[fn] = row
    return out


def snapshot_entry(results: Path, workload: str, seed: int) -> dict:
    plain = load_result(results, workload, seed, 0)
    traced = load_result(results, workload, seed, 1)
    where = f"{results}: {workload} seed {seed}"
    if plain["stamp"]["src_sha256"] != traced["stamp"]["src_sha256"]:
        raise SnapshotError(f"{where}: traced and untraced runs are of "
                            f"different sources")
    if plain["digest"] != traced["digest"]:
        raise SnapshotError(f"{where}: traced digest {traced['digest'][:16]} "
                            f"differs from untraced {plain['digest'][:16]}")
    metrics = plain["metrics"]
    return {
        "stamp": plain["stamp"],
        "digest": plain["digest"],
        "campaign_digests": plain["campaign_digests"],
        "setup_s": metrics["setup_s"]["value"],
        "realtime_factor": metrics["realtime_factor"]["value"],
        "host_speed_factor": plain["stats"]["host_speed_factor"]["value"],
        "trace_overhead": traced["metrics"]["trace.overhead"]["value"],
        "layers": layer_times(traced["metrics"]),
    }


def build_snapshot(results: Path, pr: int) -> dict:
    return {"pr": pr,
            "workloads": {w: {str(s): snapshot_entry(results, w, s)
                              for s in SEEDS} for w in WORKLOADS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench_snapshot",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number in the output name BENCH_<pr>.json")
    p.add_argument("--results", type=Path,
                   default=ROOT / "campaignbench" / "out",
                   help="directory of campaignbench result files")
    args = p.parse_args(argv)
    try:
        snapshot = build_snapshot(args.results, args.pr)
    except SnapshotError as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
