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

A missing or incorrect result, a traced run of other source or with
another digest than the untraced one, or a run of other source than this
tree's ``src/vialbench`` ends with exit code 2 and one line. The source is
compared by the stamp's ``src_sha256``, which names the code that ran. The
stamp's ``git_rev`` only names the commit checked out when the runs were
made: a snapshot taken before its change is committed carries the parent
commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("camera_campaign", "tactile_campaign")
SEEDS = (42, 977)


class SnapshotError(Exception):
    pass


def source_digest() -> str:
    """sha256 over vialbench's source files, names included, computed as
    campaignbench/run.py computes a result's ``src_sha256``."""
    h = hashlib.sha256()
    src = ROOT / "src" / "vialbench"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


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


def snapshot_entry(results: Path, workload: str, seed: int,
                   src_sha256: str) -> dict:
    plain = load_result(results, workload, seed, 0)
    traced = load_result(results, workload, seed, 1)
    where = f"{results}: {workload} seed {seed}"
    if plain["stamp"]["src_sha256"] != traced["stamp"]["src_sha256"]:
        raise SnapshotError(f"{where}: traced and untraced runs are of "
                            f"different sources")
    if plain["stamp"]["src_sha256"] != src_sha256:
        raise SnapshotError(f"{where}: runs are of source "
                            f"{plain['stamp']['src_sha256'][:16]}, not this "
                            f"tree's src/vialbench {src_sha256[:16]}")
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
    src_sha256 = source_digest()
    return {"pr": pr,
            "workloads": {w: {str(s): snapshot_entry(results, w, s, src_sha256)
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
