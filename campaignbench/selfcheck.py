#!/usr/bin/env python3
"""Self-check of the campaign benchmark on a tiny configuration.

    python3 campaignbench/selfcheck.py

Runs every workload as one campaign of two trials, trained on a toy training
set, once untraced and once traced, and checks that:

1. the run emits exactly the metrics BENCHMARK.json names for it, with
   the units it states;
2. spans nest: each is closed, lies inside its parent's interval and keeps
   its parent's trial index;
3. per-layer self times are >= 0 and sum to no more than the traced wall
   time.

It also fails when a run reports itself incorrect. Prints one line per
failed check and exits 1, or prints "selfcheck ok" and exits 0. Takes about
half a minute.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, WORKLOADS, result_json, run_workload
from tracer import nesting_problems, self_times

TINY = ("cnn.train_scenes = 4", "cnn.epochs = 1")


def check_workload(name: str, spec: dict) -> list[str]:
    failures = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        tag = f"{name} trace={int(trace)}"
        run = run_workload(name, seed=42, seconds=1, trace=trace, trials=2,
                           batches=1, campaigns=1, overrides=TINY)
        emitted = result_json(run)["metrics"]
        if not run.correct:
            failures.append(f"{tag}: run not correct: {run.problems}")
        named = {metric["name"]: metric["unit"] for metric in spec[section]}
        for metric, unit in named.items():
            got = emitted.get(metric)
            if got is None:
                failures.append(f"{tag}: metric {metric} not emitted")
            elif got["unit"] != unit:
                failures.append(f"{tag}: metric {metric} in {got['unit']}, "
                                f"BENCHMARK.json says {unit}")
        for metric in sorted(set(emitted) - set(named)):
            failures.append(f"{tag}: metric {metric} emitted but not in BENCHMARK.json")
        if not trace or run.tracer is None:
            continue
        span = run.tracer.spans()
        failures += [f"{tag}: {p}" for p in nesting_problems(span)]
        # Campaign wall time leaves out the host speed probes; so does this.
        probes = span["name_id"] == run.tracer.names.index("hostspeed.probe")
        own = self_times(span)[~probes]
        wall = sum(c.wall_s for c in run.campaigns)
        if (own < -1e-9).any():
            failures.append(f"{tag}: {int((own < -1e-9).sum())} negative self times")
        if own.sum() > wall:
            failures.append(f"{tag}: self times sum to {own.sum():.6f} s, "
                            f"more than the traced wall time {wall:.6f} s")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f for name in WORKLOADS for f in check_workload(name, spec)]
    for failure in failures:
        print(f"selfcheck: {failure}")
    if not failures:
        print("selfcheck ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
