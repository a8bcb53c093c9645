"""tools/bench_snapshot.py: result files in, one snapshot out."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(value):
    return {"value": value, "unit": "x"}


def _write_results(out: Path, src, digest="d" * 64, traced_digest=None,
                   traced_src=None):
    for workload in ("camera_campaign", "tactile_campaign"):
        for seed in (42, 977):
            stem = f"result-{workload}-seed{seed}"
            plain = {"correct": True, "failed": 0, "digest": digest,
                     "campaign_digests": [digest[:8]],
                     "stamp": {"src_sha256": src, "seed": seed},
                     "metrics": {"setup_s": _metric(0.5),
                                 "realtime_factor": _metric(400.0)},
                     "stats": {"host_speed_factor": _metric(1.1)}}
            traced = {"correct": True, "failed": 0,
                      "digest": traced_digest or digest,
                      "stamp": {"src_sha256": traced_src or src,
                                "seed": seed},
                      "metrics": {
                          "simworld.render_topdown.calls": _metric(200),
                          "simworld.render_topdown.busy_s": _metric(0.8),
                          "simworld.render_topdown.self_s": _metric(0.6),
                          "geometry.plane_grid.calls": _metric(400),
                          "geometry.plane_grid.busy_s": _metric(0.004),
                          "tactile.find_contact.calls": _metric(0),
                          "tactile.find_contact.busy_s": _metric(0.0),
                          "trace.overhead": _metric(0.01)}}
            (out / f"{stem}-trace0.json").write_text(json.dumps(plain))
            (out / f"{stem}-trace1.json").write_text(json.dumps(traced))


def test_snapshot_holds_end_to_end_and_per_call_times(tool, tmp_path):
    _write_results(tmp_path, tool.source_digest())
    snap = tool.build_snapshot(tmp_path, 7)
    assert snap["pr"] == 7
    assert set(snap["workloads"]) == {"camera_campaign", "tactile_campaign"}
    entry = snap["workloads"]["camera_campaign"]["977"]
    assert entry["stamp"]["seed"] == 977
    assert entry["digest"] == "d" * 64
    assert (entry["setup_s"], entry["realtime_factor"]) == (0.5, 400.0)
    assert entry["layers"] == {
        "simworld.render_topdown": {"calls": 200, "busy_ms": pytest.approx(4.0),
                                    "self_ms": pytest.approx(3.0)},
        "geometry.plane_grid": {"calls": 400, "busy_ms": pytest.approx(0.01)},
    }


@pytest.mark.parametrize("kwargs, fragment", [
    ({"traced_digest": "e" * 64}, "traced digest eeeeeeeeeeeeeeee differs"),
    ({"traced_src": "other"}, "different sources"),
])
def test_mismatched_runs_are_refused(tool, tmp_path, capsys, kwargs, fragment):
    _write_results(tmp_path, tool.source_digest(), **kwargs)
    assert tool.main(["--pr", "7", "--results", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and fragment in lines[0]


def test_missing_or_failed_result_is_refused(tool, tmp_path, capsys):
    _write_results(tmp_path, tool.source_digest())
    path = tmp_path / "result-tactile_campaign-seed977-trace1.json"
    bad = json.loads(path.read_text())
    bad["failed"] = 1
    path.write_text(json.dumps(bad))
    assert tool.main(["--pr", "7", "--results", str(tmp_path)]) == 2
    assert "run is not correct" in capsys.readouterr().err
    path.unlink()
    assert tool.main(["--pr", "7", "--results", str(tmp_path)]) == 2
    assert "No such file" in capsys.readouterr().err


def test_runs_of_other_source_are_refused(tool, tmp_path, capsys):
    """Runs whose stamped source is not this tree's (say, the parent
    commit's) cannot make this tree's snapshot."""
    _write_results(tmp_path, "a" * 64)
    assert tool.main(["--pr", "7", "--results", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "runs are of source aaaaaaaaaaaaaaaa, not this tree's" in lines[0]


def test_source_digest_is_campaignbench_stamp(tool, monkeypatch):
    """The tool keeps its own copy of the digest the benchmark stamps, so
    that it does not import the benchmark; the two must agree. run.py is
    loaded by path with its directory on sys.path (it imports its
    neighbours) and itself in sys.modules (its dataclasses look their
    module up there); what loading it sets is undone afterwards."""
    bench = TOOL.parents[1] / "campaignbench"
    monkeypatch.syspath_prepend(str(bench))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("campaign_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "campaign_run", run)
    try:
        spec.loader.exec_module(run)
    finally:
        for name in ("hostspeed", "tracer"):
            sys.modules.pop(name, None)
    assert run.source_digest() == tool.source_digest()
