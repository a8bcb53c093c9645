"""The campaign benchmark's tracer wraps functions at the names the calling
modules bind. A refactor that unbinds one of them would only make the
benchmark print "not traced (name gone)", and one that stops calling a
function through its bound name would read 0 calls for it, so the suite
checks both here."""

import importlib.util
from collections import Counter
from pathlib import Path
from unittest import mock

from vialbench import bench, simworld
from vialbench.control import MODALITIES
from vialbench.core import load_config

TRACER = Path(__file__).resolve().parents[1] / "campaignbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("campaign_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_site_is_bound():
    tracer = _load_tracer()
    with tracer.Tracer().installed(tracer.LAYER_SITES) as installed:
        pass
    assert installed.missing == []


def test_every_trial_loop_site_is_called(config, weights, tmp_path):
    """Four indices of every modality reach each site bound in the trial
    loop's modules, the lattice search's two included."""
    tracer = _load_tracer()
    with tracer.Tracer().installed(tracer.LAYER_SITES) as installed:
        result = bench.run_experiment(config, 4, 1, weights=weights,
                                      modalities=MODALITIES)
        bench.emit_report(result, tmp_path)
    calls = Counter(installed.names[i] for i in installed.name_id)
    loop_sites = [name for name, modules in tracer.LAYER_SITES.items()
                  if {"control", "simworld", "tactile"} & set(modules)]
    assert "search.next_trial_positions" in loop_sites
    assert [name for name in loop_sites if not calls[name]] == []


def test_every_bench_site_is_called(tmp_path):
    """A run that trains its own classifier and includes tactile reaches
    each site bound at ``bench``: the rig, its calibration and the training
    that ``prepare`` builds, as well as the trial loop's."""
    tracer = _load_tracer()
    config = load_config("", ["cnn.train_scenes = 4", "cnn.epochs = 1"])
    with tracer.Tracer().installed(tracer.LAYER_SITES) as installed:
        result = bench.run_experiment(config, 2, 1, modalities=MODALITIES)
        bench.emit_report(result, tmp_path)
    calls = Counter(installed.names[i] for i in installed.name_id)
    bench_sites = [name for name, modules in tracer.LAYER_SITES.items()
                   if "bench" in modules]
    assert "simworld.make_rig" in bench_sites
    assert [name for name in bench_sites if not calls[name]] == []


def test_drawing_ahead_keeps_the_span_tree(config, weights):
    """The tracer keeps one span stack, so the thread that draws a tactile
    trial's pixel noise ahead must never call a traced function: spans
    nest, and each site is called as often as when every draw is made in
    line (one CPU, no thread)."""
    tracer = _load_tracer()
    calls, records = [], []
    for cpus in ({0, 1}, {0}):
        with mock.patch.object(simworld.os, "sched_getaffinity",
                               lambda pid, cpus=cpus: cpus, create=True), \
                tracer.Tracer().installed(tracer.LAYER_SITES) as installed:
            result = bench.run_experiment(config, 4, 1, weights=weights,
                                          modalities=("tactile",))
        assert tracer.nesting_problems(installed.spans()) == []
        calls.append(Counter(installed.names[i] for i in installed.name_id))
        records.append(result.records)
    assert calls[0] == calls[1] and calls[0]["simworld.sample_tactile"] > 0
    assert records[0] == records[1]
