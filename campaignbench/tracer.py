"""Spans around the public functions of vialbench's layers.

The benchmark never edits the package. It replaces a function at the name
the *calling* module binds (``control.detect_circles``, not
``perception.hough.detect_circles``): ``from x import f`` copies the
reference, so patching only the defining module would miss every call. The
span keeps the defining module's name, so a function bound in two callers
reports as one layer function.

Each span records its name, start, end, parent span and trial index in flat
lists. Spans stay in memory until the run writes them out. The campaign is
single-threaded, so one stack gives every span its parent and sibling spans
never overlap; a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# Span name -> modules of vialbench whose global of that name is replaced.
TRIAL_SITES = {
    "control.run_visual_trial": ("bench",),
    "control.run_force_trial": ("bench",),
    "control.run_tactile_trial": ("bench",),
}

LAYER_SITES = {
    "bench.run_experiment": ("bench",),
    "bench.emit_report": ("bench",),
    **TRIAL_SITES,
    "control.calibrate_rig": ("bench",),
    "core.split_rng": ("bench",),
    "simworld.make_rig": ("bench",),
    "perception.pipeline.train_discriminator": ("bench",),
    "perception.pipeline.generate_labeled_dataset": ("perception.pipeline",),
    "perception.cnn.train_cnn": ("perception.pipeline",),
    "perception.cnn.loss_and_grads": ("perception.cnn",),
    "perception.cnn.forward": ("perception.pipeline", "perception.cnn"),
    "perception.cnn.load_weights": ("perception",),
    "perception.hough.detect_circles": ("control", "perception.pipeline"),
    "perception.pipeline.score_candidates": ("control",),
    "simworld.reset_trial": ("control", "perception.pipeline"),
    "simworld.render_topdown": ("control", "perception.pipeline"),
    "geometry.plane_grid": ("simworld",),
    "simworld.tick": ("control",),
    "simworld.reference_frames": ("control",),
    "simworld.sample_tactile": ("control", "simworld"),
    "tactile.find_contact": ("control", "tactile"),
    "tactile.track_deviation": ("control",),
    "tactile.calibrate_mapping": ("control",),
    "force.init_baseline": ("control",),
    "force.update_and_check": ("control",),
    "search.compute_search_bounds": ("control",),
    "search.next_trial_positions": ("control",),
}


def layer_of(span_name: str) -> str:
    """``perception.hough.detect_circles`` -> ``perception.hough``."""
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trial: list[int] = []
        self._child_s: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, hook=None, is_trial: bool = False):
        """``fn`` recording one span per call; ``hook`` sees each result."""
        nid = self._id(name)
        stack, starts, ends, parents, trials, child_s, name_ids = (
            self._stack, self.start, self.end, self.parent, self.trial,
            self._child_s, self.name_id)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_trial:
                trial = int(kwargs.get("trial_index", 0))
            else:
                trial = trials[parent] if parent >= 0 else -1
            i = len(starts)
            name_ids.append(nid)
            parents.append(parent)
            trials.append(trial)
            ends.append(float("nan"))
            child_s.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = time.perf_counter()
                ends[i] = t
                stack.pop()
                if parent >= 0:
                    child_s[parent] += t - starts[i]
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, sites: dict[str, tuple[str, ...]], hooks=None):
        """Patch every site for the duration of the block, then restore."""
        hooks = hooks or {}
        undo = []
        try:
            for name, modules in sites.items():
                attr = name.rsplit(".", 1)[1]
                for mod_name in modules:
                    module = importlib.import_module(f"vialbench.{mod_name}")
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"vialbench.{mod_name}.{attr}")
                        continue
                    setattr(module, attr, self.wrap(
                        name, original, hooks.get(name), name in TRIAL_SITES))
                    undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    # -- reading the spans back ------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns as arrays."""
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "trial": np.asarray(self.trial, dtype=np.int32),
            "child_s": np.asarray(self._child_s, dtype=float),
        }

    def trial_spans(self, first: int = 0) -> list[tuple[str, float, float]]:
        """(modality, start, end) of every trial span from ``first`` on."""
        return [(self.names[self.name_id[i]].split("_")[1], self.start[i],
                 self.end[i])
                for i in range(first, len(self.start))
                if self.names[self.name_id[i]] in TRIAL_SITES]

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.spans())


def self_times(span: dict[str, np.ndarray]) -> np.ndarray:
    return (span["end"] - span["start"]) - span["child_s"]


def nesting_problems(span: dict[str, np.ndarray]) -> list[str]:
    """Spans that are open, end before they start, leave their parent's
    interval, or carry a trial index other than their parent's."""
    problems = []
    start, end, parent, trial = (span["start"], span["end"], span["parent"],
                                 span["trial"])
    if np.isnan(end).any():
        problems.append(f"{int(np.isnan(end).sum())} spans never closed")
    if (end < start).any():
        problems.append(f"{int((end < start).sum())} spans end before they start")
    kid = np.nonzero(parent >= 0)[0]
    p = parent[kid]
    outside = (start[kid] < start[p]) | (end[kid] > end[p])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans leave their parent's interval")
    if ((trial[kid] != trial[p]) & (trial[p] >= 0)).any():
        problems.append("a span inside a trial carries another trial index")
    return problems
