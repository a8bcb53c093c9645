"""Deterministic desk-scale benchmark for multi-modal vial insertion.

A simulated camera-arm-rack cell, three insertion strategies (visual, force,
tactile), and a harness that scores them against each other on paired trials.
"""

from .bench import (ExperimentResult, ModalitySummary, emit_report,
                    load_records, run_experiment, summarize_modality,
                    write_report)
from .control import (MODALITIES, AttemptOutcome, TrialRecord, calibrate_rig,
                      run_force_trial, run_tactile_trial, run_visual_trial)
from .core import (ConfigError, PACKAGE_VERSION, RngStream, WorkspaceConfig,
                   dump_config, load_config, split_rng, validate_config)
from .simworld import (SceneState, SimError, make_rig, release_and_evaluate,
                       render_topdown, reset_trial, tick)

__version__ = PACKAGE_VERSION

__all__ = [
    "AttemptOutcome",
    "ConfigError",
    "ExperimentResult",
    "MODALITIES",
    "ModalitySummary",
    "PACKAGE_VERSION",
    "RngStream",
    "SceneState",
    "SimError",
    "TrialRecord",
    "WorkspaceConfig",
    "calibrate_rig",
    "dump_config",
    "emit_report",
    "load_config",
    "load_records",
    "make_rig",
    "release_and_evaluate",
    "render_topdown",
    "reset_trial",
    "run_experiment",
    "run_force_trial",
    "run_tactile_trial",
    "run_visual_trial",
    "split_rng",
    "summarize_modality",
    "tick",
    "validate_config",
    "write_report",
]
