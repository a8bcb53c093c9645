"""Wrist force buffering and contact decisions for monitored descents.

The sensor is read at a fixed rate into a sliding one-second window; the
stop rule compares the window mean against a baseline captured while the arm
was stationary, relative to the baseline's own magnitude so the rule is
insensitive to the rig's static load. The safety classification looks only
at the gripper height when a stop fires.
"""

from __future__ import annotations

import numpy as np

from .core import ForceConfig, WorkspaceConfig, buffer_capacity

_REFRESH_EVERY = 4096  # recompute the running sum exactly, bounding FP drift


class ForceBuffer:
    """Fixed-capacity FIFO of 3-axis samples with an O(1) running mean."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buf = np.zeros((capacity, 3))
        self._head = 0
        self._count = 0
        self._sum = np.zeros(3)
        self._pushes = 0

    def push(self, sample) -> None:
        v = np.asarray(sample, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"expected a 3-axis sample, got shape {v.shape}")
        if self._count == len(self._buf):
            self._sum -= self._buf[self._head]
        else:
            self._count += 1
        self._buf[self._head] = v
        self._sum += v
        self._head = (self._head + 1) % len(self._buf)
        self._pushes += 1
        if self._pushes % _REFRESH_EVERY == 0:
            self._sum = self._buf[:self._count].sum(axis=0)

    def mean(self) -> np.ndarray:
        if self._count == 0:
            raise ValueError("mean of an empty buffer")
        return self._sum / self._count


def init_baseline(samples, config: ForceConfig) -> np.ndarray:
    """Mean of stationary samples; requires a full window's worth."""
    arr = np.asarray([np.asarray(s, dtype=float) for s in samples])
    need = buffer_capacity(config)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be a sequence of 3-axis vectors")
    if arr.shape[0] < need:
        raise ValueError(
            f"baseline needs at least {need} samples, got {arr.shape[0]}")
    return arr.mean(axis=0)


def stop_threshold(baseline: np.ndarray, config: ForceConfig) -> float:
    magnitude = float(np.linalg.norm(baseline))
    return config.threshold * max(magnitude, config.floor)


def update_and_check(buffer: ForceBuffer, sample, baseline: np.ndarray,
                     config: ForceConfig) -> tuple[bool, float]:
    """Push one sample and evaluate the stop rule (strict inequality) on the
    norm of the window mean's deviation from the baseline; returns
    ``(stop, deviation)``."""
    buffer.push(sample)
    dev = float(np.linalg.norm(buffer.mean() - baseline))
    return dev > stop_threshold(baseline, config), dev


def safety_stop(grip_z: float, config: WorkspaceConfig) -> bool:
    """After a stop: is the gripper impossibly deep (below half rack height)?"""
    return grip_z < 0.5 * config.rack.height

