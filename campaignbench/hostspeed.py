"""Host speed probe: a fixed numpy/scipy kernel timed between trials.

A shared host can change speed by a quarter within seconds: on the 2-core
VM this benchmark was written on, one fixed tactile frame loop took from
3.2 s to 5.0 s in consecutive runs a few seconds apart, with CPU time
tracking wall time (so the cause was not steal time). Timing a fixed kernel
after every trial samples the host's speed at the moments the campaign runs.
Scaling host times by ``NOMINAL_S`` over the kernel's mean time turns them
into seconds at the nominal host speed. In a test that interleaved the
frame loop with a kernel of this kind, their ratio stayed within 3% while
the loop's own time moved by a quarter.

The kernel uses no vialbench code, so no change to the package can move it.
It mixes the three kinds of work the campaign does: small-array numpy and
scipy calls on tactile-frame-sized arrays, scattered adds and filters over a
camera-sized array, and plain interpreter work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

# Mean kernel time, in seconds, at the speed the metrics are expressed in:
# roughly the typical speed of the 2-core host the benchmark was written on.
NOMINAL_S = 0.014


class HostSpeed:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._frame = gen.normal(128.0, 20.0, (160, 160))
        self._image = gen.normal(128.0, 20.0, (384, 512))
        self._index = gen.integers(0, self._image.size, 40_000)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(12):
            diff = np.abs(self._frame - self._frame.T)
            labels, count = ndimage.label(ndimage.uniform_filter(diff, 3) > 30.0)
            total += count + float(np.hypot(diff, diff).max())
        acc = np.zeros(self._image.size)
        np.add.at(acc, self._index, 1.0)
        total += float(ndimage.maximum_filter(acc.reshape(self._image.shape), 3).sum())
        for i in range(6000):
            total += i % 7
        return total

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Multiply host seconds by this to get seconds at nominal speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
