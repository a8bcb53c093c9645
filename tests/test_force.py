"""Force monitor: FIFO baseline, strict deviation rule, height tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vialbench.core import ForceConfig, load_config
from vialbench.force import (ForceBuffer, buffer_capacity, init_baseline,
                             safety_stop, stop_threshold, update_and_check)

CFG = ForceConfig()


def filled_buffer(sample, capacity=125):
    buf = ForceBuffer(capacity)
    for _ in range(capacity):
        buf.push(sample)
    return buf


def test_capacity_from_rate():
    assert buffer_capacity(CFG) == 125
    assert buffer_capacity(ForceConfig(rate=200, buffer_seconds=0.5)) == 100


def test_baseline_constant_samples():
    samples = [(0.0, 0.0, -10.0)] * 125
    assert np.array_equal(init_baseline(samples, CFG), [0.0, 0.0, -10.0])


def test_baseline_noise_within_standard_error():
    sigma = 0.05
    gen = np.random.default_rng(6)
    n = 400
    samples = np.array([0.0, 0.0, -10.0]) + gen.normal(0, sigma, (n, 3))
    base = init_baseline(samples, CFG)
    bound = 4 * sigma / np.sqrt(n)
    assert np.all(np.abs(base - [0.0, 0.0, -10.0]) <= bound)


def test_baseline_needs_full_window():
    with pytest.raises(ValueError):
        init_baseline([(0.0, 0.0, -10.0)] * 124, CFG)


def test_deviation_25_percent_stops():
    baseline = np.array([0.0, 0.0, -10.0])
    buf = filled_buffer([0.0, 0.0, -12.5])
    stop, dev = update_and_check(buf, [0.0, 0.0, -12.5], baseline, CFG)
    assert dev == pytest.approx(2.5)
    assert stop is True


def test_deviation_15_percent_continues():
    baseline = np.array([0.0, 0.0, -10.0])
    buf = filled_buffer([0.0, 0.0, -11.5])
    stop, dev = update_and_check(buf, [0.0, 0.0, -11.5], baseline, CFG)
    assert dev == pytest.approx(1.5)
    assert stop is False


def test_deviation_exactly_20_percent_continues():
    # the rule is strictly greater-than
    baseline = np.array([0.0, 0.0, -10.0])
    buf = filled_buffer([0.0, 0.0, -12.0])
    stop, dev = update_and_check(buf, [0.0, 0.0, -12.0], baseline, CFG)
    assert dev == pytest.approx(2.0)
    assert stop is False


def test_threshold_floor_guards_tiny_baselines():
    baseline = np.zeros(3)
    assert stop_threshold(baseline, CFG) == pytest.approx(0.2 * CFG.floor)
    buf = filled_buffer([0.0, 0.0, 0.09])
    stop, _ = update_and_check(buf, [0.0, 0.0, 0.09], baseline, CFG)
    assert stop is False


def test_buffer_evicts_oldest():
    buf = ForceBuffer(3)
    for v in ([1, 0, 0], [2, 0, 0], [3, 0, 0], [10, 0, 0]):
        buf.push(v)
    assert buf.mean()[0] == pytest.approx((2 + 3 + 10) / 3)


def test_buffer_rejects_bad_shapes():
    buf = ForceBuffer(4)
    with pytest.raises(ValueError):
        buf.push([1.0, 2.0])
    with pytest.raises(ValueError):
        ForceBuffer(0)
    with pytest.raises(ValueError):
        ForceBuffer(2).mean()


@settings(max_examples=40, deadline=None)
@given(capacity=st.integers(1, 200), pushes=st.integers(1, 10_000),
       scale=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1))
@example(capacity=125, pushes=50_000, scale=1e3, seed=12)
def test_running_mean_matches_exact_mean(capacity, pushes, scale, seed):
    """The incremental sum must not drift from the true window mean, over
    any window size and across the periodic exact refresh."""
    samples = np.random.default_rng(seed).normal(0.0, scale, (pushes, 3))
    buf = ForceBuffer(capacity)
    for i, s in enumerate(samples):
        buf.push(s)
        if i % 997 == 0 or i == pushes - 1:
            exact = samples[max(0, i + 1 - capacity):i + 1].mean(axis=0)
            assert np.allclose(buf.mean(), exact, rtol=1e-12,
                               atol=1e-12 * scale)


def test_zero_noise_never_stops():
    # short version; the acceptance suite runs the full million ticks
    baseline = np.array([0.3, -0.2, -9.7])
    buf = ForceBuffer(125)
    for _ in range(100_000):
        stop, _ = update_and_check(buf, baseline, baseline, CFG)
        assert stop is False


def test_step_change_stops_within_one_buffer():
    baseline = np.array([0.0, 0.0, -10.0])
    step = np.array([0.0, 0.0, -10.0 - 2 * 0.2 * 10.0])  # 2x threshold
    buf = filled_buffer([0.0, 0.0, -10.0])
    for i in range(buffer_capacity(CFG)):
        stop, _ = update_and_check(buf, step, baseline, CFG)
        if stop:
            break
    assert stop is True
    assert i < buffer_capacity(CFG)


def test_safety_stop_rule():
    # camera.z keeps the taller rack's poses inside the camera view
    cfg = load_config("rack.height = 0.05\nvial.grip_height = 0.04\n"
                      "camera.z = 0.6\n")
    assert safety_stop(0.02, cfg)            # 0.02 < 0.025
    assert not safety_stop(0.025, cfg)       # strict comparison
    assert not safety_stop(0.10, cfg)

