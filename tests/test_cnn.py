"""From-scratch network: forward pass, gradients, training, weight files."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import as_dtype, numeric_gradient
from vialbench.core import CnnConfig
from vialbench.perception.cnn import (CnnWeights, TrainingDiverged,
                                      check_weights, forward, init_weights,
                                      load_weights, loss_and_grads,
                                      save_weights, targets_for_labels,
                                      train_cnn)
from vialbench.perception.pipeline import Label

CFG = CnnConfig()


def small_batch(gen, n=3):
    return gen.random((n, 1, CFG.crop_size, CFG.crop_size))


def names(w):
    return [n for n, _ in w.tensors()]


def test_zero_weights_output_half():
    w = init_weights(np.random.default_rng(0), CFG)
    zeroed = CnnWeights(**{n: np.zeros_like(a) for n, a in w.tensors()})
    probs, _ = forward(small_batch(np.random.default_rng(1)), zeroed)
    assert np.all(probs == 0.5)


def test_forward_shapes_and_range():
    w = init_weights(np.random.default_rng(2), CFG)
    probs, _ = forward(small_batch(np.random.default_rng(3), n=5), w)
    assert probs.shape == (5, 2)
    assert np.all((probs > 0) & (probs < 1))


def test_forward_deterministic():
    w = init_weights(np.random.default_rng(4), CFG)
    x = small_batch(np.random.default_rng(5))
    a, _ = forward(x, w)
    b, _ = forward(x, w)
    assert np.array_equal(a, b)


def test_weights_are_checked_against_the_config_network():
    cfg = CnnConfig(k1=3, k2=5, crop_size=48)
    w = init_weights(np.random.default_rng(0), cfg)
    check_weights(w, cfg)
    with pytest.raises(ValueError, match=r"^weights: fc1_w is 45x512 but "
                       r"cnn\.k2 = 5 and cnn\.crop_size = 32 need 20x512$"):
        check_weights(w, CnnConfig(k1=3, k2=5))
    w.fc3_b = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match=r"^weights: fc3_b is 3 but the "
                       r"network needs 2$"):
        check_weights(w, cfg)


def test_gradient_check_against_central_differences():
    """Analytic gradients within 1e-3 relative of finite differences.

    The loss is piecewise-smooth (ReLU), so the probe step must stay well
    below the distance to the nearest activation kink; 1e-6 in float64 keeps
    every probed point on the same linear piece.
    """
    gen = np.random.default_rng(7)
    w = as_dtype(init_weights(gen, CFG), np.float64)
    x = gen.random((2, 1, CFG.crop_size, CFG.crop_size))
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    mask = np.array([[1.0, 1.0], [1.0, 0.0]])
    _, grads = loss_and_grads(w, x, targets, mask)
    picker = np.random.default_rng(8)
    worst = 0.0
    for name in names(w):
        analytic = grads[name]
        arr = getattr(w, name)
        for _ in range(10):
            idx = tuple(int(picker.integers(s)) for s in arr.shape)
            num = numeric_gradient(w, x, targets, mask, name, idx, eps=1e-6)
            ana = float(analytic[idx])
            rel = abs(ana - num) / max(abs(num), abs(ana), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-3


def test_memorize_single_example():
    gen = np.random.default_rng(11)
    crops = gen.random((1, 1, CFG.crop_size, CFG.crop_size))
    labels = np.array([int(Label.IN_RACK_VACANT)])
    cfg = CnnConfig(epochs=60, lr=0.05, batch_size=1)
    weights, history = train_cnn(crops, labels, cfg, np.random.default_rng(12))
    assert history[-1] < 0.01
    probs, _ = forward(crops, weights)
    assert probs[0, 0] > 0.9      # in the rack
    assert probs[0, 1] < 0.1      # not occupied


def test_training_is_seed_deterministic():
    gen = np.random.default_rng(13)
    crops = gen.random((24, 1, CFG.crop_size, CFG.crop_size))
    labels = np.asarray(gen.integers(0, 3, 24))
    cfg = CnnConfig(epochs=2)
    w1, h1 = train_cnn(crops, labels, cfg, np.random.default_rng(99))
    w2, h2 = train_cnn(crops, labels, cfg, np.random.default_rng(99))
    assert h1 == h2
    for f in names(w1):
        assert np.array_equal(getattr(w1, f), getattr(w2, f))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    gen = np.random.default_rng(14)
    crops = gen.random((8, 1, CFG.crop_size, CFG.crop_size))
    labels = np.asarray(gen.integers(0, 3, 8))
    with pytest.raises(TrainingDiverged):
        train_cnn(crops, labels, CnnConfig(epochs=5, lr=1e6),
                  np.random.default_rng(1))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_cnn(np.zeros((0, 1, CFG.crop_size, CFG.crop_size)),
                  np.zeros(0, dtype=int), CFG, np.random.default_rng(0))


def test_occupancy_head_masked_for_clutter():
    targets, mask = targets_for_labels(
        np.array([int(Label.NOT_IN_RACK), int(Label.IN_RACK_VACANT),
                  int(Label.IN_RACK_OCCUPIED)]))
    assert targets[:, 0].tolist() == [0.0, 1.0, 1.0]
    assert mask[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert mask[0, 1] == 0.0          # occupancy undefined off the rack
    assert mask[1:, 1].tolist() == [1.0, 1.0]
    assert targets[2, 1] == 1.0


@settings(max_examples=30, deadline=None)
@given(k1=st.integers(1, 12), k2=st.integers(1, 24),
       crop_size=st.sampled_from([16, 32, 48, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_weights_file_round_trip(k1, k2, crop_size, seed):
    cfg = CnnConfig(k1=k1, k2=k2, crop_size=crop_size)
    w = init_weights(np.random.default_rng(seed), cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.weights"
        save_weights(path, w)
        back = load_weights(path)
        again = Path(tmp) / "again.weights"
        save_weights(again, back)
        assert again.read_bytes() == path.read_bytes()
    for (name, arr), (_, got) in zip(w.tensors(), back.tensors()):
        assert got.dtype == np.float32, name
        assert got.shape == arr.shape and got.tobytes() == arr.tobytes(), name


def test_weights_file_magic_checked(tmp_path):
    path = tmp_path / "junk.weights"
    path.write_bytes(b"NOTNET00\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_weights(path)


def test_weights_file_truncation_detected(tmp_path):
    w = init_weights(np.random.default_rng(22), CFG)
    path = tmp_path / "net.weights"
    save_weights(path, w)
    blob = path.read_bytes()
    (tmp_path / "short.weights").write_bytes(blob[:-40])
    with pytest.raises(ValueError):
        load_weights(tmp_path / "short.weights")
    (tmp_path / "long.weights").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        load_weights(tmp_path / "long.weights")


@pytest.mark.parametrize("line", [b"\n", b"conv1_w 8 x 3 3\n"])
def test_weights_file_bad_header_line_names_file(tmp_path, line):
    w = init_weights(np.random.default_rng(23), CFG)
    path = tmp_path / "net.weights"
    save_weights(path, w)
    magic, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(magic + b"\n" + line + rest)
    with pytest.raises(ValueError, match="net.weights"):
        load_weights(path)


def test_init_scales_with_fanin():
    w = init_weights(np.random.default_rng(30), CFG)
    # convolution kernels should be small numbers, not unit-scale noise
    assert abs(float(w.conv1_w.mean())) < 0.1
    assert float(np.abs(w.conv1_w).max()) < 1.5
