"""The network passes against the seed versions, byte for byte.

``forward`` pools with the maximum of four strided views and
``loss_and_grads`` routes each pooled gradient to the first maximal cell
without building conv1's input gradient. Each must give exactly what
``cnn_reference`` gives, pooling ties included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cnn_reference
from gradcheck import as_dtype
from vialbench.core import CnnConfig
from vialbench.perception import cnn

CFG = CnnConfig()


@st.composite
def batches(draw):
    """Weights, a crop batch, targets and mask.

    ``noise`` crops are uniform; ``patches`` crops are a few grey levels in
    blocks of 2 to 8 pixels, and ``flat`` crops one level each, so convolution
    outputs repeat and pooling windows tie. ``dead1`` and ``dead2`` push a
    layer's bias so far down that every pre-activation is negative and every
    window of the pool after it ties at zero.
    """
    n = draw(st.integers(1, 33))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["noise", "patches", "flat", "dead1", "dead2"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = as_dtype(cnn.init_weights(gen, CFG), dtype)
    side = CFG.crop_size
    if kind == "patches":
        block = int(gen.choice([2, 4, 8]))
        coarse = gen.integers(0, 3, (n, 1, side // block, side // block)) / 2.0
        x = coarse.repeat(block, axis=2).repeat(block, axis=3)
    elif kind == "flat":
        x = np.broadcast_to(gen.integers(0, 3, (n, 1, 1, 1)) / 2.0,
                            (n, 1, side, side))
    else:
        x = gen.random((n, 1, side, side))
    if kind == "dead1":
        weights.conv1_b -= 100.0
    elif kind == "dead2":
        weights.conv2_b -= 100.0
    targets = gen.integers(0, 2, (n, 2)).astype(dtype)
    mask = gen.integers(0, 2, (n, 2)).astype(dtype)
    return weights, x.astype(dtype), targets, mask


@settings(max_examples=120, deadline=None)
@given(batches())
def test_forward_and_gradients_match_reference(case):
    weights, x, targets, mask = case
    probs, _ = cnn.forward(x, weights)
    want, _ = cnn_reference.forward(x, weights)
    assert probs.dtype == want.dtype and probs.tobytes() == want.tobytes()
    loss, grads = cnn.loss_and_grads(weights, x, targets, mask)
    want_loss, want_grads = cnn_reference.loss_and_grads(weights, x, targets, mask)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        ref = want_grads[name]
        assert grad.dtype == ref.dtype and grad.shape == ref.shape, name
        assert grad.tobytes() == ref.tobytes(), name


def test_training_matches_reference_loop(monkeypatch):
    gen = np.random.default_rng(17)
    crops = gen.random((40, 1, CFG.crop_size, CFG.crop_size)).astype(np.float32)
    crops[::5] = 0.5  # flat crops: pooling ties
    labels = np.asarray(gen.integers(0, 3, 40))
    cfg = CnnConfig(epochs=2, batch_size=16)
    got, got_history = cnn.train_cnn(crops, labels, cfg, np.random.default_rng(5))
    monkeypatch.setattr(cnn, "loss_and_grads", cnn_reference.loss_and_grads)
    want, want_history = cnn.train_cnn(crops, labels, cfg, np.random.default_rng(5))
    assert got_history == want_history
    for (name, arr), (_, ref) in zip(got.tensors(), want.tensors()):
        assert arr.tobytes() == ref.tobytes(), name
