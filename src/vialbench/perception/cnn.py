"""Tiny two-head convolutional classifier, implemented directly on numpy.

The network scores 32x32 grayscale crops centered on circle candidates and
answers two independent questions per crop: is this a rack slot at all, and
if so is the slot occupied. Both heads are sigmoid outputs trained with
binary cross-entropy; the occupancy head's loss is masked out for crops that
are not rack slots.

Layer stack (stride-2 convolutions, same padding)::

    1x32x32 -> conv 5x5 s2 -> relu -> maxpool 2 -> k1 x 8 x 8
            -> conv 5x5 s2 -> relu -> maxpool 2 -> k2 x 2 x 2
            -> flatten -> fc 512 -> relu -> fc 128 -> relu -> fc 2

Everything (forward, backward, the optimizer) runs in whatever dtype the
inputs carry, which lets the unit tests re-run the exact code in float64 for
finite-difference gradient checks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import CnnConfig

HIDDEN1 = 512
HIDDEN2 = 128
N_HEADS = 2
_STRIDE = 2
_PAD = 2

_MAGIC = b"VIALCNN1\n"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss goes non-finite."""


@dataclass
class CnnWeights:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray
    fc3_w: np.ndarray
    fc3_b: np.ndarray

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays in declaration order."""
        return [(name, getattr(self, name)) for name in _TENSOR_NAMES]


_TENSOR_NAMES = tuple(f.name for f in fields(CnnWeights))


def tensor_shapes(config: CnnConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape in the network ``config`` describes, in order."""
    # Two stride-2 convolutions and two 2x2 pools: 16x total downsampling.
    side = config.crop_size // 16
    flat = config.k2 * side * side
    return {
        "conv1_w": (config.k1, 1, 5, 5), "conv1_b": (config.k1,),
        "conv2_w": (config.k2, config.k1, 5, 5), "conv2_b": (config.k2,),
        "fc1_w": (flat, HIDDEN1), "fc1_b": (HIDDEN1,),
        "fc2_w": (HIDDEN1, HIDDEN2), "fc2_b": (HIDDEN2,),
        "fc3_w": (HIDDEN2, N_HEADS), "fc3_b": (N_HEADS,),
    }


_SHAPE_KEYS = {  # the config keys a tensor's shape depends on, if any
    "conv1_w": ("k1",), "conv1_b": ("k1",), "conv2_w": ("k2", "k1"),
    "conv2_b": ("k2",), "fc1_w": ("k2", "crop_size"),
}


def check_weights(weights: CnnWeights, config: CnnConfig) -> None:
    """Raise ValueError unless every tensor has the shape ``config`` needs,
    naming the first that does not and the keys its shape depends on."""
    for name, need in tensor_shapes(config).items():
        have = getattr(weights, name).shape
        if have != need:
            keys = _SHAPE_KEYS.get(name, ())
            by = (" and ".join(f"cnn.{k} = {getattr(config, k)}" for k in keys)
                  if keys else "the network")
            verb = "need" if len(keys) > 1 else "needs"
            raise ValueError(f"weights: {name} is {_dims(have)} but {by} "
                             f"{verb} {_dims(need)}")


def _dims(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def init_weights(gen: np.random.Generator, config: CnnConfig) -> CnnWeights:
    """He-initialized float32 weights, zero biases."""
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            # Inputs per output unit: (in, out) for fc, (out, in, k, k) for conv.
            fan_in = shape[0] if name.startswith("fc") else int(np.prod(shape[1:]))
            tensors[name] = (gen.standard_normal(shape)
                             * np.sqrt(2.0 / fan_in)).astype(np.float32)
    return CnnWeights(**tensors)


def _conv_forward(x, w, b):
    n, c, h, ww = x.shape
    ko, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * _PAD, ww + 2 * _PAD), dtype=x.dtype)
    xp[:, :, _PAD:_PAD + h, _PAD:_PAD + ww] = x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::_STRIDE, ::_STRIDE]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, c * k * k)
    y = cols @ w.reshape(ko, -1).T
    y += b
    return y.transpose(0, 3, 1, 2), cols


def _conv_param_grads(dy, cols, w):
    """Weight and bias gradients of a convolution from its output gradient."""
    dyt = dy.transpose(0, 2, 3, 1)
    dw = np.tensordot(dyt, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
    return dw, dyt.sum(axis=(0, 1, 2))


def _conv_input_grad(dy, w, x_shape):
    """Input gradient of a convolution: col2im of ``dy @ w``, one kernel tap
    at a time, each through the strided view of the taps it feeds."""
    n, c, h, ww = x_shape
    ko, _, k, _ = w.shape
    dyt = dy.transpose(0, 2, 3, 1)
    oh, ow = dyt.shape[1], dyt.shape[2]
    dcols = (dyt @ w.reshape(ko, -1)).reshape(n, oh, ow, c, k, k)
    dxp = np.zeros((n, c, h + 2 * _PAD, ww + 2 * _PAD), dtype=dy.dtype)
    s = _STRIDE
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + s * oh:s, kj:kj + s * ow:s] \
                += dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    return dxp[:, :, _PAD:_PAD + h, _PAD:_PAD + ww]


# The four cells of a 2x2 pooling window, in row-major order.
_POOL_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_forward(x):
    """2x2 max-pooling: the elementwise maximum of the four strided views.

    ``np.maximum`` keeps its second argument on a tie, so of a -0.0 and a
    0.0 it may return either. Both pools read ReLU outputs, which hold no
    -0.0, so the result is the value ``argmax`` would pick, bit for bit.
    """
    v = [x[:, :, a::2, b::2] for a, b in _POOL_CELLS]
    out = np.maximum(v[0], v[1])
    np.maximum(out, v[2], out=out)
    np.maximum(out, v[3], out=out)
    return out


def _relu_pool_backward(dy, a, out):
    """Gradient at the input of ReLU-then-pool, from the pooled gradient.

    ``a`` is the ReLU output and ``out`` its pooled maximum. Each window's
    gradient goes to the first cell, in row-major order, that holds the
    maximum: the cell ``argmax`` picks, ties included. It is gated there by
    ``out > 0``, which at that cell is the ReLU's own ``z > 0``, so the
    product is ``dy * (z > 0)`` bit for bit, signed zeros included.
    """
    dz = np.empty(a.shape, dtype=dy.dtype)
    gated = dy * (out > 0)
    free = np.ones(out.shape, dtype=bool)
    for i, j in _POOL_CELLS[:-1]:
        hit = a[:, :, i::2, j::2] == out
        hit &= free
        dz[:, :, i::2, j::2] = np.where(hit, gated, 0)
        free ^= hit
    dz[:, :, 1::2, 1::2] = np.where(free, gated, 0)
    return dz


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    return np.logaddexp(0.0, z)


def forward(x: np.ndarray, weights: CnnWeights):
    """Run the network on crops ``x`` of shape (n, 1, cs, cs); returns
    ``(probs, cache)`` with probs of shape (n, 2)."""
    z1, cols1 = _conv_forward(x, weights.conv1_w, weights.conv1_b)
    a1 = np.maximum(z1, 0)
    p1 = _pool_forward(a1)
    z2, cols2 = _conv_forward(p1, weights.conv2_w, weights.conv2_b)
    a2 = np.maximum(z2, 0)
    p2 = _pool_forward(a2)
    flat = p2.reshape(x.shape[0], -1)
    h1 = flat @ weights.fc1_w + weights.fc1_b
    a3 = np.maximum(h1, 0)
    h2 = a3 @ weights.fc2_w + weights.fc2_b
    a4 = np.maximum(h2, 0)
    logits = a4 @ weights.fc3_w + weights.fc3_b
    cache = (cols1, a1, p1, cols2, a2, p2, flat, a3, a4, logits)
    return _sigmoid(logits), cache


def loss_and_grads(weights: CnnWeights, x: np.ndarray, targets: np.ndarray,
                   mask: np.ndarray):
    """Masked two-head BCE (mean over batch) and gradients for every tensor.

    ``targets`` and ``mask`` are (n, 2); a zero mask entry removes that head's
    contribution for that sample entirely.
    """
    probs, cache = forward(x, weights)
    cols1, a1, p1, cols2, a2, p2, flat, a3, a4, logits = cache
    n = x.shape[0]
    t = np.asarray(targets, dtype=logits.dtype)
    m = np.asarray(mask, dtype=logits.dtype)
    loss = float((m * (_softplus(logits) - t * logits)).sum() / n)

    dlogits = m * (probs - t) / n
    dfc3_w = a4.T @ dlogits
    dfc3_b = dlogits.sum(axis=0)
    da4 = dlogits @ weights.fc3_w.T
    dh2 = da4 * (a4 > 0)  # max(h, 0) > 0 exactly when h > 0
    dfc2_w = a3.T @ dh2
    dfc2_b = dh2.sum(axis=0)
    da3 = dh2 @ weights.fc2_w.T
    dh1 = da3 * (a3 > 0)
    dfc1_w = flat.T @ dh1
    dfc1_b = dh1.sum(axis=0)
    dflat = dh1 @ weights.fc1_w.T
    dp2 = dflat.reshape(p2.shape)
    dz2 = _relu_pool_backward(dp2, a2, p2)
    dconv2_w, dconv2_b = _conv_param_grads(dz2, cols2, weights.conv2_w)
    dp1 = _conv_input_grad(dz2, weights.conv2_w, p1.shape)
    dz1 = _relu_pool_backward(dp1, a1, p1)
    # The input gradient stops at conv2: nothing below conv1 is trained.
    dconv1_w, dconv1_b = _conv_param_grads(dz1, cols1, weights.conv1_w)

    grads = {
        "conv1_w": dconv1_w, "conv1_b": dconv1_b,
        "conv2_w": dconv2_w, "conv2_b": dconv2_b,
        "fc1_w": dfc1_w, "fc1_b": dfc1_b,
        "fc2_w": dfc2_w, "fc2_b": dfc2_b,
        "fc3_w": dfc3_w, "fc3_b": dfc3_b,
    }
    return loss, grads


def targets_for_labels(labels: np.ndarray):
    """Two-head targets and mask from integer class labels.

    Head 0 is "crop is a rack slot", head 1 is "slot is occupied"; head 1 is
    unsupervised (mask 0) for crops that are not slots.
    """
    labels = np.asarray(labels)
    in_rack = (labels != 0).astype(np.float32)
    occupied = (labels == 1).astype(np.float32)
    targets = np.stack([in_rack, occupied], axis=1)
    mask = np.stack([np.ones_like(in_rack), in_rack], axis=1)
    return targets, mask


def train_cnn(crops: np.ndarray, labels: np.ndarray, config: CnnConfig,
              gen: np.random.Generator):
    """SGD-with-momentum training on crops of shape (n, 1, cs, cs); returns
    ``(weights, per_epoch_loss)``."""
    crops = np.asarray(crops, dtype=np.float32)
    n = crops.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    targets, mask = targets_for_labels(labels)
    weights = init_weights(gen, config)
    velocity = {name: np.zeros_like(arr) for name, arr in weights.tensors()}
    history = []
    for epoch in range(config.epochs):
        perm = gen.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            sel = perm[start:start + config.batch_size]
            loss, grads = loss_and_grads(weights, crops[sel], targets[sel],
                                         mask[sel])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} in epoch {epoch}")
            epoch_loss += loss * len(sel)
            for name, arr in weights.tensors():
                vel = velocity[name]
                vel *= config.momentum
                vel -= config.lr * grads[name]
                arr += vel
        history.append(epoch_loss / n)
    return weights, history


def save_weights(path, weights: CnnWeights) -> None:
    """Write weights: magic, one ASCII shape line per tensor, then raw <f4."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name, arr in weights.tensors():
            dims = " ".join(str(d) for d in arr.shape)
            f.write(f"{name} {dims}\n".encode("ascii"))
        f.write(b"data\n")
        for _, arr in weights.tensors():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_weights(path) -> CnnWeights:
    with open(path, "rb") as f:
        if f.readline() != _MAGIC:
            raise ValueError(f"{path}: not a weights file")
        shapes = {}
        order = []
        while True:
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: truncated header")
            if line == b"data\n":
                break
            parts = line.decode("ascii", errors="replace").split()
            if not parts or not all(d.isdigit() for d in parts[1:]):
                raise ValueError(f"{path}: bad header line {line!r}")
            shapes[parts[0]] = tuple(int(d) for d in parts[1:])
            order.append(parts[0])
        if tuple(order) != _TENSOR_NAMES:
            raise ValueError(f"{path}: unexpected tensor list {order}")
        arrays = {}
        for name in order:
            # Checked against the bytes left, so a header cannot demand memory.
            size = 4 * math.prod(shapes[name])
            if size > os.fstat(f.fileno()).st_size - f.tell():
                raise ValueError(f"{path}: truncated data for {name}")
            raw = f.read(size)
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shapes[name]).copy()
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{path}: non-finite value in {name}")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after weight data")
    return CnnWeights(**arrays)
