"""The seed network passes, kept unchanged as the reference for tests.

``vialbench.perception.cnn.forward`` and ``loss_and_grads`` must return
exactly what these versions return: the same probabilities and the same
gradients, byte for byte. These copies pool with ``argmax`` and
``take_along_axis``, scatter the pooled gradient back with
``put_along_axis``, and build conv1's input gradient only to throw it away.
"""

from __future__ import annotations

import numpy as np

from vialbench.perception.cnn import (CnnWeights, _conv_forward, _sigmoid,
                                      _softplus)


def _conv_backward(dy, cols, w, x_shape, stride=2, pad=2):
    n, c, h, ww = x_shape
    ko, _, k, _ = w.shape
    dyt = dy.transpose(0, 2, 3, 1)
    oh, ow = dyt.shape[1], dyt.shape[2]
    dw = np.tensordot(dyt, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
    db = dyt.sum(axis=(0, 1, 2))
    dcols = (dyt @ w.reshape(ko, -1)).reshape(n, oh, ow, c, k, k)
    dxp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad), dtype=dy.dtype)
    rows = stride * np.arange(oh)
    col_idx = stride * np.arange(ow)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki + rows[:, None], kj + col_idx[None, :]] += \
                dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    return dxp[:, :, pad:pad + h, pad:pad + ww], dw, db


def _pool_forward(x):
    n, c, h, w = x.shape
    xr = (x.reshape(n, c, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _pool_backward(dy, idx, x_shape):
    n, c, h, w = x_shape
    flat = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(flat, idx[..., None], dy[..., None], axis=-1)
    return (flat.reshape(n, c, h // 2, w // 2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w))


def forward(x: np.ndarray, weights: CnnWeights):
    x = np.asarray(x)
    if x.ndim == 3:
        x = x[:, None, :, :]
    z1, cols1 = _conv_forward(x, weights.conv1_w, weights.conv1_b)
    a1 = np.maximum(z1, 0)
    p1, idx1 = _pool_forward(a1)
    z2, cols2 = _conv_forward(p1, weights.conv2_w, weights.conv2_b)
    a2 = np.maximum(z2, 0)
    p2, idx2 = _pool_forward(a2)
    flat = p2.reshape(x.shape[0], -1)
    h1 = flat @ weights.fc1_w + weights.fc1_b
    a3 = np.maximum(h1, 0)
    h2 = a3 @ weights.fc2_w + weights.fc2_b
    a4 = np.maximum(h2, 0)
    logits = a4 @ weights.fc3_w + weights.fc3_b
    cache = (x, z1, cols1, a1, p1, idx1, z2, cols2, a2, p2, idx2,
             flat, h1, a3, h2, a4, logits)
    return _sigmoid(logits), cache


def loss_and_grads(weights: CnnWeights, x: np.ndarray, targets: np.ndarray,
                   mask: np.ndarray):
    probs, cache = forward(x, weights)
    (xin, z1, cols1, a1, p1, idx1, z2, cols2, a2, p2, idx2,
     flat, h1, a3, h2, a4, logits) = cache
    n = xin.shape[0]
    t = np.asarray(targets, dtype=logits.dtype)
    m = np.asarray(mask, dtype=logits.dtype)
    loss = float((m * (_softplus(logits) - t * logits)).sum() / n)

    dlogits = m * (probs - t) / n
    dfc3_w = a4.T @ dlogits
    dfc3_b = dlogits.sum(axis=0)
    da4 = dlogits @ weights.fc3_w.T
    dh2 = da4 * (h2 > 0)
    dfc2_w = a3.T @ dh2
    dfc2_b = dh2.sum(axis=0)
    da3 = dh2 @ weights.fc2_w.T
    dh1 = da3 * (h1 > 0)
    dfc1_w = flat.T @ dh1
    dfc1_b = dh1.sum(axis=0)
    dflat = dh1 @ weights.fc1_w.T
    dp2 = dflat.reshape(p2.shape)
    da2 = _pool_backward(dp2, idx2, a2.shape)
    dz2 = da2 * (z2 > 0)
    dp1, dconv2_w, dconv2_b = _conv_backward(dz2, cols2, weights.conv2_w, p1.shape)
    da1 = _pool_backward(dp1, idx1, a1.shape)
    dz1 = da1 * (z1 > 0)
    _, dconv1_w, dconv1_b = _conv_backward(dz1, cols1, weights.conv1_w, xin.shape)

    grads = {
        "conv1_w": dconv1_w, "conv1_b": dconv1_b,
        "conv2_w": dconv2_w, "conv2_b": dconv2_b,
        "fc1_w": dfc1_w, "fc1_b": dfc1_b,
        "fc2_w": dfc2_w, "fc2_b": dfc2_b,
        "fc3_w": dfc3_w, "fc3_b": dfc3_b,
    }
    return loss, grads
