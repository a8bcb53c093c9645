"""Central-difference gradient check for the slot CNN, used by the tests."""

from vialbench.perception.cnn import CnnWeights, loss_and_grads


def as_dtype(weights: CnnWeights, dtype) -> CnnWeights:
    """A copy of ``weights`` with every tensor cast to ``dtype``."""
    return CnnWeights(**{n: a.astype(dtype) for n, a in weights.tensors()})


def numeric_gradient(weights: CnnWeights, x, targets, mask,
                     name: str, index: tuple, eps: float = 1e-3) -> float:
    """Central-difference derivative of the loss w.r.t. one parameter."""
    arr = getattr(weights, name)
    orig = arr[index]
    arr[index] = orig + eps
    lo_hi, _ = loss_and_grads(weights, x, targets, mask)
    arr[index] = orig - eps
    lo_lo, _ = loss_and_grads(weights, x, targets, mask)
    arr[index] = orig
    return (lo_hi - lo_lo) / (2.0 * eps)

