import os
import time

import pytest

# Before anything imports numpy, which reads it once: one OpenBLAS thread,
# as the README advises, so BLAS threads do not contend with the tests and
# the draw-ahead worker for a small host's CPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from vialbench.core import load_config
from vialbench.perception.pipeline import train_discriminator


@pytest.fixture(scope="session")
def config():
    return load_config()


@pytest.fixture(scope="session")
def trained(config):
    """Train the classifier once per session; several suites reuse it.

    Returns (weights, history, n_examples, wall_seconds). Deterministic for
    the default seed, so every test sees the same network.
    """
    t0 = time.perf_counter()
    weights, history, n = train_discriminator(config)
    return weights, history, n, time.perf_counter() - t0


@pytest.fixture(scope="session")
def weights(trained):
    return trained[0]
