"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import get_config

#: True when the suite runs under ambient chaos injection (the CI chaos
#: leg, ``REPRO_FAULTS_CHAOS=1``).  Outputs stay bit-identical, but
#: *placement* — which worker pid ran which task, steal counts, pool
#: residency — legitimately changes when workers are killed and slots
#: retired mid-region.
CHAOS_ENV = get_config().faults_chaos

skip_under_chaos = pytest.mark.skipif(
    CHAOS_ENV,
    reason="placement/timing assertion does not hold under chaos injection",
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def blobs() -> tuple[np.ndarray, np.ndarray]:
    """Five well-separated Gaussian blobs in 3-d: (X, true_centers)."""
    gen = np.random.default_rng(7)
    centers = np.array(
        [
            [0.0, 0.0, 0.0],
            [20.0, 0.0, 0.0],
            [0.0, 20.0, 0.0],
            [0.0, 0.0, 20.0],
            [20.0, 20.0, 20.0],
        ]
    )
    X = np.vstack(
        [c + gen.normal(0.0, 0.5, size=(60, 3)) for c in centers]
    )
    return X, centers


@pytest.fixture
def tiny() -> np.ndarray:
    """Four points on a line with hand-computable distances."""
    return np.array([[0.0], [1.0], [4.0], [9.0]])


@pytest.fixture
def weighted_set() -> tuple[np.ndarray, np.ndarray]:
    """A small weighted point set: (points, weights)."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
    weights = np.array([3.0, 1.0, 2.0, 2.0])
    return points, weights
