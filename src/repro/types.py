"""Shared typing aliases used across :mod:`repro`.

Centralizing these keeps signatures short and lets static checkers verify
that, e.g., every initializer returns the same shape of result.
"""

from __future__ import annotations

from typing import Sequence, TypeAlias, Union

import numpy as np

__all__ = [
    "ArrayLike",
    "FloatArray",
    "IntArray",
    "RandomState",
    "SeedLike",
]

#: Anything convertible to a 2-d float array of points (n, d).
ArrayLike: TypeAlias = Union[np.ndarray, Sequence[Sequence[float]]]

#: A 2-d (or 1-d for weights) float64 numpy array.
FloatArray: TypeAlias = np.ndarray

#: An integer numpy array (labels, counts).
IntArray: TypeAlias = np.ndarray

#: A numpy Generator; the only RNG type used internally.
RandomState: TypeAlias = np.random.Generator

#: Anything accepted by :func:`repro.utils.rng.ensure_generator`.
SeedLike: TypeAlias = Union[None, int, np.random.SeedSequence, np.random.Generator]
