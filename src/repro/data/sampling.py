"""The group split of the ``Partition`` baseline."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ValidationError
from repro.types import FloatArray, SeedLike
from repro.utils.rng import ensure_generator

__all__ = ["split_into_groups"]


def split_into_groups(
    X: FloatArray,
    n_groups: int,
    *,
    seed: SeedLike = None,
    shuffle: bool = True,
) -> Iterator[FloatArray]:
    """Partition rows into ``n_groups`` near-equal groups.

    This is the first step of the ``Partition`` baseline (Section 4.2.1:
    "it divides the input into m equal-sized groups"). Shuffling first
    makes the groups exchangeable regardless of how the file was laid out
    — the same effect the original obtains from arbitrary input order.
    """
    n = X.shape[0]
    if n_groups < 1:
        raise ValidationError(f"n_groups must be >= 1, got {n_groups}")
    if n_groups > n:
        raise ValidationError(f"n_groups={n_groups} exceeds n={n}")
    if shuffle:
        rng = ensure_generator(seed)
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for part in np.array_split(order, n_groups):
        yield X[part]
