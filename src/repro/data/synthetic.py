"""An auxiliary synthetic generator with a known optimum.

Not in the paper: the theory tests need a dataset whose optimal
clustering is computable by hand, and perfectly separable grid clusters
are one.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ValidationError
from repro.types import SeedLike
from repro.utils.rng import ensure_generator

__all__ = ["make_grid_clusters"]


def make_grid_clusters(
    side: int = 4,
    points_per_cluster: int = 50,
    *,
    d: int = 2,
    spacing: float = 10.0,
    noise: float = 0.1,
    seed: SeedLike = None,
) -> Dataset:
    """``side**d`` tiny Gaussian balls on an axis-aligned grid.

    With ``spacing >> noise`` the optimal k-clustering (k = number of
    grid nodes) is obvious — each ball is a cluster — which gives tests a
    ground-truth optimum to compare approximation factors against.
    """
    if side < 1 or points_per_cluster < 1 or d < 1:
        raise ValidationError("side, points_per_cluster, d must all be >= 1")
    rng = ensure_generator(seed)
    axes = [np.arange(side, dtype=np.float64) * spacing] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    k = grid.shape[0]
    labels = np.repeat(np.arange(k), points_per_cluster)
    X = grid[labels] + rng.normal(0.0, noise, size=(k * points_per_cluster, d))
    return Dataset(
        name="grid-clusters",
        X=X,
        labels=labels,
        true_centers=grid,
        metadata={"k": k, "spacing": spacing, "noise": noise},
    )
