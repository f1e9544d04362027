"""``Random`` initialization — the classic baseline.

Selects ``k`` points uniformly at random (without replacement) from the
dataset; with per-point weights, selection is proportional to mass. This
is the paper's ``Random`` baseline (Section 4.2): "selects k points
uniformly at random from the dataset", and the classical Forgy seeding of
Lloyd's iteration.
"""

from __future__ import annotations

import numpy as np

from repro.core.init_base import Initializer
from repro.core.results import InitResult
from repro.exceptions import ValidationError
from repro.types import FloatArray, RandomState, SeedLike

__all__ = ["RandomInit", "random_init"]


class RandomInit(Initializer):
    """Uniform (or mass-proportional) seeding without replacement."""

    name = "random"

    def _run(self, X, k, weights, rng) -> InitResult:
        n = X.shape[0]
        if k > n:
            raise ValidationError(f"k={k} exceeds the number of points n={n}")
        total = weights.sum()
        if np.allclose(weights, weights[0]):
            idx = rng.choice(n, size=k, replace=False)
        else:
            idx = rng.choice(n, size=k, replace=False, p=weights / total)
        centers = X[np.sort(idx)].copy()
        return InitResult(
            method=self.name,
            centers=centers,
            # run() scores it with one potential pass, or a door takes
            # it from Lloyd's first assignment.
            seed_cost=None,
            n_candidates=k,
            n_rounds=1,
            n_passes=1,
            params={"k": k},
        )


def random_init(
    X: FloatArray,
    k: int,
    *,
    weights: FloatArray | None = None,
    seed: SeedLike | RandomState = None,
) -> FloatArray:
    """Functional shortcut returning only the ``(k, d)`` center array."""
    return RandomInit().run(X, k, weights=weights, seed=seed).centers
