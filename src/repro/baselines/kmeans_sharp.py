"""``k-means#`` — the oversampled seeding of Ailon, Jaiswal & Monteleoni.

The paper describes it while defining the ``Partition`` baseline
(Section 4.2.1): "a variant of k-means++ that selects 3 log k points in
each iteration (traditional k-means++ selects only a single point)".
Running k iterations therefore yields ``3 k ln k`` centers that are,
with constant probability, a constant-factor bicriteria approximation.

It is interesting next to ``k-means||`` because both oversample per round;
the crucial difference is that ``k-means#`` still needs **k** rounds while
``k-means||`` needs O(log psi) (5 in practice) — which is the whole
scalability argument of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.costs import normalized_d2, potential_from_d2
from repro.core.init_base import Initializer
from repro.core.results import InitResult, RoundRecord
from repro.exceptions import ValidationError
from repro.linalg.distances import sq_dists_to_point, update_min_sq_dists

__all__ = ["KMeansSharp", "points_per_round"]


def points_per_round(k: int, multiplier: float = 3.0) -> int:
    """The ``ceil(3 ln k)`` batch size of one ``k-means#`` round (min 1)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return max(1, math.ceil(multiplier * math.log(max(k, 2))))


class KMeansSharp(Initializer):
    """k rounds of D^2 sampling, ``3 ln k`` points per round.

    Parameters
    ----------
    multiplier:
        The oversampling multiplier (3.0 in the original analysis).
    record_rounds:
        Keep per-round telemetry (O(k) records).

    Notes
    -----
    Returns an *oversampled* seed of ``~3 k ln k`` weighted candidates —
    by design more than ``k`` centers. ``InitResult.centers`` holds the
    full candidate set; consumers that need exactly ``k`` centers (the
    ``Partition`` driver) recluster the weighted candidates themselves.
    """

    name = "k-means#"

    def __init__(self, multiplier: float = 3.0, record_rounds: bool = False):
        if multiplier <= 0:
            raise ValidationError(f"multiplier must be positive, got {multiplier}")
        self.multiplier = float(multiplier)
        self.record_rounds = bool(record_rounds)

    def _run(self, X, k, weights, rng) -> InitResult:
        n = X.shape[0]
        batch = points_per_round(k, self.multiplier)
        rounds: list[RoundRecord] = []

        # Round 0: `batch` points uniformly at random (mass-proportional).
        p0 = weights / weights.sum()
        first = rng.choice(n, size=min(batch, n), replace=False, p=p0)
        chosen: list[np.ndarray] = [first]
        d2 = sq_dists_to_point(X, X[int(first[0])])
        update_min_sq_dists(X, X[first[1:]], d2)
        n_candidates = int(first.size)

        for round_index in range(1, k):
            phi = potential_from_d2(d2, weights=weights)
            if self.record_rounds:
                rounds.append(RoundRecord(round_index - 1, phi, batch, n_candidates))
            if phi <= 0.0:
                break
            probs = normalized_d2(d2, weights=weights)
            positive = int(np.count_nonzero(probs))
            size = min(batch, positive)
            if size == 0:
                break
            idx = rng.choice(n, size=size, replace=False, p=probs)
            chosen.append(idx)
            update_min_sq_dists(X, X[idx], d2)
            n_candidates += int(idx.size)

        all_idx = np.concatenate(chosen)
        centers = X[all_idx].copy()
        return InitResult(
            method=self.name,
            centers=centers,
            seed_cost=potential_from_d2(d2, weights=weights),
            n_candidates=n_candidates,
            n_rounds=min(k, len(chosen)),
            n_passes=min(k, len(chosen)),  # one pass per D^2 round
            candidates=centers,
            candidate_weights=None,  # caller computes against its own data
            rounds=rounds,
            params={"k": k, "multiplier": self.multiplier, "batch": batch},
        )

