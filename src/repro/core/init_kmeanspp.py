"""``k-means++`` initialization (Algorithm 1 of the paper).

Arthur & Vassilvitskii's seeding: the first center is drawn uniformly at
random; each subsequent center is drawn from the data with probability
proportional to its current squared distance to the nearest chosen center
(D^2 sampling). The seed alone is an ``O(log k)``-approximation in
expectation.

Two roles in this library:

1. the *true baseline* the paper compares ``k-means||`` against
   (Tables 1-2, 6, Figures 5.2-5.3), and
2. the reclustering subroutine of Step 8 of ``k-means||`` itself, which is
   why the implementation is fully weighted.

The paper's variant is the vanilla one (one candidate per step); the
``n_local_trials`` knob adds the "greedy" refinement used by later
implementations (each step draws several candidates and keeps the one
that lowers the potential most) for ablation studies — the default of 1
reproduces the paper exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import normalized_d2, potential_from_d2
from repro.core.init_base import FitPoints, Initializer
from repro.core.results import InitResult, RoundRecord
from repro.exceptions import ValidationError
from repro.linalg.distances import sq_dists_to_point, update_min_sq_dists
from repro.types import FloatArray, SeedLike
from repro.utils.validation import check_positive_int

__all__ = ["KMeansPlusPlus", "kmeanspp_init"]


class KMeansPlusPlus(Initializer):
    """D^2-weighted sequential seeding (Algorithm 1).

    Parameters
    ----------
    n_local_trials:
        Number of candidate draws per step; the argmin-potential candidate
        is kept. ``1`` (default) is the paper's Algorithm 1.
    record_rounds:
        Keep a per-step :class:`~repro.core.results.RoundRecord` trace.
        Off by default because ``k`` can be large and the trace is O(k).
    working_dtype:
        Optional dtype for the distance kernels (``"float32"`` halves the
        GEMM cost of every D^2 update); selected centers are still copied
        out of the full-precision input.
    """

    name = "k-means++"

    def __init__(
        self,
        n_local_trials: int = 1,
        record_rounds: bool = False,
        *,
        working_dtype: str | None = None,
    ):
        self.n_local_trials = check_positive_int(n_local_trials, name="n_local_trials")
        self.record_rounds = bool(record_rounds)
        self.working_dtype = working_dtype

    def _seed(self, points: FitPoints, k, rng) -> InitResult:
        X, weights = points.X, points.weights
        n, d = X.shape
        if k > n:
            raise ValidationError(f"k={k} exceeds the number of points n={n}")
        centers = np.empty((k, d), dtype=np.float64)
        rounds: list[RoundRecord] = []

        # Every D^2 refresh below hits the same X, so pay the O(nd)
        # row-norm pass once per fit (in the working dtype).
        Xw, x_norms = points.working(self.working_dtype)

        # Line 1: first center uniformly at random (mass-proportional when
        # seeding a weighted set).
        first = int(rng.choice(n, p=weights / weights.sum()))
        centers[0] = X[first]
        # The D^2 profile stays float64 (sampling distributions must sum
        # to 1 at float64 tolerance) even when the GEMM runs in float32.
        d2 = sq_dists_to_point(Xw, Xw[first], x_norms_sq=x_norms).astype(
            np.float64, copy=False
        )

        for i in range(1, k):
            cost = potential_from_d2(d2, weights=weights)
            if self.record_rounds:
                rounds.append(
                    RoundRecord(round_index=i - 1, cost_before=cost, n_sampled=1, n_candidates=i)
                )
            probs = normalized_d2(d2, weights=weights)
            if self.n_local_trials == 1:
                # Line 3: sample x with probability d^2(x, C) / phi_X(C).
                idx = int(rng.choice(n, p=probs))
            else:
                idx = self._best_of_trials(Xw, d2, probs, weights, rng, x_norms)
            centers[i] = X[idx]
            update_min_sq_dists(Xw, Xw[idx : idx + 1], d2, x_norms_sq=x_norms)

        seed_cost = potential_from_d2(d2, weights=weights)
        if self.record_rounds:
            rounds.append(
                RoundRecord(round_index=k - 1, cost_before=seed_cost, n_sampled=1, n_candidates=k)
            )
        return InitResult(
            method=self.name,
            centers=centers,
            seed_cost=seed_cost,
            n_candidates=k,
            n_rounds=k,
            # One pass per selected center: the sequential-bottleneck the
            # paper is attacking ("k passes over the data").
            n_passes=k,
            rounds=rounds,
            params={"k": k, "n_local_trials": self.n_local_trials},
        )

    def _best_of_trials(self, X, d2, probs, weights, rng, x_norms_sq=None) -> int:
        """Greedy variant: keep the trial candidate minimizing the potential."""
        candidates = rng.choice(X.shape[0], size=self.n_local_trials, p=probs)
        best_idx, best_cost = -1, np.inf
        for c in candidates:
            trial = np.minimum(
                d2, sq_dists_to_point(X, X[int(c)], x_norms_sq=x_norms_sq)
            )
            cost = potential_from_d2(trial, weights=weights)
            if cost < best_cost:
                best_idx, best_cost = int(c), cost
        return best_idx


def kmeanspp_init(
    X: FloatArray,
    k: int,
    *,
    weights: FloatArray | None = None,
    seed: SeedLike = None,
    n_local_trials: int = 1,
    working_dtype: str | None = None,
) -> FloatArray:
    """Functional shortcut returning only the ``(k, d)`` center array."""
    init = KMeansPlusPlus(n_local_trials=n_local_trials, working_dtype=working_dtype)
    return init.run(X, k, weights=weights, seed=seed).centers
