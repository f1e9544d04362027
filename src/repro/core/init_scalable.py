"""``k-means||`` — the paper's contribution (Algorithm 2).

The algorithm trades the ``k`` sequential passes of ``k-means++`` for a
handful of oversampled rounds:

1. pick one uniform-random center; let ``psi = phi_X(C)``;
2. for ``O(log psi)`` rounds (``r = 5`` in practice), sample **each** point
   independently with probability ``l * d^2(x, C) / phi_X(C)`` and add all
   sampled points to ``C``;
3. weight every candidate by the number of input points closest to it;
4. recluster the ~``r*l`` weighted candidates into ``k`` centers with any
   approximation algorithm (``k-means++`` in the paper).

Each round is embarrassingly parallel (the per-point coin flips are
independent), which is what makes the method MapReduce-friendly;
:mod:`repro.mapreduce.kmeans_mr` runs this exact code path split across
simulated mappers.

Two sampling modes are provided because the paper itself uses two:

* ``"independent"`` — the Bernoulli sampling of Algorithm 2 (each point an
  independent coin with success probability ``min(1, l*d^2/phi)``); the
  number of candidates per round is random with mean ~``l``.
* ``"exact"`` — exactly ``l`` points drawn without replacement from the
  joint D^2 distribution; Section 5.3 uses this for Figure 5.1 "to reduce
  the variance in the computations, and to make sure [we] have exactly
  l*r points at the end of the point selection step".
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.costs import normalized_d2, potential_from_d2
from repro.core.init_base import FitPoints, Initializer
from repro.core.lloyd_fast import expansion_slack
from repro.core.reclustering import (
    KMeansPlusPlusReclusterer,
    Reclusterer,
    TopUpPolicy,
    apply_top_up,
)
from repro.core.results import InitResult, RoundRecord
from repro.exceptions import ValidationError
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import (
    _assign_labels_at,
    assign_labels,
    row_norms_sq,
    sq_dists_to_point,
    update_min_sq_dists_argmin,
)
from repro.types import FloatArray, SeedLike
from repro.utils.validation import check_in_range

__all__ = ["ScalableKMeans", "scalable_init", "SAMPLING_MODES"]

#: Valid values of the ``sampling`` argument.
SAMPLING_MODES = ("independent", "exact")


class ScalableKMeans(Initializer):
    """``k-means||`` initialization (Algorithm 2 of the paper).

    ``mr_scalable_kmeans(l=)`` takes the absolute ``l`` only; the
    README's "Two front doors" states the conventions both doors share.

    Parameters
    ----------
    oversampling:
        The factor ``l`` as an *absolute* expected number of points per
        round. Exactly one of ``oversampling`` / ``oversampling_factor``
        may be given; the paper recommends ``l = Theta(k)``.
    oversampling_factor:
        ``l`` expressed as a multiple of ``k`` (the paper sweeps
        ``l/k in {0.1, 0.5, 1, 2, 10}``). Default: ``2.0`` — the setting
        the paper's headline tables use.
    n_rounds:
        Number of sampling rounds ``r`` (default 5 — "after as little as
        five rounds the solution of k-means|| is consistently as good or
        better than that found by any other method"), or the string
        ``"log-psi"`` for the theoretical ``ceil(ln psi)`` schedule of
        Theorem 1.
    sampling:
        ``"independent"`` (Bernoulli; Algorithm 2) or ``"exact"``
        (exactly-``l`` joint draws; Section 5.3 / Figure 5.1).
    reclusterer:
        Step 8 strategy; defaults to the paper's weighted ``k-means++``
        (+ weighted Lloyd) reclusterer.
    top_up:
        Policy when fewer than ``k`` candidates were collected
        (:class:`~repro.core.reclustering.TopUpPolicy`; default ``PAD``).
    max_rounds:
        Safety cap applied to the ``"log-psi"`` schedule.
    working_dtype:
        Optional dtype for the distance kernels (``"float32"`` halves the
        GEMM cost of every round's D^2 fold); sampled candidates are still
        copied out of the full-precision input.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(200, 3))
    >>> init = ScalableKMeans(oversampling_factor=2.0, n_rounds=5)
    >>> result = init.run(X, k=10, seed=1)
    >>> result.centers.shape
    (10, 3)
    >>> result.n_candidates >= 10
    True
    """

    name = "k-means||"

    def __init__(
        self,
        oversampling: float | None = None,
        *,
        oversampling_factor: float | None = None,
        n_rounds: int | str = 5,
        sampling: str = "independent",
        reclusterer: Reclusterer | None = None,
        top_up: TopUpPolicy | str = TopUpPolicy.PAD,
        max_rounds: int = 100,
        working_dtype: str | None = None,
    ):
        if oversampling is not None and oversampling_factor is not None:
            raise ValidationError(
                "pass either oversampling (absolute l) or oversampling_factor "
                "(l/k), not both"
            )
        if oversampling is not None:
            check_in_range(oversampling, name="oversampling", low=0.0, low_inclusive=False)
        if oversampling_factor is not None:
            check_in_range(
                oversampling_factor, name="oversampling_factor", low=0.0, low_inclusive=False
            )
        if oversampling is None and oversampling_factor is None:
            oversampling_factor = 2.0
        self.oversampling = oversampling
        self.oversampling_factor = oversampling_factor

        if isinstance(n_rounds, str):
            if n_rounds != "log-psi":
                raise ValidationError(
                    f"n_rounds must be an int >= 0 or 'log-psi', got {n_rounds!r}"
                )
        elif isinstance(n_rounds, bool) or not isinstance(n_rounds, int) or n_rounds < 0:
            raise ValidationError(f"n_rounds must be an int >= 0 or 'log-psi', got {n_rounds!r}")
        self.n_rounds = n_rounds

        if sampling not in SAMPLING_MODES:
            raise ValidationError(f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}")
        self.sampling = sampling
        self.reclusterer = reclusterer if reclusterer is not None else KMeansPlusPlusReclusterer()
        self.top_up = TopUpPolicy(top_up)
        self.max_rounds = int(max_rounds)
        self.working_dtype = working_dtype

    # ------------------------------------------------------------------
    def resolve_l(self, k: int) -> float:
        """The absolute oversampling factor ``l`` for a given ``k``."""
        if self.oversampling is not None:
            return float(self.oversampling)
        return float(self.oversampling_factor) * k

    def _resolve_rounds(self, psi: float) -> int:
        if self.n_rounds == "log-psi":
            if psi <= 1.0:
                return 1
            return min(self.max_rounds, max(1, math.ceil(math.log(psi))))
        return int(self.n_rounds)

    # ------------------------------------------------------------------
    def _seed(self, points: FitPoints, k, rng) -> InitResult:
        X, weights = points.X, points.weights
        n = X.shape[0]
        if k > n:
            raise ValidationError(f"k={k} exceeds the number of points n={n}")
        l = self.resolve_l(k)

        # Rounds 1..r all fold distances against the same X; the row norms
        # (in the working dtype) are computed once per fit and reused.
        Xw, x_norms = points.working(self.working_dtype)

        # Step 1: C <- one point sampled uniformly at random (mass-
        # proportional for weighted inputs).
        first = int(rng.choice(n, p=weights / weights.sum()))
        candidates = [X[first].copy()]
        # Kept float64 so the D^2 sampling distribution sums to 1 at
        # float64 tolerance even when the GEMM runs in float32.
        d2 = sq_dists_to_point(Xw, Xw[first], x_norms_sq=x_norms).astype(
            np.float64, copy=False
        )
        # Each point's nearest candidate so far and the margin to its next
        # nearest, kept beside d2 by every round's fold for Step 7.
        nearest = np.zeros(n, dtype=np.int64)
        gap = np.full(n, np.inf)

        # Step 2: psi <- phi_X(C).
        psi = potential_from_d2(d2, weights=weights)
        r = self._resolve_rounds(psi)

        rounds: list[RoundRecord] = []
        n_candidates = 1
        # Steps 3-6: r sampling rounds.
        for round_index in range(r):
            phi = potential_from_d2(d2, weights=weights)
            if phi <= 0.0:
                # Every point coincides with a candidate; nothing left to
                # sample — further rounds are no-ops.
                rounds.append(RoundRecord(round_index, phi, 0, n_candidates))
                break
            if self.sampling == "independent":
                idx = self._sample_independent(d2, weights, phi, l, rng)
            else:
                idx = self._sample_exact(d2, weights, l, rng, n_candidates)
            rounds.append(RoundRecord(round_index, phi, int(idx.size), n_candidates + int(idx.size)))
            if idx.size:
                new_points = X[idx]
                candidates.append(new_points)
                update_min_sq_dists_argmin(
                    Xw, Xw[idx], d2, nearest,
                    offset=n_candidates, x_norms_sq=x_norms, gap=gap,
                )
                n_candidates += int(idx.size)

        candidate_arr = np.vstack([c.reshape(-1, X.shape[1]) for c in candidates])

        # Step 7: weight each candidate by the mass of points nearest it,
        # with the labels a full assign_labels(X, candidates) pass gives.
        # The rounds' argmin is those labels except where round-off could
        # reorder two candidates: candidate 0's d2 came from a matrix-
        # vector product and each round's from its own GEMM, while the
        # full pass computes every column in one GEMM, and a GEMM rounds a
        # column by where it sits.  Each value is within `slack` of that
        # pass's, so only points whose gap to the runner-up is within
        # twice that are re-assigned, in the full pass's own tiles.
        reread = False
        if Xw is X:
            labels = nearest
            slack = expansion_slack(
                x_norms, row_norms_sq(candidate_arr), X.shape[1], X.dtype
            )
            unsure = np.flatnonzero(gap <= 2.0 * slack)
            if unsure.size:
                reread = True
                labels[unsure] = _assign_labels_at(X, candidate_arr, unsure, x_norms)
        else:
            # The weights feed Step 8, so a narrower working dtype pays
            # one full-precision pass for them.
            reread = True
            labels = assign_labels(X, candidate_arr, x_norms_sq=row_norms_sq(X))
        cand_weights = cluster_sizes(labels, candidate_arr.shape[0], weights=weights)

        # Step 8: recluster the weighted candidates into k centers.
        centers = self.reclusterer.recluster(candidate_arr, cand_weights, k, rng)
        centers = apply_top_up(centers, X, k, self.top_up, rng)

        return InitResult(
            method=self.name,
            centers=centers,
            # One potential pass scores the seed: run() makes it, or a
            # door takes it from Lloyd's first assignment.
            seed_cost=None,
            n_candidates=int(candidate_arr.shape[0]),
            n_rounds=len(rounds),
            # One pass to seed psi and one per sampling round; Step 7 reads
            # the data only for a narrower working dtype or a near tie.
            n_passes=len(rounds) + 1 + reread,
            candidates=candidate_arr,
            candidate_weights=cand_weights,
            rounds=rounds,
            params={
                "k": k,
                "l": l,
                "r": r,
                "sampling": self.sampling,
                "reclusterer": self.reclusterer.name,
                "top_up": self.top_up.value,
            },
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _sample_independent(d2, weights, phi, l, rng) -> np.ndarray:
        """Algorithm 2 line 4: independent Bernoulli draws, p = l*w*d^2/phi."""
        probs = np.minimum(1.0, l * (d2 * weights) / phi)
        return np.flatnonzero(rng.random(d2.shape[0]) < probs)

    @staticmethod
    def _sample_exact(d2, weights, l, rng, n_candidates) -> np.ndarray:
        """Exactly-``l`` draws from the joint D^2 law, without replacement.

        Points already chosen have ``d^2 = 0`` and therefore probability
        zero, so no candidate is ever selected twice. The draw size is
        capped by the number of points with positive probability.
        """
        size = max(1, round(l))
        probs = normalized_d2(d2, weights=weights)
        positive = int(np.count_nonzero(probs))
        size = min(size, positive)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(d2.shape[0], size=size, replace=False, p=probs)


def scalable_init(
    X: FloatArray,
    k: int,
    *,
    oversampling: float | None = None,
    oversampling_factor: float | None = None,
    n_rounds: int | str = 5,
    sampling: str = "independent",
    reclusterer: Reclusterer | None = None,
    top_up: TopUpPolicy | str = TopUpPolicy.PAD,
    weights: FloatArray | None = None,
    seed: SeedLike = None,
    working_dtype: str | None = None,
) -> FloatArray:
    """Functional shortcut for :class:`ScalableKMeans` returning the centers.

    Forwards the full constructor surface — in particular ``sampling``
    (``"independent"`` / the Section 5.3 ``"exact"`` mode), ``reclusterer``
    (Step 8 strategy), and ``top_up`` (short-candidate-set policy) — so
    the functional API can express every configuration the class can.
    """
    init = ScalableKMeans(
        oversampling,
        oversampling_factor=oversampling_factor,
        n_rounds=n_rounds,
        sampling=sampling,
        reclusterer=reclusterer,
        top_up=top_up,
        working_dtype=working_dtype,
    )
    return init.run(X, k, weights=weights, seed=seed).centers
