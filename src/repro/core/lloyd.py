"""(Weighted) Lloyd's iteration.

The paper's Section 3.1: "In each iteration, a clustering of X is derived
from the current set of centers. The centroids of these derived clusters
then become the centers for the next iteration. The iteration is then
repeated until a stable set of centers is obtained."

Every initialization method in the evaluation is "implicitly followed by
Lloyd's iterations" (Section 4.2), and Table 6 counts exactly how many
iterations each seeding needs until convergence — so this implementation
counts iterations carefully and exposes the stopping rule explicitly.

The weighted variant is required by Step 8 of ``k-means||``: the
oversampled candidate set carries integer weights ``w_x`` and must be
clustered as a weighted instance.

Two execution paths share this entry point:

* the **reference path** (``accelerate="none"``) — one full ``(n, k)``
  assignment per iteration, chunked through the
  :mod:`~repro.linalg.engine`;
* the **bounds-accelerated path** (``accelerate="hamerly"``, in
  :mod:`repro.core.lloyd_fast`) — Hamerly-style per-point upper/lower
  bounds let stable points skip the distance pass entirely while
  producing the same labels, iteration count, and final cost.

Both report how much distance work they actually did via
``LloydResult.n_dist_evals``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.init_base import FitPoints
from repro.exceptions import ConvergenceWarning, EmptyClusterError, ValidationError
from repro.linalg.centroids import weighted_centroids
from repro.linalg.distances import assign_labels
from repro.types import FloatArray, SeedLike
from repro.utils.rng import ensure_generator
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_matching_dims,
    check_positive_int,
)

__all__ = ["LloydResult", "lloyd", "EMPTY_POLICIES", "ACCELERATE_MODES"]

#: Valid values of the ``empty_policy`` argument.
EMPTY_POLICIES = ("reseed-farthest", "keep", "drop", "error")

#: Valid values of the ``accelerate`` argument.
ACCELERATE_MODES = ("auto", "hamerly", "none")

#: ``accelerate="auto"`` switches to the bounds-accelerated path once the
#: instance is big enough that skipped distance passes outweigh the
#: bookkeeping (per-point bounds + an O(k^2 d) center-separation pass).
_AUTO_MIN_POINTS = 4096
_AUTO_MIN_CLUSTERS = 8


@dataclass
class LloydResult:
    """Outcome of running Lloyd's iteration to (attempted) convergence.

    Attributes
    ----------
    centers:
        Final centers, shape ``(k', d)`` (``k' < k`` only under the
        ``"drop"`` empty-cluster policy).
    labels:
        Final assignment of every point to ``range(k')``.
    cost:
        Final potential ``phi_X(centers)`` of the returned centers — the
        "final" columns of Tables 1-2 and the y-axis of Figures 5.1-5.3.
        ``labels`` are those centers' own assignment too, however the
        loop stopped: when ``max_iter`` or ``tol`` ends it after an
        update, one more assignment scores the updated centers.
    n_iter:
        Number of *center-update* steps performed. A run that starts at a
        fixed point reports ``n_iter == 1``: one update that moved nothing.
    converged:
        Whether a stable assignment / sub-tolerance shift was reached
        before ``max_iter``.
    cost_history:
        Potential before each update step (length ``n_iter``), then the
        final cost appended.  The first entry scores the seed with the
        reference assignment kernel on both paths, so with float64
        kernels it is ``potential(X, seed, weights=w)`` bit for bit (the
        doors report it as the seed's cost). Monotone non-increasing up
        to floating-point round-off: exactly so on the reference path (a
        property test enforces this); the accelerated path evaluates
        intermediate entries point-wise rather than via the assignment
        block, so adjacent entries can differ from the reference's by
        expansion round-off (the final cost is always the reference
        kernel's).
    n_dist_evals:
        Point-center distance evaluations actually performed. The
        reference path pays ``n * k`` per iteration; the accelerated path
        reports how much of that its bounds avoided.
    accelerated:
        Which assignment path produced this result (``"none"`` or
        ``"hamerly"``).
    """

    centers: FloatArray
    labels: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    cost_history: list[float] = field(default_factory=list)
    n_dist_evals: int = 0
    accelerated: str = "none"


def lloyd(
    X: FloatArray,
    centers: FloatArray,
    *,
    weights: FloatArray | None = None,
    max_iter: int = 300,
    tol: float = 0.0,
    rel_tol: float | None = None,
    empty_policy: str = "reseed-farthest",
    seed: SeedLike = None,
    warn_on_max_iter: bool = False,
    accelerate: str = "none",
    working_dtype: str | np.dtype | None = None,
) -> LloydResult:
    """Run Lloyd's iteration from the given seed until stable.

    :func:`repro.mapreduce.mr_lloyd` checks ``max_iter`` and ``tol`` the
    same way; the README's "Two front doors" states where the two differ
    (the empty-cluster default).

    Parameters
    ----------
    X:
        Points, shape ``(n, d)``, or a door's
        :class:`~repro.core.init_base.FitPoints` (checked once per fit,
        with the weights inside and the row norms shared).
    centers:
        Seed centers, shape ``(k, d)``; not mutated.
    weights:
        Optional per-point mass (weighted k-means instance).
    max_iter:
        Hard cap on update steps.
    tol:
        Convergence when the maximum squared center shift in one update is
        ``<= tol``. The default ``0.0`` reproduces the paper's "until the
        solution does not change" criterion (iteration also stops as soon
        as the label vector repeats, which implies a fixed point).
    rel_tol:
        Optional *scale-free* criterion: also stop once the relative cost
        improvement of an update drops to ``<= rel_tol``. Useful on data
        with huge dynamic range (KDDCup1999 costs ~1e15) where exact
        center stability takes many asymptotically-irrelevant iterations;
        "the improvement in the cost of the clustering becomes marginal
        after only a few iterations" (Section 4.2).
    empty_policy:
        What to do when a cluster loses all its points:

        ``"reseed-farthest"``
            re-seed the empty center at the point currently farthest (in
            weighted ``d^2``) from its assigned center — the standard
            practical repair;
        ``"keep"``
            keep the stale center where it was;
        ``"drop"``
            remove the center (``k`` shrinks);
        ``"error"``
            raise :class:`~repro.exceptions.EmptyClusterError`.
    seed:
        Only used to break ties when several empty clusters re-seed at
        once; any :func:`~repro.utils.rng.ensure_generator` input.
    warn_on_max_iter:
        Emit a :class:`~repro.exceptions.ConvergenceWarning` when the cap
        is hit without convergence.
    accelerate:
        ``"none"`` (default) runs the reference full-assignment loop;
        ``"hamerly"`` runs the bounds-accelerated assignment of
        :mod:`repro.core.lloyd_fast` (same labels / iterations / final
        cost, far fewer distance evaluations once ``k`` is large);
        ``"auto"`` picks ``"hamerly"`` when the instance is big enough to
        benefit.
    working_dtype:
        Optional dtype the *distance kernels* run in (``"float32"`` halves
        GEMM time and memory traffic). Centroid updates and cost
        accumulation stay in float64. Default: the input dtype (float64).
    """
    points = FitPoints.of(X, weights)
    X, w = points.X, points.weights
    centers = check_array(centers, name="centers", copy=True)
    check_matching_dims(X, centers)
    max_iter = check_positive_int(max_iter, name="max_iter")
    check_in_range(tol, name="tol", low=0.0)
    if rel_tol is not None:
        check_in_range(rel_tol, name="rel_tol", low=0.0, high=1.0)
    if empty_policy not in EMPTY_POLICIES:
        raise ValidationError(
            f"empty_policy must be one of {EMPTY_POLICIES}, got {empty_policy!r}"
        )
    if accelerate not in ACCELERATE_MODES:
        raise ValidationError(
            f"accelerate must be one of {ACCELERATE_MODES}, got {accelerate!r}"
        )
    rng = ensure_generator(seed)
    Xw, x_norms = points.working(working_dtype)

    mode = accelerate
    if mode == "auto":
        # rel_tol gates on the potential, which the bounds path can only
        # reproduce exactly by buying the full profile anyway — no win.
        mode = (
            "hamerly"
            if (
                rel_tol is None
                and X.shape[0] >= _AUTO_MIN_POINTS
                and centers.shape[0] >= _AUTO_MIN_CLUSTERS
            )
            else "none"
        )
    if mode == "hamerly":
        from repro.core.lloyd_fast import lloyd_hamerly

        return lloyd_hamerly(
            X,
            Xw,
            x_norms,
            centers,
            w,
            max_iter=max_iter,
            tol=tol,
            rel_tol=rel_tol,
            empty_policy=empty_policy,
            rng=rng,
            warn_on_max_iter=warn_on_max_iter,
        )
    return _lloyd_reference(
        X,
        Xw,
        x_norms,
        centers,
        w,
        max_iter=max_iter,
        tol=tol,
        rel_tol=rel_tol,
        empty_policy=empty_policy,
        rng=rng,
        warn_on_max_iter=warn_on_max_iter,
    )


def _lloyd_reference(
    X: FloatArray,
    Xw: FloatArray,
    x_norms: FloatArray,
    centers: FloatArray,
    w: FloatArray,
    *,
    max_iter: int,
    tol: float,
    rel_tol: float | None,
    empty_policy: str,
    rng: np.random.Generator,
    warn_on_max_iter: bool,
) -> LloydResult:
    """The exact full-assignment loop; the oracle the fast path must match."""
    n = X.shape[0]
    n_dist = 0

    def assign(C: FloatArray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal n_dist
        n_dist += n * C.shape[0]
        return assign_labels(
            Xw,
            np.ascontiguousarray(C, dtype=Xw.dtype),
            x_norms_sq=x_norms,
            return_sq_dists=True,
        )

    cost_history: list[float] = []
    prev_labels: np.ndarray | None = None
    labels = np.empty(0, dtype=np.int64)
    d2 = np.empty(0, dtype=np.float64)
    n_iter = 0
    converged = False
    # Whether the centers moved since `labels` and `d2` were assigned.
    stale = False

    for _ in range(max_iter):
        labels, d2 = assign(centers)
        stale = False
        cost_history.append(float(np.dot(d2, w)))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        if (
            rel_tol is not None
            and len(cost_history) >= 2
            and cost_history[-2] > 0
            and (cost_history[-2] - cost_history[-1]) / cost_history[-2] <= rel_tol
        ):
            converged = True
            break
        n_iter += 1
        new_centers, mass = weighted_centroids(
            X, labels, centers.shape[0], weights=w, empty="nan"
        )
        empties = np.flatnonzero(mass == 0)
        if empties.size:
            new_centers, labels, d2 = _repair_empties(
                X, new_centers, labels, d2, w, empties, empty_policy, rng, assign
            )
        if new_centers.shape[0] == centers.shape[0]:
            shift_sq = float(np.max(np.einsum("ij,ij->i", new_centers - centers,
                                              new_centers - centers)))
        else:  # "drop" changed k; cannot compare shapes
            shift_sq = np.inf
        centers = new_centers
        prev_labels = labels
        stale = True
        if shift_sq <= tol:
            converged = True
            break

    if stale:
        # A tol stop or the max_iter cap ended the loop after an update:
        # the returned centers get their own labels and cost.
        labels, d2 = assign(centers)
    final_cost = float(np.dot(d2, w))
    cost_history.append(final_cost)
    if not converged and warn_on_max_iter:
        warnings.warn(
            f"Lloyd's iteration did not converge in {max_iter} iterations",
            ConvergenceWarning,
            stacklevel=3,
        )
    return LloydResult(
        centers=centers,
        labels=labels,
        cost=final_cost,
        n_iter=n_iter,
        converged=converged,
        cost_history=cost_history,
        n_dist_evals=n_dist,
        accelerated="none",
    )


def _repair_empties(X, centers, labels, d2, w, empties, policy, rng, assign):
    """Apply the empty-cluster policy; returns possibly-updated state.

    ``assign`` is the caller's counted assignment closure (used by the
    ``"drop"`` policy, which must reassign against the shrunken center
    set).
    """
    if policy == "error":
        raise EmptyClusterError(
            f"{empties.size} cluster(s) became empty (indices {empties.tolist()})"
        )
    if policy == "keep":
        # weighted_centroids wrote NaN for empties; a caller-visible NaN
        # center would be a bug, so "keep" must be resolved here by the
        # caller's previous centers — but we no longer have them per-row.
        # Instead, park the empty center on the globally farthest point
        # *without* stealing it from its cluster (labels unchanged); this
        # keeps k constant and is cost-neutral for this iteration.
        fallback = X[int(np.argmax(d2 * w))]
        for e in empties:
            centers[e] = fallback
        return centers, labels, d2
    if policy == "drop":
        keep = np.ones(centers.shape[0], dtype=bool)
        keep[empties] = False
        centers = centers[keep]
        labels, d2 = assign(centers)
        return centers, labels, d2
    # "reseed-farthest": move each empty center onto the point contributing
    # most to the current potential, claiming it (and recompute its d2=0).
    order = np.argsort(d2 * w)[::-1]
    taken = 0
    for e in empties:
        # Skip points that are themselves about to become centers twice.
        idx = int(order[taken])
        taken += 1
        centers[e] = X[idx]
        labels[idx] = e
        d2[idx] = 0.0
    return centers, labels, d2
