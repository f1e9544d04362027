"""Bounds-accelerated Lloyd assignment (Hamerly's algorithm).

The reference Lloyd loop recomputes all ``n * k`` point-center distances
every iteration, yet after the first few iterations almost no point
changes its cluster.  Hamerly's observation (adapted here to the squared-
Euclidean kernels of :mod:`repro.linalg`): maintain, per point,

* ``ub[i]`` — an upper bound on the distance to its assigned center, and
* ``lb[i]`` — a lower bound on the distance to its *second*-closest
  center,

and, per center, the distance it *drifted* during the last update.  After
an update, ``ub += drift[assigned]`` and ``lb -= max(drift)`` keep both
bounds valid without touching the data.  A point whose
``ub < max(lb, s/2)`` (where ``s`` is the distance from its center to the
nearest other center) provably cannot switch clusters, so the full
``k``-wide distance row is computed only for the points that fail the
test — typically a tiny, shrinking fraction.

Contract with the reference path (:func:`repro.core.lloyd._lloyd_reference`):

* identical label trajectory, iteration count, convergence flag and
  final centers (the bound test uses strict inequality, so any tie falls
  through to an exact argmin with the reference tie-breaking);
* byte-identical final cost — on exit the final ``d^2`` profile of the
  returned centers is produced by the same
  :func:`~repro.linalg.distances.assign_labels` kernel the reference
  uses (one pass, which a stop right after a full bounds pass skips);
* per-iteration ``cost_history`` entries agree to floating-point
  round-off (they are accumulated from exact distances to the *assigned*
  center, evaluated point-wise rather than via the ``(n, k)`` block),
  except after a full bounds pass -- the first iteration's, and any
  after a repair -- whose tile minima are the reference's ``d^2`` bit
  for bit, so the first entry (the seed's cost) is the reference's;
  with ``rel_tol`` set — where the loop is *gated* on those entries —
  the path instead buys the reference profile every iteration, making
  the whole run bit-identical (and forfeiting the skip savings: a
  cost-gated stopping rule needs the exact potential by definition);
* empty-cluster repairs replay the reference code path exactly (the
  repair needs the full ``d^2`` profile anyway, so the accelerated path
  buys the profile with one reference assignment and resets its bounds).

``LloydResult.n_dist_evals`` counts the point-center distance evaluations
actually performed, so the saving is observable: the reference pays
``n * k`` per iteration, this path pays ``n * k`` once plus a small
remainder.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.lloyd import LloydResult, _repair_empties
from repro.exceptions import ConvergenceWarning
from repro.linalg.centroids import weighted_centroids
from repro.linalg.distances import (
    _row_scratch,
    _sq_dist_tiles,
    _tile_top2,
    assign_labels,
    row_norms_sq,
)
from repro.linalg.engine import get_engine
from repro.types import FloatArray

__all__ = ["lloyd_hamerly", "expansion_slack", "half_min_center_dist"]


def expansion_slack(x_norms, c_norms, d, dtype) -> float:
    """Round-off allowance for one GEMM-expansion squared distance.

    ``||x||^2 - 2<x,c> + ||c||^2`` loses up to ``O(d * eps * scale^2)``
    to cancellation. The bounds below are *padded* by this slack (upper
    bounds up, lower bounds down) so a skip decision is never taken on a
    margin smaller than what round-off could fake; points inside the
    slack band fall through to the exact argmin, which preserves the
    reference labels even on cancellation-dominated data.
    """
    eps = float(np.finfo(dtype).eps)
    scale = float(x_norms.max(initial=0.0)) + float(c_norms.max(initial=0.0))
    return 4.0 * eps * (d + 4.0) * scale


def _assign_bounds(Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows=None, best_d2=None):
    """Exact assignment of all rows (``rows=None``) or an index subset,
    filling the Hamerly bounds.

    Uses the same in-place tiles and tile reduction as
    :func:`~repro.linalg.distances.assign_labels` (ties to the lowest
    index); additionally records the distance to the winner
    (``ub``, padded up by ``slack``) and to the runner-up (``lb``, padded
    down; ``+inf`` when ``k == 1``).  A full pass walks the chunks and
    tiles ``assign_labels`` walks, so its tile minima, written to
    ``best_d2`` when given, are that kernel's ``d^2`` bit for bit.
    """
    n = Xw.shape[0] if rows is None else rows.shape[0]
    k = Cw.shape[0]
    neg2C = -2.0 * Cw

    def work(sl: slice) -> None:
        if rows is None:
            block, xn, part, idxs = Xw, x_norms, sl, np.arange(sl.start, sl.stop)
        else:
            idxs = rows[sl]
            block, xn = Xw[idxs], x_norms[idxs]
            part = slice(0, idxs.shape[0])
        for tile, d2 in _sq_dist_tiles(block, part, xn, neg2C, c_norms):
            at = idxs[tile]
            labels[at], best, second = _tile_top2(d2)
            ub[at] = np.sqrt(best + slack)
            lb[at] = np.sqrt(np.maximum(second - slack, 0.0))
            if best_d2 is not None:
                best_d2[at] = best

    get_engine().run_chunks(n, _row_scratch(k), work)
    return n * k


def _tighten_upper_bounds(cand, Xw, Cw, x_norms, c_norms, labels, ub, slack):
    """Replace drifted ``ub`` with the exact current distance, chunked."""
    d = Xw.shape[1]

    def work(sl: slice) -> None:
        idxs = cand[sl]
        block = Xw[idxs]
        lab = labels[idxs]
        g = Cw[lab]
        d2c = x_norms[idxs] - 2.0 * np.einsum("ij,ij->i", block, g) + c_norms[lab]
        np.maximum(d2c, 0.0, out=d2c)
        ub[idxs] = np.sqrt(d2c + slack)

    # Scratch per row: the gathered center row + the point row copy.
    get_engine().run_chunks(cand.shape[0], 16 * max(1, d), work)
    return cand.shape[0]


def _d2_to_assigned(Xw, Cw, labels, x_norms, c_norms):
    """Exact squared distance of every point to its *assigned* center.

    O(nd) — one gathered row-dot per point instead of the O(nkd) block —
    used to track the potential without recomputing the assignment.
    """
    n, d = Xw.shape
    out = np.empty(n, dtype=np.float64)

    def work(sl: slice) -> None:
        block = Xw[sl]
        lab = labels[sl]
        g = Cw[lab]
        v = x_norms[sl] - 2.0 * np.einsum("ij,ij->i", block, g) + c_norms[lab]
        out[sl] = np.maximum(v, 0.0)

    # Scratch per row: the gathered center row + the einsum accumulator.
    get_engine().run_chunks(n, 16 * max(1, d), work)
    return out


def half_min_center_dist(Cw, c_norms, slack) -> np.ndarray:
    """``0.5 * min_{j' != j} ||c_j - c_j'||`` per center, padded down (inf for k=1)."""
    k = Cw.shape[0]
    if k < 2:
        return np.full(k, np.inf)
    d2 = c_norms[:, None] - 2.0 * (Cw @ Cw.T) + c_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    return 0.5 * np.sqrt(np.maximum(d2.min(axis=1) - slack, 0.0))


def lloyd_hamerly(
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
    """Hamerly-accelerated Lloyd loop; inputs pre-validated by ``lloyd``.

    ``X`` is the canonical float64 data (centroid updates, repairs);
    ``Xw`` is the working-dtype view the distance kernels run on (equal to
    ``X`` unless ``working_dtype`` was requested) and ``x_norms`` its row
    norms.
    """
    n = X.shape[0]
    wdt = Xw.dtype
    n_dist = 0

    def assign(C: FloatArray) -> tuple[np.ndarray, np.ndarray]:
        """Reference-kernel assignment (byte-identical d2 profile)."""
        nonlocal n_dist
        n_dist += n * C.shape[0]
        return assign_labels(
            Xw,
            np.ascontiguousarray(C, dtype=wdt),
            x_norms_sq=x_norms,
            return_sq_dists=True,
        )

    labels = np.empty(n, dtype=np.int64)
    ub = np.empty(n, dtype=np.float64)
    lb = np.empty(n, dtype=np.float64)
    bounds_valid = False
    drift: np.ndarray | None = None

    # rel_tol gates the *loop* on the potential, so its per-iteration
    # entries must be bit-identical to the reference's — which only the
    # reference assignment kernel can provide. In that mode we buy the
    # exact profile every iteration (no skip savings; rel_tol is a
    # cost-gated rule, not a label-gated one) and keep everything else
    # identical.
    exact_profile = rel_tol is not None

    cost_history: list[float] = []
    prev_labels: np.ndarray | None = None
    n_iter = 0
    converged = False
    d2a: np.ndarray | None = None
    # Whether the centers moved since `labels` were assigned.
    stale = False

    for _ in range(max_iter):
        Cw = np.ascontiguousarray(centers, dtype=wdt)
        c_norms = row_norms_sq(Cw)
        slack = expansion_slack(x_norms, c_norms, Xw.shape[1], wdt)
        # Whether this iteration's d2a is the reference kernel's profile.
        exact = exact_profile or not bounds_valid
        if exact_profile:
            labels, d2a = assign(centers)
        elif not bounds_valid:
            d2a = np.empty(n, dtype=np.float64)
            n_dist += _assign_bounds(
                Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, best_d2=d2a
            )
            bounds_valid = True
        else:
            # Drift the bounds instead of touching the data.
            ub += drift[labels]
            lb -= drift.max(initial=0.0)
            s_half = half_min_center_dist(Cw, c_norms, slack)
            n_dist += Cw.shape[0] * Cw.shape[0]
            limit = np.maximum(lb, s_half[labels])
            # Strict inequality: a tie (or anything within the round-off
            # slack baked into the bounds) must fall through to the exact
            # argmin so the reference lowest-index tie-break is preserved.
            cand = np.flatnonzero(ub >= limit)
            if cand.size:
                # First tighten ub to the exact current distance — that
                # alone clears most candidates for one distance each.
                n_dist += _tighten_upper_bounds(
                    cand, Xw, Cw, x_norms, c_norms, labels, ub, slack
                )
                still = cand[ub[cand] >= limit[cand]]
                if still.size:
                    n_dist += _assign_bounds(
                        Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows=still
                    )
        stale = False

        if not exact:
            d2a = _d2_to_assigned(Xw, Cw, labels, x_norms, c_norms)
            n_dist += n
        cost_history.append(float(np.dot(d2a, w)))
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
            # The repair orders points by their exact d2 profile; buy the
            # byte-identical profile with one reference assignment (unless
            # this iteration already holds it), replay the reference
            # repair, and rebuild the bounds next iteration.
            if exact:
                ref_labels, ref_d2 = labels, d2a
            else:
                ref_labels, ref_d2 = assign(centers)
            new_centers, ref_labels, ref_d2 = _repair_empties(
                X, new_centers, ref_labels, ref_d2, w, empties, empty_policy, rng, assign
            )
            labels = ref_labels
            bounds_valid = False
        if new_centers.shape[0] == centers.shape[0]:
            move_sq = np.einsum(
                "ij,ij->i", new_centers - centers, new_centers - centers
            )
            shift_sq = float(np.max(move_sq))
            # Padded up a hair: drift must never under-state a center's
            # movement or the drifted bounds stop being bounds. In a
            # narrower working dtype, measure the movement between the
            # *cast* center sets — the ones the kernels actually measure
            # distances to — since the float64 movement can under-state
            # it by the cast error.
            if wdt == np.float64:
                drift = np.sqrt(move_sq) * (1.0 + 1e-12)
            else:
                cast_diff = np.ascontiguousarray(new_centers, dtype=wdt).astype(
                    np.float64
                ) - Cw.astype(np.float64)
                drift = np.sqrt(
                    np.einsum("ij,ij->i", cast_diff, cast_diff)
                ) * (1.0 + 1e-12)
        else:  # "drop" changed k; cannot compare shapes
            shift_sq = np.inf
            drift = None
            bounds_valid = False
        centers = new_centers
        # The bounds path mutates `labels` in place next iteration, so the
        # repeat check needs a snapshot, not an alias.
        prev_labels = labels.copy()
        stale = True
        if shift_sq <= tol:
            converged = True
            break

    if stale or not exact:
        # The returned centers' own labels and the reference kernel's
        # d2 profile, in one pass: after a tol stop or the max_iter cap
        # the labels are the previous centers', and a bounds iteration's
        # d2a is point-wise.
        labels, d2a = assign(centers)

    final_cost = float(np.dot(d2a, w))
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
        accelerated="hamerly",
    )
