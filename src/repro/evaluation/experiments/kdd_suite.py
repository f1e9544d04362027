"""Shared runner for the KDDCup1999 experiments (Tables 3, 4, 5).

The paper evaluates the *parallel* implementations on KDDCup1999 with
``k in {500, 1000}``: ``Random`` (Lloyd capped at 20 iterations),
``Partition``, and ``k-means||`` with ``l/k in {0.1, 0.5, 1, 2, 10}``
(``r = 15`` for ``l = 0.1k``, ``r = 5`` otherwise — Section 4.2). This
module runs that whole matrix once per (scale, k) and hands the records
to the three table modules, so cost (Table 3), time inputs (Table 4) and
intermediate-set sizes (Table 5) come from the *same* runs, as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.partition import PartitionInit, default_n_groups
from repro.core.init_base import FitPoints
from repro.core.init_random import RandomInit
from repro.core.init_scalable import ScalableKMeans
from repro.core.kmeans import seed_and_refine
from repro.core.reclustering import KMeansPlusPlusReclusterer
from repro.data.kddcup import make_kddcup
from repro.types import FloatArray
from repro.utils.rng import ensure_generator

__all__ = ["KDDRecord", "run_suite", "L_FACTORS", "SUITE_PARAMS", "method_label"]

#: The paper's oversampling sweep: (l/k, rounds).
L_FACTORS = ((0.1, 15), (0.5, 5), (1.0, 5), (2.0, 5), (10.0, 5))

#: Per-scale workload parameters. ``paper`` generates the 4.8M-row
#: instance — expect hours; ``scaled`` preserves every phenomenon at
#: laptop cost.
SUITE_PARAMS = {
    "bench": {"n": 20_000, "k_values": (50,), "lloyd_cap": 20},
    "scaled": {"n": 100_000, "k_values": (100, 200), "lloyd_cap": 20},
    "paper": {"n": 4_800_000, "k_values": (500, 1000), "lloyd_cap": 20},
}


@dataclass
class KDDRecord:
    """One (method, k) run on the KDD workload."""

    method: str
    k: int
    seed_cost: float
    final_cost: float
    lloyd_iters: int
    n_candidates: int
    recluster_iters: int
    n_rounds: int
    l: float | None = None  # absolute oversampling (k-means|| rows only)
    m_groups: int | None = None  # Partition rows only


def method_label(factor: float) -> str:
    """Row label of a ``k-means||`` sweep entry, as in Table 3."""
    return f"k-means|| l={factor:g}k"


def run_suite(
    X: FloatArray,
    k: int,
    *,
    seed: int = 0,
    lloyd_cap: int = 20,
) -> list[KDDRecord]:
    """Run Random, Partition, and the ``k-means||`` sweep for one ``k``.

    Lloyd runs use ``empty_policy="keep"`` — the only policy a MapReduce
    Lloyd round can realize without an extra pass (empty clusters keep
    their stale centers), and the reason the parallel ``Random`` baseline
    is hurt so badly by seeding duplicates on this data.  ``X`` is checked
    once and its row norms computed once for every run.
    """
    records: list[KDDRecord] = []
    rng = ensure_generator(seed)
    points = FitPoints.check(X)
    refine = dict(max_iter=lloyd_cap, empty_policy="keep")

    # Random: uniform seed, Lloyd bounded at 20 iterations (Section 4.2).
    init, refined = seed_and_refine(RandomInit(), points, k, rng, **refine)
    records.append(
        KDDRecord(
            method="Random",
            k=k,
            seed_cost=init.seed_cost,
            final_cost=refined.cost,
            lloyd_iters=refined.n_iter,
            n_candidates=k,
            recluster_iters=0,
            n_rounds=1,
        )
    )

    # Partition.
    init, refined = seed_and_refine(PartitionInit(), points, k, rng, **refine)
    records.append(
        KDDRecord(
            method="Partition",
            k=k,
            seed_cost=init.seed_cost,
            final_cost=refined.cost,
            lloyd_iters=refined.n_iter,
            n_candidates=init.n_candidates,
            recluster_iters=0,
            n_rounds=2,
            m_groups=init.params["m"],
        )
    )

    # k-means|| sweep.
    for factor, r in L_FACTORS:
        reclusterer = KMeansPlusPlusReclusterer()
        scalable = ScalableKMeans(
            oversampling_factor=factor, n_rounds=r, reclusterer=reclusterer
        )
        init, refined = seed_and_refine(scalable, points, k, rng, **refine)
        records.append(
            KDDRecord(
                method=method_label(factor),
                k=k,
                seed_cost=init.seed_cost,
                final_cost=refined.cost,
                lloyd_iters=refined.n_iter,
                n_candidates=init.n_candidates,
                recluster_iters=reclusterer.last_refine_iters,
                n_rounds=init.n_rounds,
                l=init.params["l"],
            )
        )
    return records


def run_full_suite(scale: str, seed: int = 0) -> dict[int, list[KDDRecord]]:
    """Run the matrix for every ``k`` of the scale; returns ``k -> records``."""
    p = SUITE_PARAMS[scale]
    ds = make_kddcup(n=p["n"], seed=seed)
    out: dict[int, list[KDDRecord]] = {}
    for k in p["k_values"]:
        out[k] = run_suite(ds.X, k, seed=seed + k, lloyd_cap=p["lloyd_cap"])
    return out


def partition_m_at_paper_scale(n: int, k: int) -> int:
    """``m = sqrt(n/k)`` for the timing extrapolation."""
    return default_n_groups(n, k)
