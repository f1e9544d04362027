"""Table 4 — parallel running time (minutes) on KDDCup1999.

Paper values (minutes on a 1968-node shared Hadoop grid):

=================  ========  ========
method             k=500     k=1000
=================  ========  ========
Random             300.0     489.4
Partition          420.2     1,021.7
k-means|| l=0.1k   230.2     222.6
k-means|| l=0.5k   69.0      46.2
k-means|| l=k      75.6      89.1
k-means|| l=2k     69.8      86.7
k-means|| l=10k    75.7      101.0
=================  ========  ========

Method: the algorithm-dependent quantities —
Lloyd iterations to convergence, intermediate-set sizes, reclustering
refinement iterations — are *measured* by really running every method on
the scaled KDD workload; simulated minutes are then computed at paper
scale (n = 4.8M, d = 42, k in {500, 1000}) with the closed-form job model
of :mod:`repro.mapreduce.timing` under the 2012-grid calibration
(:meth:`repro.mapreduce.cluster.ClusterModel.paper_2012`).

Shape: k-means|| (l >= 0.5k) is several times faster than Random and
Partition; l = 0.1k pays for its 15 rounds; Partition is slowest and
degrades sharply with k because its sequential second phase grows with
both the intermediate-set size and k.
"""

from __future__ import annotations

from repro.evaluation.experiments.common import ExperimentResult, check_scale
from repro.evaluation.experiments.kdd_suite import (
    SUITE_PARAMS,
    partition_m_at_paper_scale,
    run_full_suite,
)
from repro.evaluation.tables import render_table
from repro.mapreduce.cluster import ClusterModel
from repro.mapreduce.timing import time_partition, time_random, time_scalable

__all__ = ["run", "PAPER_REFERENCE", "PAPER_N", "PAPER_D", "PAPER_K"]

#: method -> (k=500, k=1000) minutes from the paper's Table 4.
PAPER_REFERENCE = {
    "Random": (300.0, 489.4),
    "Partition": (420.2, 1021.7),
    "k-means|| l=0.1k": (230.2, 222.6),
    "k-means|| l=0.5k": (69.0, 46.2),
    "k-means|| l=1k": (75.6, 89.1),
    "k-means|| l=2k": (69.8, 86.7),
    "k-means|| l=10k": (75.7, 101.0),
}

PAPER_N = 4_800_000
PAPER_D = 42
PAPER_K = (500, 1000)

#: Extrapolation target per scale: paper scale everywhere — the whole
#: point of Table 4 is the 4.8M-row regime; measured quantities come from
#: the scale's own runs.
_SCALE_FACTORS = {"bench": 1.0, "scaled": 1.0, "paper": 1.0}


def _paper_scale_minutes(cluster, record, n, d, k) -> dict[str, float]:
    """Closed-form minutes of one measured record at paper scale.

    Returns the phase breakdown with ``"total"`` and ``"init"``
    (= total minus the Lloyd refinement) keys.
    """
    if record.method == "Random":
        out = time_random(cluster, n=n, d=d, k=k, lloyd_iters=record.lloyd_iters)
    elif record.method == "Partition":
        # Intermediate-set size scales as 3*sqrt(nk)*ln k; use the paper-
        # scale expectation rather than the scaled measurement.
        import math

        m = partition_m_at_paper_scale(n, k)
        n_intermediate = int(3 * math.sqrt(n * k) * math.log(max(k, 2)))
        out = time_partition(
            cluster,
            n=n,
            d=d,
            k=k,
            m=m,
            n_intermediate=n_intermediate,
            lloyd_iters=record.lloyd_iters,
        )
    else:
        # k-means|| rows: candidates scale like 1 + r*l (independent of n).
        factor = record.l / record.k
        l = factor * k
        n_candidates = int(1 + record.n_rounds * l)
        out = time_scalable(
            cluster,
            n=n,
            d=d,
            k=k,
            l=l,
            r=record.n_rounds,
            n_candidates=n_candidates,
            recluster_iters=max(record.recluster_iters, 1),
            lloyd_iters=record.lloyd_iters,
        )
    out = dict(out)
    out["init"] = out["total"] - out.get("lloyd", 0.0)
    return out


def run(scale: str = "scaled", seed: int = 0) -> ExperimentResult:
    """Regenerate Table 4 at the requested scale."""
    check_scale(scale)
    suite = run_full_suite(scale, seed=seed)
    k_values = SUITE_PARAMS[scale]["k_values"]
    cluster = ClusterModel.paper_2012()

    headers = (
        ["method"]
        + [f"k={pk} init min" for pk in PAPER_K]
        + [f"k={pk} total min" for pk in PAPER_K]
        + [f"Lloyd iters (k={k})" for k in k_values]
        + ["paper k=500", "paper k=1000"]
    )
    rows = []
    data: dict = {"cells": {}, "init": {}, "lloyd_iters": {}}
    methods = [r.method for r in suite[k_values[0]]]
    for i, method in enumerate(methods):
        row: list[object] = [method]
        breakdowns = {}
        for j, pk in enumerate(PAPER_K):
            # Use the measured record at the matching position in the
            # scale's k sweep (lowest measured k maps to paper k=500).
            k_meas = k_values[min(j, len(k_values) - 1)]
            record = suite[k_meas][i]
            breakdowns[pk] = _paper_scale_minutes(cluster, record, PAPER_N, PAPER_D, pk)
            data["cells"][(method, pk)] = breakdowns[pk]["total"]
            data["init"][(method, pk)] = breakdowns[pk]["init"]
        row += [round(breakdowns[pk]["init"], 1) for pk in PAPER_K]
        row += [round(breakdowns[pk]["total"], 1) for pk in PAPER_K]
        for k in k_values:
            iters = suite[k][i].lloyd_iters
            data["lloyd_iters"][(method, k)] = iters
            row.append(iters)
        paper = PAPER_REFERENCE.get(method, (None, None))
        row += list(paper)
        rows.append(row)

    table = render_table(
        f"Table 4 (simulated at n={PAPER_N:,} vs paper): parallel running "
        "time in minutes, KDDCup1999",
        headers,
        rows,
        note=(
            "Simulated with ClusterModel.paper_2012(); Lloyd iteration counts "
            "(exact-stability, capped at 20 as in the paper's parallel runs) "
            "and reclustering telemetry measured on this scale's runs. Shape "
            "checks: init time — Random trivial, km|| a handful of cheap "
            "jobs, Partition dominated by its O(M k^2 d) sequential phase; "
            "total — Partition slowest, degrading with k; km|| l=0.1k pays "
            "for 15 rounds. Known deviation: with every method saturating "
            "the 20-iteration Lloyd cap on the synthetic twin, the measured "
            "Random-vs-km|| total-time gap is smaller than the paper's, "
            "where Random needed more Lloyd iterations than km||."
        ),
    )
    return ExperimentResult(
        name="table4",
        title="Parallel running time (paper Table 4)",
        scale=scale,
        blocks=[table],
        data=data,
    )
