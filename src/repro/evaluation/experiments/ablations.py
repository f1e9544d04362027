"""Design-choice ablations (not a paper artifact; motivated by Section 5.3).

Four questions the paper raises but does not isolate, answered with
controlled A/B runs:

1. **Sampling mode** — Bernoulli (Algorithm 2) vs exactly-l joint draws
   (the Figure 5.1 variance-reduction variant): does the extra variance
   of independent coins cost quality?
2. **Reclustering algorithm** — the weighted k-means++ of Step 8 vs a
   mass-proportional random pick of candidates: how much of k-means||'s
   quality lives in Step 8?
3. **Candidate weights** — weighted vs unweighted reclustering: the
   paper's Step 7 exists for a reason; measure it.
4. **Combiner** — shuffle bytes of a Lloyd round with mapper-side
   pre-aggregation vs per-point emission + combiner vs no combiner at
   all (the MapReduce design note of Section 3.5).  The runtime runs
   only the first; the two per-point rows are what textbook Hadoop
   would shuffle for the same round, counted in closed form on the same
   byte scale from one assignment pass over the same splits.
"""

from __future__ import annotations

import numpy as np

from repro.core.init_base import FitPoints
from repro.core.init_scalable import ScalableKMeans
from repro.core.kmeans import seed_and_refine
from repro.core.reclustering import KMeansPlusPlusReclusterer, RandomReclusterer
from repro.data.gauss_mixture import make_gauss_mixture
from repro.evaluation.experiments.common import ExperimentResult, check_scale
from repro.evaluation.tables import render_table
from repro.linalg.distances import assign_labels
from repro.mapreduce.jobs.lloyd_job import AGG_KEY, PHI_KEY, make_lloyd_job
from repro.mapreduce.runtime import LocalMapReduceRuntime
from repro.shuffle.accounting import record_nbytes
from repro.utils.rng import ensure_generator

__all__ = ["run"]

_PARAMS = {
    "bench": {"n": 2000, "k": 20, "repeats": 3},
    "scaled": {"n": 10_000, "k": 50, "repeats": 5},
    "paper": {"n": 10_000, "k": 50, "repeats": 11},
}


def _median_costs(X, k, init_factory, repeats, seed) -> tuple[float, float]:
    """Median (seed, final) cost of ``repeats`` runs of an initializer."""
    seeds = np.random.SeedSequence(seed).spawn(repeats)
    points = FitPoints.check(X)
    seed_costs, final_costs = [], []
    for s in seeds:
        init, refined = seed_and_refine(init_factory(), points, k, np.random.default_rng(s))
        seed_costs.append(init.seed_cost)
        final_costs.append(refined.cost)
    return float(np.median(seed_costs)), float(np.median(final_costs))


def _per_point_shuffle(splits, centers) -> dict[str, tuple[int, int, int]]:
    """(map emitted, shuffled records, shuffled bytes) of one Lloyd round
    with per-point emission, without and with a combiner.

    Each split's mapper emits its partial phi plus one ``(d+1,)``
    ``[x | 1]`` record per point under ``(AGG_KEY, cluster)``; a combiner
    folds those into one record per cluster the split holds.  Records
    are weighed by :func:`record_nbytes`, the runtime's byte scale.
    """
    d = centers.shape[1]
    phi_bytes = record_nbytes(PHI_KEY, 0.0)
    row_bytes = record_nbytes((AGG_KEY, 0), np.empty(d + 1))
    emitted = occupied = 0
    for block in splits:
        emitted += 1 + block.shape[0]
        occupied += 1 + np.unique(assign_labels(block, centers)).size
    n_splits = len(splits)
    return {
        "per-point + combiner (Hadoop-style)": (
            emitted, occupied,
            n_splits * phi_bytes + (occupied - n_splits) * row_bytes,
        ),
        "per-point, no combiner": (
            emitted, emitted,
            n_splits * phi_bytes + (emitted - n_splits) * row_bytes,
        ),
    }


class _UnweightedReclusterer(KMeansPlusPlusReclusterer):
    """Ablation: ignore Step 7's weights during reclustering."""

    name = "k-means++ (unweighted)"

    def recluster(self, candidates, weights, k, rng):
        return super().recluster(candidates, np.ones_like(weights), k, rng)


def run(scale: str = "scaled", seed: int = 0) -> ExperimentResult:
    """Run all four ablations."""
    check_scale(scale)
    p = _PARAMS[scale]
    ds = make_gauss_mixture(n=p["n"], k=p["k"], R=10, seed=seed)
    X, k = ds.X, p["k"]
    blocks: list[str] = []
    data: dict = {}

    # 1 + 2 + 3: quality ablations over the initializer configuration.
    variants = {
        "bernoulli + weighted km++ (paper)": lambda: ScalableKMeans(
            oversampling_factor=2.0, n_rounds=5
        ),
        "exact-l + weighted km++": lambda: ScalableKMeans(
            oversampling_factor=2.0, n_rounds=5, sampling="exact"
        ),
        "bernoulli + random reclusterer": lambda: ScalableKMeans(
            oversampling_factor=2.0, n_rounds=5, reclusterer=RandomReclusterer()
        ),
        "bernoulli + unweighted km++": lambda: ScalableKMeans(
            oversampling_factor=2.0, n_rounds=5, reclusterer=_UnweightedReclusterer()
        ),
    }
    rows = []
    for label, factory in variants.items():
        seed_cost, final_cost = _median_costs(X, k, factory, p["repeats"], seed)
        data[label] = {"seed": seed_cost, "final": final_cost}
        rows.append([label, seed_cost, final_cost])
    blocks.append(
        render_table(
            f"Ablation A-C: k-means|| variants on GaussMixture R=10, "
            f"k={k} (median of {p['repeats']})",
            ["variant", "seed cost", "final cost"],
            rows,
            note=(
                "Expected: exact-l ~ bernoulli (slightly lower variance); "
                "random reclusterer and unweighted km++ degrade the seed."
            ),
        )
    )

    # 4: shuffle volume of one Lloyd round: the split-aggregated job as
    # the runtime runs it, and per-point emission counted in closed form.
    rng = ensure_generator(seed)
    centers = X[rng.choice(X.shape[0], size=k, replace=False)]
    runtime = LocalMapReduceRuntime(X, n_splits=8, seed=seed)
    stats = runtime.run_job(make_lloyd_job(centers)).stats
    volumes = {
        # Every record a mapper emits is shuffled: no combiner sits between.
        "split-aggregated (Spark-style)": (
            stats.shuffle_records, stats.shuffle_records, stats.shuffle_bytes,
        ),
        **_per_point_shuffle(runtime.splits, centers),
    }
    shuffle_rows = []
    for label, (emitted, records, nbytes) in volumes.items():
        data[f"shuffle/{label}"] = nbytes
        data[f"shuffle_records/{label}"] = records
        shuffle_rows.append([label, emitted, records, nbytes])
    blocks.append(
        render_table(
            "Ablation D: shuffle volume of one Lloyd round (n="
            f"{X.shape[0]:,}, k={k}, 8 splits)",
            ["mode", "map emitted", "shuffled records", "shuffled bytes"],
            shuffle_rows,
            note=(
                "Expected: no-combiner shuffles O(n d) bytes; combiner and "
                "mapper-side aggregation bring it down to O(splits * k * d)."
            ),
        )
    )
    return ExperimentResult(
        name="ablations",
        title="Design-choice ablations",
        scale=scale,
        blocks=blocks,
        data=data,
    )
