"""Design-choice ablations (experiment id `ablations`).

Covers the knobs the paper exercises implicitly but never isolates:
sampling mode, reclustering algorithm, candidate weights, combiner use,
plus the naive-vs-incremental reclustering cost model used by Table 4.
"""

from benchmarks.conftest import run_once
from repro.evaluation.experiments.registry import run_experiment
from repro.mapreduce.jobs.common import FLOPS_PER_DIST
from repro.mapreduce.kmeans_mr import naive_kmeanspp_flops


def test_ablations_suite(benchmark, record_result):
    result = run_once(benchmark, run_experiment, "ablations", scale="bench", seed=0)
    record_result(result)
    data = result.data
    paper_variant = data["bernoulli + weighted km++ (paper)"]
    assert data["bernoulli + random reclusterer"]["seed"] > paper_variant["seed"]
    assert (
        data["shuffle/per-point, no combiner"]
        > data["shuffle/per-point + combiner (Hadoop-style)"]
    )


def test_naive_vs_incremental_reclustering_model():
    """The 2012-style naive reclustering costs ~k/2 times the incremental one.

    This is the accounting choice behind Table 4's Partition row; the
    ablation documents its magnitude explicitly.
    """
    m, k, d = 950_000, 500, 42
    naive = naive_kmeanspp_flops(m, k, d)
    incremental = FLOPS_PER_DIST * m * k * d
    assert naive > 100 * incremental
    assert naive / incremental < k  # bounded by k/2 + 1
