"""Run k-means|| as an actual MapReduce pipeline on the simulated cluster.

Section 3.5 of the paper sketches the MapReduce realization; this example
executes it — real mappers over real input splits, and reducers that
fold their per-split partials — and prints the per-job telemetry plus the simulated wall-clock a
2012-style Hadoop grid would have charged, next to the `Random` baseline
bounded at 20 Lloyd iterations (the paper's parallel protocol).

Run with::

    python examples/mapreduce_pipeline.py
"""

from __future__ import annotations

from repro.data import make_kddcup
from repro.mapreduce import ClusterModel, mr_random_kmeans, mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime
from repro.mapreduce.jobs.cost_job import make_cost_job, PHI_KEY


def main() -> None:
    dataset = make_kddcup(n=30_000, seed=3)
    X = dataset.X
    k = 50
    cluster = ClusterModel(
        n_workers=16,
        job_overhead_s=30.0,  # a small modern-ish cluster, not the 2012 grid
    )

    print(f"dataset: {dataset.describe()}")
    print(f"simulated cluster: {cluster.n_workers} workers, "
          f"{cluster.job_overhead_s:.0f}s/job overhead")
    print()

    # workers= fans the map tasks out across real threads (output is
    # bit-identical to workers=1; only the process wall clock changes).
    # Passing a .npy/.npz path instead of X memory-maps the input so the
    # same pipeline handles datasets larger than RAM:
    #     mr_scalable_kmeans("big.npy", k, l=2.0 * k, workers=4)
    scalable = mr_scalable_kmeans(
        X, k, l=2.0 * k, r=5, n_splits=16, cluster=cluster, seed=0, workers=4
    )
    random = mr_random_kmeans(X, k, n_splits=16, cluster=cluster, seed=0)

    for report in (scalable, random):
        print(report.summary())
        for phase, minutes in report.breakdown.items():
            print(f"    {phase:<10} {minutes:7.2f} simulated min")
    print()

    # Under the hood: a single cost job, shown raw. Mappers fold the
    # broadcast centers into their cached d^2 profiles and emit partial
    # potentials; the reducer sums them on the driver (Section 3.5).
    runtime = LocalMapReduceRuntime(X, n_splits=8, cluster=cluster, seed=0)
    job_result = runtime.run_job(make_cost_job(X[:1]))
    stats = job_result.stats
    print("anatomy of one cost job:")
    print(f"    phi(X, first-center) = {job_result.single(PHI_KEY):.4e}")
    print(f"    splits={stats.n_splits} map_records={stats.map_records:,} "
          f"shuffled {stats.shuffle_records} records, "
          f"{stats.shuffle_bytes:,} bytes")
    print(f"    simulated time: {stats.time.total:.1f}s "
          f"(overhead {stats.time.overhead:.0f}s + map {stats.time.map:.1f}s "
          f"+ shuffle {stats.time.shuffle:.2f}s + reduce {stats.time.reduce:.2f}s)")


if __name__ == "__main__":
    main()
