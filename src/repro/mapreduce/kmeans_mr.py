"""Drivers chaining MapReduce jobs into complete algorithms.

``mr_scalable_kmeans`` is the Section 3.5 realization of Algorithm 2, in
at most ``1 + 2r + 1 + L`` jobs for ``r`` rounds and ``L`` Lloyd
iterations:

* one *uniform-sample* job picks the first center;
* each round is an *update-cost* job (fold the previous round's new
  centers into the per-split ``d^2`` caches; sum partial potentials)
  followed by a *sample* job (independent per-point coins, given the
  broadcast phi);
* one *fold-and-weigh* job folds the last round's candidates into the
  caches and counts each split's nearest-candidate column: the
  candidate weights (Step 7);
* the driver reclusters the weighted candidates sequentially (Step 8 —
  "since the number of centers is small they can all be assigned to a
  single machine"), charged to the simulated clock as a sequential
  section; it is no job;
* ``mr_lloyd`` then refines with one MapReduce job per Lloyd round. The
  first Lloyd job's potential, the mappers' partial phis added
  (Section 3.5), is the seed's cost: the driver makes no pass over the
  data of its own, except to draw top-up rows when the candidates are
  fewer than ``k``.  When the last update moved the centers (the
  ``max_iter`` cap, or a stop by ``tol > 0``), one more job, whose
  mappers make Lloyd's assignment and ship only their partial phi,
  scores the returned centers, so ``final_cost`` is their potential.

Each job is one parallel region of map tasks; each output key's
per-split partials are then folded on the driver in split order (see
:class:`~repro.mapreduce.runtime.LocalMapReduceRuntime`).

At ``r = 5`` with 10 capped Lloyd iterations that is
1 + 10 + 1 + 10 + 1 = 23 jobs.
``mr_random_kmeans`` runs one uniform-sample job and the Lloyd jobs, and
takes its ``seed_cost`` from the first Lloyd job the same way.

Every driver returns an :class:`MRKMeansReport` with both the clustering
outcome and the simulated-time breakdown that Table 4 aggregates.

Drivers accept the dataset as an in-memory array, a
:class:`~repro.data.splits.SplitSource`, or a path to a ``.npy``/``.npz``
file (memory-mapped; datasets larger than RAM stream split by split), a
``workers`` count that fans real map tasks out, and a ``backend``
selecting *where* those tasks run (serial / threads / worker processes)
— see :class:`~repro.mapreduce.runtime.LocalMapReduceRuntime` and
:mod:`repro.exec`. Results are bit-identical for any backend, any worker
count, and either source kind.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.core.lloyd import lloyd as sequential_lloyd
from repro.core.reclustering import TopUpPolicy, apply_top_up
from repro.data.splits import SplitSource, as_split_source
from repro.exceptions import MapReduceError, ValidationError
from repro.exec import ExecBackend
from repro.mapreduce.cluster import ClusterModel
from repro.mapreduce.jobs.common import FLOPS_PER_DIST, ScalarSumReducer
from repro.mapreduce.jobs.cost_job import PHI_KEY, make_cost_job
from repro.mapreduce.jobs.lloyd_job import (
    PHI_KEY as LLOYD_PHI_KEY,
    LloydScoreMapper,
    collect_new_centers,
    make_lloyd_job,
)
from repro.mapreduce.jobs.random_init_job import SAMPLE_KEY, make_uniform_sample_job
from repro.mapreduce.jobs.sample_job import CANDIDATES_KEY, make_sample_job
from repro.mapreduce.jobs.weight_job import WEIGHTS_KEY, make_fold_weight_job
from repro.mapreduce.runtime import LocalMapReduceRuntime
from repro.types import FloatArray, SeedLike
from repro.utils.validation import check_in_range, check_positive_int, check_real_dtype

__all__ = [
    "MRKMeansReport",
    "mr_scalable_kmeans",
    "mr_random_kmeans",
    "mr_lloyd",
    "naive_kmeanspp_flops",
    "simulate_partition_time",
]


@dataclass
class MRKMeansReport:
    """Outcome + telemetry of a full MapReduce k-means run."""

    method: str
    centers: FloatArray
    seed_cost: float
    final_cost: float
    lloyd_iters: int
    n_candidates: int
    #: MapReduce jobs run; the driver's sequential sections, which the
    #: runtime's ``job_log`` also records, are not jobs.
    n_jobs: int
    simulated_minutes: float
    breakdown: dict[str, float] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    #: Always empty: the shuffle never leaves memory.  Kept for readers
    #: of ``shuffle.get("spill_bytes", 0)`` (the benchmark's MR workload).
    shuffle: dict[str, int] = field(default_factory=dict)
    #: Data-plane telemetry: broadcast bytes published, split-state
    #: bytes shipped and the most held resident — see
    #: :func:`_plane_telemetry`.
    plane: dict = field(default_factory=dict)
    #: Fault-tolerance telemetry summed over the run's jobs (all zeros
    #: on a fault-free run): ``retries`` / ``crashes`` / ``timeouts`` /
    #: ``pool_rebuilds`` / ``state_recomputed_bytes`` — see
    #: :func:`_fault_telemetry`.
    faults: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line report used by the examples and the CLI."""
        return (
            f"{self.method}: final={self.final_cost:.4g} seed={self.seed_cost:.4g} "
            f"lloyd_iters={self.lloyd_iters} jobs={self.n_jobs} "
            f"simulated={self.simulated_minutes:.1f} min"
        )


def naive_kmeanspp_flops(m: int, k: int, d: int) -> float:
    """Flops of a *vanilla* Algorithm-1 reclustering of ``m`` points.

    Vanilla k-means++ as written (and as the 2012 reference
    implementations ran it) rebuilds the D^2 distribution against the
    full current center set at every draw: ``sum_{i<k} m * i * d``
    distance evaluations — ``O(m k^2 d)``. This is the term that makes
    ``Partition``'s million-point intermediate set so expensive (Table 4)
    while ``k-means||``'s few thousand candidates stay cheap. The
    incremental-update ablation charges ``O(m k d)`` instead; see
    ``benchmarks/bench_ablations.py``.
    """
    return FLOPS_PER_DIST * d * m * (k * (k - 1) / 2.0 + k)


def _plane_telemetry(runtime: LocalMapReduceRuntime) -> dict[str, int]:
    """Aggregate a runtime's data-plane telemetry for reports.

    ``broadcast_bytes_published`` sums the jobs' broadcasts, each
    published once per job.  ``state_bytes_shipped`` sums the
    split-state bytes that crossed a process boundary by value;
    ``state_bytes_resident`` is the most split state held in shared
    segments at the end of any job: memory, not traffic, so it does not
    grow with the number of jobs.  Both are 0 on in-process backends.
    """
    log = runtime.job_log
    return {
        "broadcast_bytes_published": sum(s.broadcast_bytes for s in log),
        "state_bytes_shipped": sum(s.state_bytes_shipped for s in log),
        "state_bytes_resident": max((s.state_bytes_resident for s in log), default=0),
    }


def _fault_telemetry(runtime: LocalMapReduceRuntime) -> dict[str, int]:
    """Aggregate a runtime's fault-tolerance telemetry for reports.

    Sums the :class:`~repro.exec.FaultStats` counters recorded in each
    job's :class:`~repro.mapreduce.runtime.JobStats` — retries and
    crashes survived, pools rebuilt, and bytes of split state recomputed
    from lineage.  All zeros on a fault-free run; never affects output.
    """
    totals: dict[str, int] = {}
    for stats in runtime.job_log:
        for key, value in stats.faults.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _n_jobs(runtime: LocalMapReduceRuntime) -> int:
    """Jobs in ``runtime.job_log``, less its ``[sequential]`` charges."""
    return sum(not s.name.startswith("[sequential]") for s in runtime.job_log)


def _check_driver_args(
    n: int, k: int, lloyd_max_iter: int, *, l: float | None = None, r: int | None = None
) -> None:
    """The checks ``ScalableKMeans`` and ``KMeans`` make on the same
    arguments, run before the first job."""
    k = check_positive_int(k, name="k")
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of points n={n}")
    check_positive_int(lloyd_max_iter, name="lloyd_max_iter")
    if l is not None:
        check_in_range(l, name="l", low=0.0, low_inclusive=False)
    if r is not None and (
        isinstance(r, bool) or not isinstance(r, numbers.Integral) or r < 0
    ):
        raise ValidationError(f"r must be an int >= 0, got {r!r}")


def mr_lloyd(
    runtime: LocalMapReduceRuntime,
    centers: FloatArray,
    *,
    max_iter: int = 20,
    tol: float = 0.0,
) -> tuple[FloatArray, float, int]:
    """Lloyd's iteration as repeated MapReduce jobs.

    Stops when the maximum squared center shift is ``<= tol`` or after
    ``max_iter`` jobs (the paper bounds the parallel ``Random`` baseline
    at 20 iterations). Returns ``(centers, final_phi, n_iter)``, where
    ``final_phi`` is the potential of the returned centers: when the last
    update moved them, one more job, not counted in ``n_iter``, measures
    it.
    ``tol`` means what it means for :func:`repro.core.lloyd.lloyd`; the
    README's "Two front doors" states the conventions both doors share.
    """
    centers, phi, n_iter, _ = _lloyd_jobs(runtime, centers, max_iter=max_iter, tol=tol)
    return centers, phi, n_iter


def _lloyd_jobs(
    runtime: LocalMapReduceRuntime, centers: FloatArray, *, max_iter: int, tol: float
) -> tuple[FloatArray, float, int, float]:
    """:func:`mr_lloyd`'s loop; also returns the first job's phi, the
    potential of the starting centers, which the drivers report as
    ``seed_cost``."""
    centers = np.array(centers, dtype=np.float64, copy=True)
    # The checks lloyd makes, before the first job.
    check_positive_int(max_iter, name="max_iter")
    check_in_range(tol, name="tol", low=0.0)
    phis: list[float] = []
    for _ in range(max_iter):
        result = runtime.run_job(make_lloyd_job(centers))
        new_centers, phi = collect_new_centers(result.output, centers)
        phis.append(phi)
        shift_sq = float(
            np.max(np.einsum("ij,ij->i", new_centers - centers, new_centers - centers))
        )
        moved = not np.array_equal(new_centers, centers)
        centers = new_centers
        if shift_sq <= tol:
            break
    final_phi = phis[-1]
    if moved:
        # The last job measured phi before its update moved the centers
        # (the max_iter cap, or a stop by tol > 0; at tol = 0 a stop means
        # they did not move): one more job scores the returned centers.
        # Its mappers make the same assignment and ship only their phi.
        job = replace(
            make_lloyd_job(centers), name="lloyd/score",
            mapper_factory=LloydScoreMapper, reducer_factory=ScalarSumReducer,
        )
        final_phi = runtime.run_job(job).single(LLOYD_PHI_KEY)
    return centers, final_phi, len(phis), phis[0]


def mr_scalable_kmeans(
    X: FloatArray | SplitSource | str | os.PathLike,
    k: int,
    *,
    l: float,
    r: int = 5,
    n_splits: int = 8,
    cluster: ClusterModel | None = None,
    seed: SeedLike = None,
    lloyd_max_iter: int = 20,
    top_up: TopUpPolicy = TopUpPolicy.PAD,
    workers: int | None = None,
    backend: "ExecBackend | str | None" = None,
    shared_broadcast: bool = True,
    retry_policy: "RetryPolicy | None" = None,
) -> MRKMeansReport:
    """Full ``k-means||`` pipeline on the simulated cluster.

    Parameters mirror Algorithm 2 (``l`` is absolute, ``r`` the number of
    rounds); ``lloyd_max_iter`` bounds the post-init refinement jobs.
    ``X`` may be an array, a split source, or a ``.npy``/``.npz`` path
    (memory-mapped); ``workers`` fans map tasks out and
    ``backend`` selects the execution backend (``"serial"`` /
    ``"thread"`` / ``"process"``; default: the process-wide one).
    ``k``, ``l``, ``r`` and ``lloyd_max_iter`` are checked as the
    in-memory door checks them; the README's "Two front doors" states
    how ``l`` relates to ``ScalableKMeans(oversampling_factor=)``.
    ``shared_broadcast`` accepts only ``True``: the backend picks the
    transport (shared memory exactly when it crosses processes).
    """
    if shared_broadcast is not True:
        raise ValidationError(
            "shared_broadcast must be True (the backend picks the transport), "
            f"got {shared_broadcast!r}"
        )
    source = as_split_source(X)
    n, d = source.shape
    check_real_dtype(source.dtype, name="X")
    _check_driver_args(n, k, lloyd_max_iter, l=l, r=r)
    with LocalMapReduceRuntime(
        source, n_splits=n_splits, cluster=cluster, seed=seed, workers=workers,
        backend=backend, retry_policy=retry_policy,
    ) as runtime:
        rng = np.random.default_rng(
            runtime._seed_root.integers(0, 2**63)  # driver-side randomness
        )

        # Step 1: first center, uniformly at random, via a sampling job.
        first = runtime.run_job(make_uniform_sample_job(1)).single(SAMPLE_KEY)
        candidates = [np.atleast_2d(first)]
        new_centers = candidates[0]

        # Steps 2-6: cost job + sample job per round. The cost job folds the
        # previous round's picks into each split's cached (d^2, argmin) state
        # and reports the exact current potential; the sample job then flips
        # the per-point coins against that potential.
        n_candidates = 1
        offset = 0
        for _ in range(r):
            cost_job = make_cost_job(new_centers, offset=offset)
            phi = runtime.run_job(cost_job).single(PHI_KEY)
            offset = n_candidates
            if phi <= 0.0:
                new_centers = np.empty((0, d))
                break
            sample_job = make_sample_job(l, phi)
            sampled = runtime.run_job(sample_job).output.get(CANDIDATES_KEY)
            block = sampled[0] if sampled else None
            if block is None or len(block) == 0:
                new_centers = np.empty((0, d))
                continue
            candidates.append(block)
            new_centers = block
            n_candidates += block.shape[0]

        candidate_arr = np.vstack(candidates)
        init_minutes = runtime.simulated_minutes

        # Step 7 on the final fold: fold the last round's candidates (none
        # after an early exit) into the caches, then count each split's
        # cached argmin column.
        weight_job = make_fold_weight_job(
            new_centers, offset=offset, n_candidates=candidate_arr.shape[0]
        )
        weights = runtime.run_job(weight_job).single(WEIGHTS_KEY)
        weight_minutes = runtime.simulated_minutes - init_minutes

        # Step 8: sequential reclustering on the driver.
        if candidate_arr.shape[0] <= k:
            seed_centers = candidate_arr.copy()
            recluster_iters = 0
        else:
            pp = KMeansPlusPlus().run(candidate_arr, k, weights=weights, seed=rng)
            refined = sequential_lloyd(
                candidate_arr, pp.centers, weights=weights, max_iter=100, seed=rng
            )
            seed_centers = refined.centers
            recluster_iters = refined.n_iter
        if seed_centers.shape[0] < k:
            # The driver's only read of the data: top-up rows.
            seed_centers = apply_top_up(seed_centers, source.as_array(), k, top_up, rng)
        m = candidate_arr.shape[0]
        recluster_flops = naive_kmeanspp_flops(m, k, d) + (
            recluster_iters * FLOPS_PER_DIST * m * k * d
        )
        runtime.charge_sequential(recluster_flops, label="recluster candidates")
        recluster_minutes = runtime.simulated_minutes - init_minutes - weight_minutes

        # Lloyd refinement, one MR job per round, to convergence; the first
        # job scores the seed.
        before = runtime.simulated_minutes
        centers, final_cost, n_iter, seed_cost = _lloyd_jobs(
            runtime, seed_centers, max_iter=lloyd_max_iter, tol=0.0
        )
        lloyd_minutes = runtime.simulated_minutes - before

        return MRKMeansReport(
            method="k-means||",
            centers=centers,
            seed_cost=seed_cost,
            final_cost=final_cost,
            lloyd_iters=n_iter,
            n_candidates=int(m),
            n_jobs=_n_jobs(runtime),
            simulated_minutes=runtime.simulated_minutes,
            breakdown={
                "init": init_minutes,
                "weights": weight_minutes,
                "recluster": recluster_minutes,
                "lloyd": lloyd_minutes,
            },
            params={
                "k": k,
                "l": l,
                "r": r,
                "n_splits": n_splits,
                "workers": runtime.workers,
                "backend": runtime.backend.name,
            },
            plane=_plane_telemetry(runtime),
            faults=_fault_telemetry(runtime),
        )


def mr_random_kmeans(
    X: FloatArray | SplitSource | str | os.PathLike,
    k: int,
    *,
    n_splits: int = 8,
    cluster: ClusterModel | None = None,
    seed: SeedLike = None,
    lloyd_max_iter: int = 20,
    workers: int | None = None,
    backend: "ExecBackend | str | None" = None,
    retry_policy: "RetryPolicy | None" = None,
) -> MRKMeansReport:
    """The parallel ``Random`` baseline: uniform seed + bounded MR Lloyd.

    "In the parallel version, we bounded the number of iterations to 20"
    (Section 4.2).
    """
    source = as_split_source(X)
    check_real_dtype(source.dtype, name="X")
    _check_driver_args(source.shape[0], k, lloyd_max_iter)
    with LocalMapReduceRuntime(
        source, n_splits=n_splits, cluster=cluster, seed=seed, workers=workers,
        backend=backend, retry_policy=retry_policy,
    ) as runtime:
        seed_centers = runtime.run_job(make_uniform_sample_job(k)).single(SAMPLE_KEY)
        if seed_centers.shape[0] < k:
            raise MapReduceError(
                f"uniform sampling returned {seed_centers.shape[0]} < k={k} rows"
            )
        init_minutes = runtime.simulated_minutes
        centers, final_cost, n_iter, seed_cost = _lloyd_jobs(
            runtime, seed_centers, max_iter=lloyd_max_iter, tol=0.0
        )
        return MRKMeansReport(
            method="random",
            centers=centers,
            seed_cost=seed_cost,
            final_cost=final_cost,
            lloyd_iters=n_iter,
            n_candidates=k,
            n_jobs=_n_jobs(runtime),
            simulated_minutes=runtime.simulated_minutes,
            breakdown={"init": init_minutes,
                       "lloyd": runtime.simulated_minutes - init_minutes},
            params={"k": k, "n_splits": n_splits, "workers": runtime.workers,
                    "backend": runtime.backend.name},
            plane=_plane_telemetry(runtime),
            faults=_fault_telemetry(runtime),
        )


def simulate_partition_time(
    cluster: ClusterModel,
    *,
    n: int,
    d: int,
    k: int,
    m: int,
    n_intermediate: int,
    lloyd_iters: int,
) -> dict[str, float]:
    """Closed-form simulated minutes for the ``Partition`` baseline.

    Phase 1: ``m`` independent ``k-means#`` group runs scheduled on the
    cluster's workers (each: k rounds of incremental D^2 updates against
    ``3 ln k``-point batches over ``n/m`` points, plus the per-round
    distribution build). Phase 2: sequential vanilla ``k-means++`` over
    the ``n_intermediate`` weighted centers (see
    :func:`naive_kmeanspp_flops`). Finally ``lloyd_iters`` MapReduce
    Lloyd rounds over the full data.

    Returns a phase breakdown in minutes (key ``"total"`` included);
    Table 4 sums exactly these terms.
    """
    import math

    batch = max(1, math.ceil(3.0 * math.log(max(k, 2))))
    group_size = max(1, n // max(1, m))
    group_flops = FLOPS_PER_DIST * k * group_size * batch * d + 2.0 * k * group_size
    phase1 = cluster.parallel_group_seconds([group_flops] * m) + cluster.job_overhead_s

    phase2 = cluster.sequential_seconds(naive_kmeanspp_flops(n_intermediate, k, d))

    lloyd_flops_per_iter = FLOPS_PER_DIST * n * k * d
    lloyd = lloyd_iters * (
        cluster.job_overhead_s
        + lloyd_flops_per_iter / (cluster.n_workers * cluster.worker_flops)
        + (n * d * 8.0) / (cluster.n_workers * cluster.scan_bytes_per_s)
    )
    total = phase1 + phase2 + lloyd
    return {
        "phase1_groups": phase1 / 60.0,
        "phase2_sequential": phase2 / 60.0,
        "lloyd": lloyd / 60.0,
        "total": total / 60.0,
    }
