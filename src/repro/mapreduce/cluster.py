"""The simulated-cluster cost model.

Converts the measured work of a MapReduce job (records scanned, float
work, bytes shuffled) into simulated wall-clock seconds for a cluster of
``n_workers`` machines — the substitution for the paper's 1968-node
Hadoop testbed, which a local run cannot reproduce in wall-clock time.

The model captures the four effects Table 4 actually measures:

1. **per-job latency** — every MapReduce round pays a fixed scheduling +
   I/O overhead (dominant on 2012-era Hadoop; this is why ``k-means||``
   with ``r=15`` (``l = 0.1k``) is ~3x slower than ``r=5`` despite doing
   *less* arithmetic — Table 4, first row of the ``k-means||`` block);
2. **data-parallel scan work** — map tasks scheduled greedily onto
   workers (LPT-style list scheduling with a min-heap);
3. **shuffle volume** — bytes moved between map and reduce;
4. **sequential sections** — work that runs on a single machine (the
   reclustering of the intermediate set; ``Partition``'s second phase).
   This is the term that blows up for ``Partition`` (its intermediate set
   is ~1000x larger, Table 5 → Table 4).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["ClusterModel", "PhaseTime"]


@dataclass(frozen=True)
class PhaseTime:
    """Simulated seconds of one job, broken down by phase.

    ``spill`` is the extra local-disk traffic of an out-of-core shuffle
    (each spilled byte is written once and read back once during the
    merge); it is 0.0 for jobs whose shuffle stayed in memory.
    """

    overhead: float
    map: float
    shuffle: float
    reduce: float
    spill: float = 0.0

    @property
    def total(self) -> float:
        """Total simulated seconds for the job."""
        return self.overhead + self.map + self.shuffle + self.reduce + self.spill


@dataclass
class ClusterModel:
    """A parallel cluster with explicit, documented rate constants.

    Defaults are calibrated to 2012-era commodity hardware (the paper's
    nodes: two quad-core 2.5GHz, 16GB RAM) so that paper-scale inputs
    produce Table 4-magnitude minutes (each attribute below documents its
    constant; :meth:`paper_2012` is the Table 4 calibration). The
    *shape* of every comparison is insensitive to these constants — they
    scale all algorithms alike except where an algorithm genuinely does
    more rounds, more sequential work, or more shuffle.

    Attributes
    ----------
    n_workers:
        Worker machines available for map/reduce tasks.
    worker_flops:
        Useful float operations per second per worker (effective rate,
        i.e. already discounted for framework inefficiency).
    scan_bytes_per_s:
        Per-worker input scan rate (HDFS read + deserialize).
    shuffle_bytes_per_s:
        Aggregate cross-network shuffle bandwidth.
    job_overhead_s:
        Fixed per-job cost: JVM spin-up, scheduling, barrier. The
        dominant constant for round-count comparisons.
    sequential_flops:
        Rate of the single driver machine for sequential sections.
    spill_bytes_per_s:
        Local-disk sequential rate for shuffle spill files (each spilled
        byte is charged for one write plus one read-back at merge time).
        Only jobs that actually spill pay this term.
    """

    n_workers: int = 64
    worker_flops: float = 2.0e9
    scan_bytes_per_s: float = 100e6
    shuffle_bytes_per_s: float = 1e9
    job_overhead_s: float = 30.0
    sequential_flops: float = 2.0e9
    spill_bytes_per_s: float = 200e6

    @classmethod
    def paper_2012(cls) -> "ClusterModel":
        """Constants calibrated to the paper's 2012 shared Hadoop grid.

        Anchored on two Table 4 cells that pin the per-job economics:
        ``Random`` at k=500 took 300 min over 21 jobs (1 init + 20 Lloyd)
        → ~14 min/job, overwhelmingly fixed overhead (queueing, JVM farm
        spin-up, HDFS commit on a busy shared grid), and ``Partition`` at
        k=500 took 420 min, dominated by its sequential second phase over
        ~9.5e5 intermediate centers → a driver rate of ~5e8 flop/s under
        the vanilla-reclustering accounting (``naive_kmeanspp_flops``).
        Compute rates are *effective* (per-record framework overhead
        included), hence far below silicon peak.
        """
        return cls(
            n_workers=64,
            worker_flops=5.0e7,
            scan_bytes_per_s=50e6,
            shuffle_bytes_per_s=1e9,
            job_overhead_s=600.0,
            sequential_flops=5.0e8,
            spill_bytes_per_s=50e6,  # 2012 commodity spinning disk
        )

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        for name in ("worker_flops", "scan_bytes_per_s", "shuffle_bytes_per_s",
                     "sequential_flops", "spill_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.job_overhead_s < 0:
            raise ValueError("job_overhead_s must be >= 0")

    # ------------------------------------------------------------------
    def schedule(self, task_seconds: list[float]) -> float:
        """List-schedule tasks onto ``n_workers``; return the makespan.

        Greedy earliest-free-worker assignment in task order — the same
        discipline a MapReduce scheduler applies to a queue of map tasks.
        """
        if not task_seconds:
            return 0.0
        workers = [0.0] * min(self.n_workers, len(task_seconds))
        heapq.heapify(workers)
        for t in task_seconds:
            if t < 0:
                raise ValueError(f"task time must be >= 0, got {t}")
            earliest = heapq.heappop(workers)
            heapq.heappush(workers, earliest + t)
        return max(workers)

    def map_task_seconds(self, flops: float, scan_bytes: float) -> float:
        """Time of one map task: scan the split, then compute."""
        return scan_bytes / self.scan_bytes_per_s + flops / self.worker_flops

    def job_time(
        self,
        *,
        map_flops_per_split: list[float],
        map_bytes_per_split: list[float],
        shuffle_bytes: float,
        reduce_flops: float,
        spill_bytes: float = 0.0,
        broadcast_bytes: float = 0.0,
    ) -> PhaseTime:
        """Simulated wall-clock of one MapReduce job.

        ``spill_bytes`` is the volume an out-of-core shuffle wrote to
        local spill files; it is charged twice (write + merge read-back).

        ``broadcast_bytes`` is the job's broadcast, published once: the
        payload crosses the cluster network one time per job, so it is
        charged once at the shuffle bandwidth.  The MapReduce runtime
        passes it on every backend and keeps it out of
        ``map_bytes_per_split``, which holds each split's own scan bytes;
        charging both would count the same bytes twice.
        """
        tasks = [
            self.map_task_seconds(f, b)
            for f, b in zip(map_flops_per_split, map_bytes_per_split)
        ]
        return PhaseTime(
            overhead=self.job_overhead_s,
            map=self.schedule(tasks),
            shuffle=(shuffle_bytes + broadcast_bytes) / self.shuffle_bytes_per_s,
            reduce=reduce_flops / self.worker_flops,
            spill=2.0 * spill_bytes / self.spill_bytes_per_s,
        )

    def sequential_seconds(self, flops: float) -> float:
        """Time of a single-machine (driver) section."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        return flops / self.sequential_flops

    def parallel_group_seconds(self, group_flops: list[float]) -> float:
        """Makespan of independent single-machine tasks (Partition's phase 1)."""
        return self.schedule([f / self.worker_flops for f in group_flops])
