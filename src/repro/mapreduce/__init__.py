"""A simulated MapReduce substrate.

The paper runs ``k-means||`` on a 1968-node Hadoop cluster (Section 4);
this package substitutes a faithful *in-process* MapReduce:

* real mappers over real input splits, and reducers folding their
  per-split partials
  (:mod:`repro.mapreduce.job`, :mod:`repro.mapreduce.runtime`);
* an explicit cluster cost model that converts the measured work of each
  phase (records scanned, floating-point work, bytes shuffled, sequential
  sections) into *simulated wall-clock* (:mod:`repro.mapreduce.cluster`) —
  the quantity Table 4 reports;
* the concrete k-means jobs of Section 3.5 (:mod:`repro.mapreduce.jobs`)
  and drivers that chain them into full algorithms
  (:mod:`repro.mapreduce.kmeans_mr`);
* closed-form simulated minutes at paper scale, charging every method
  with the same formulas (:mod:`repro.mapreduce.timing`).

What is simulated and what is real: the *data path* is real (every byte
of every record flows through the mapper and reducer code, so
correctness tests are meaningful); only *time* is modeled, because the
algorithmic quantities that drive the paper's Table 4 — number of passes,
size of sequential sections, convergence speed — are properties of the
algorithms, not of Yahoo's 2012 hardware.
"""

from repro.mapreduce.cluster import ClusterModel, PhaseTime
from repro.mapreduce.job import BlockMapper, MapReduceJob, Reducer
from repro.mapreduce.kmeans_mr import (
    MRKMeansReport,
    mr_lloyd,
    mr_random_kmeans,
    mr_scalable_kmeans,
)
from repro.mapreduce.runtime import JobResult, JobStats, LocalMapReduceRuntime

__all__ = [
    "ClusterModel",
    "PhaseTime",
    "BlockMapper",
    "Reducer",
    "MapReduceJob",
    "LocalMapReduceRuntime",
    "JobResult",
    "JobStats",
    "MRKMeansReport",
    "mr_scalable_kmeans",
    "mr_random_kmeans",
    "mr_lloyd",
]
