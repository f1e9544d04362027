"""Linear-algebra kernels for clustering.

These are the only places in the library where distance arithmetic
happens; every algorithm (k-means++, k-means||, Lloyd, Partition, the
MapReduce jobs) calls through here so that numerical conventions —
squared Euclidean distances, float64, clamping of negative round-off —
are decided exactly once.

Chunk scheduling (block sizes, optional thread fan-out) is owned by
:mod:`repro.linalg.engine`; install an :class:`Engine` with
:func:`set_engine` / :func:`use_engine` to parallelize every kernel at
once.

Every kernel is representation-agnostic: handed a scipy CSR matrix it
dispatches to the sparse siblings in :mod:`repro.linalg.sparse` (SpMM
cross terms, stored-entry folds, nnz-charged chunking) with the
tolerance contract documented there; scipy stays an optional
dependency.
"""

from repro.linalg.centroids import cluster_sizes, cluster_sums, weighted_centroids
from repro.linalg.distances import (
    assign_labels,
    min_sq_dists,
    pairwise_sq_dists,
    row_norms_sq,
    sq_dists_to_point,
    update_min_sq_dists,
    update_min_sq_dists_argmin,
)
from repro.linalg.engine import Engine, get_engine, set_engine, use_engine
from repro.linalg.sparse import HAVE_SCIPY, is_sparse, nnz_chunk_slices, to_csr

__all__ = [
    "HAVE_SCIPY",
    "is_sparse",
    "to_csr",
    "nnz_chunk_slices",
    "pairwise_sq_dists",
    "sq_dists_to_point",
    "min_sq_dists",
    "update_min_sq_dists",
    "update_min_sq_dists_argmin",
    "assign_labels",
    "row_norms_sq",
    "weighted_centroids",
    "cluster_sums",
    "cluster_sizes",
    "Engine",
    "get_engine",
    "set_engine",
    "use_engine",
]
