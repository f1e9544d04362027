"""Out-of-core shuffle: memory-budgeted spill-to-disk between map and reduce.

The paper's efficiency argument is a *shuffle-discipline* argument: each
``k-means||`` round moves only ``O(l k d)`` data between map and reduce
(Bahmani et al., VLDB 2012, Section 3.5).  This package is where that
discipline becomes enforceable: the MapReduce runtime routes every map
emission through a :class:`~repro.shuffle.store.ShuffleStore`, and jobs
whose shuffle *isn't* small — a ``granularity="point"`` Lloyd round with
no combiner emits one record per input point — can run under a byte
budget instead of being bounded by driver RAM.

Pieces:

* :mod:`repro.shuffle.accounting` — the one byte scale every store (and
  the simulated cluster's shuffle term) charges records on;
* :mod:`repro.shuffle.spill` — sorted on-disk runs, map-side spill
  manifests, and the deterministic sorted-key external merge;
* :mod:`repro.shuffle.store` — the in-memory (zero-copy fast path) and
  spilling (hash-partitioned, combiner-aware, budgeted) stores.

The budget is the runtime's ``shuffle_budget=`` argument, else the
``shuffle_budget`` setting of :mod:`repro.config`.

The load-bearing invariant, pinned by the property-test matrix: centers,
costs, counters, and output key order are bit-identical between stores,
across execution backends, worker counts, and budgets.
"""

from repro.shuffle.accounting import estimate_nbytes, record_nbytes
from repro.shuffle.spill import (
    SpillManifest,
    SpillRun,
    canonical_order_key,
    iter_merged_groups,
    key_partition,
)
from repro.shuffle.store import (
    DEFAULT_SHUFFLE_PARTITIONS,
    MapSpillSpec,
    MemoryShuffleStore,
    ShuffleStats,
    ShuffleStore,
    SpillingShuffleStore,
    make_shuffle_store,
    reduce_key_order,
    sorted_reduce_keys,
    spill_map_emissions,
)

__all__ = [
    "estimate_nbytes",
    "record_nbytes",
    "SpillManifest",
    "SpillRun",
    "canonical_order_key",
    "iter_merged_groups",
    "key_partition",
    "DEFAULT_SHUFFLE_PARTITIONS",
    "MapSpillSpec",
    "MemoryShuffleStore",
    "ShuffleStats",
    "ShuffleStore",
    "SpillingShuffleStore",
    "make_shuffle_store",
    "reduce_key_order",
    "sorted_reduce_keys",
    "spill_map_emissions",
]
