"""Shuffle byte accounting: what an emitted record weighs.

The paper's efficiency argument is a *shuffle-discipline* argument: each
``k-means||`` round moves only ``O(l k d)`` data between map and reduce
(Bahmani et al., VLDB 2012, Section 3.5).  The MapReduce runtime charges
every record a map task emits through :func:`record_nbytes`, which is
what ``JobStats.shuffle_bytes`` and the simulated cluster's shuffle term
read; :func:`estimate_nbytes` also weighs each job's broadcast.
"""

from repro.shuffle.accounting import estimate_nbytes, record_nbytes

__all__ = ["estimate_nbytes", "record_nbytes"]
