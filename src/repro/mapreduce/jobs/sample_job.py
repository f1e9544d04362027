"""The oversampling job — Step 4 of Algorithm 2 in MapReduce form.

"Step 4 is very simple in MapReduce: each mapper can sample
independently" (Section 3.5). The driver broadcasts the current global
potential ``phi`` (from the preceding cost job); each mapper flips one
independent coin per point with success probability
``min(1, l * d^2(x, C) / phi)``, reading ``d^2`` from its per-split cache,
and emits the selected rows. A concat reducer assembles the round's
candidate block.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from repro.exceptions import MapReduceError
from repro.linalg import sparse as _sparse
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob
from repro.mapreduce.jobs.common import STATE_D2, ConcatReducer

__all__ = ["BernoulliSampleMapper", "make_sample_job", "CANDIDATES_KEY"]

#: Output key of the stacked candidate rows.
CANDIDATES_KEY = "candidates"


class BernoulliSampleMapper(BlockMapper):
    """Per-point independent Bernoulli sampling from the cached profile."""

    def __init__(self, l: float, phi: float):
        super().__init__()
        if l <= 0:
            raise MapReduceError(f"oversampling l must be positive, got {l}")
        if phi < 0:
            raise MapReduceError(f"phi must be >= 0, got {phi}")
        self.l = float(l)
        self.phi = float(phi)

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        d2 = self.ctx.state.get(STATE_D2)
        if d2 is None or d2.shape[0] != block.shape[0]:
            raise MapReduceError(
                "sample job requires a cost job to have populated the d^2 "
                "cache for this split first"
            )
        if self.phi > 0.0:
            probs = np.minimum(1.0, self.l * d2 / self.phi)
            mask = self.ctx.rng.random(block.shape[0]) < probs
        else:
            mask = np.zeros(block.shape[0], dtype=bool)
        # One coin flip + one compare per point.
        self.work += 2.0 * block.shape[0]
        if mask.any():
            # Candidate centers are always dense, whatever the data
            # representation — only O(l) rows per round ever densify.
            yield CANDIDATES_KEY, _sparse.densify_rows(block[mask])


def make_sample_job(l: float, phi: float) -> MapReduceJob:
    """Build the sampling job for one round (given the round's phi)."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend.
    return MapReduceJob(
        name="kmeans||/sample-round",
        mapper_factory=functools.partial(BernoulliSampleMapper, l, phi),
        reducer_factory=ConcatReducer,
        broadcast=float(phi),
    )
