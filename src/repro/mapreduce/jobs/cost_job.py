"""The cost/update job: maintain per-split ``d^2`` caches, emit partial phi.

One invocation per ``k-means||`` round boundary: the driver broadcasts the
centers *added* since the previous invocation; each mapper folds them into
its cached ``d^2(x, C)`` profile (the incremental update every serious
implementation uses — Spark MLlib keeps exactly this per-partition state)
and emits its split's partial potential. The reducer sums partials into
``phi_X(C)`` (Section 3.5).

The mapper also maintains the *argmin* (index of the nearest candidate)
alongside the minimum, which makes Step 7 (candidate weighting) a
zero-distance-work bincount that rides on the last round's fold — see
:class:`repro.mapreduce.jobs.weight_job.FoldWeightMapper`.  The fold's
tile reduction reads each row's minimum at its argmin, so keeping the
argmin costs about what the minimum alone does: at n = 100k, d = 16,
64 centers, one BLAS thread, 21.5-28.6 ms a fold against 23-24 ms for
:func:`~repro.linalg.distances.update_min_sq_dists` (a separate row
``min`` and ``argmin`` took 36-40 ms against 27-28 ms).

The fold reads the split's ``||x||^2`` rows from its state
(:func:`~repro.mapreduce.jobs.common.split_norms`): the first cost job
computes them, and every later cost and Lloyd job reuses them.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from repro.exceptions import JobSpecError
from repro.linalg.distances import update_min_sq_dists_argmin
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob
from repro.mapreduce.jobs.common import (
    FLOPS_PER_DIST,
    STATE_D2,
    STATE_NEAREST,
    ScalarSumReducer,
    split_norms,
)

__all__ = ["UpdateCostMapper", "make_cost_job", "PHI_KEY"]

#: Output key of the summed potential.
PHI_KEY = "phi"


class UpdateCostMapper(BlockMapper):
    """Fold ``new_centers`` into the split's cached profile; emit partial phi.

    Parameters
    ----------
    new_centers:
        Centers added since the last cost job, shape ``(c, d)``.
    offset:
        Global candidate index of ``new_centers[0]`` (candidates are
        numbered in the order the driver collected them); required to keep
        the cached argmin globally consistent.
    reset:
        Discard any cached profile and recompute from scratch (used when a
        driver re-runs a pipeline on the same runtime).
    """

    def __init__(
        self,
        new_centers: np.ndarray | None = None,
        *,
        offset: int = 0,
        reset: bool = False,
    ):
        super().__init__()
        # ``None`` defers to the job broadcast at setup time, keeping the
        # center block out of the pickled mapper factory (data plane).
        self.new_centers = (
            None
            if new_centers is None
            else np.atleast_2d(np.asarray(new_centers, dtype=np.float64))
        )
        self.offset = int(offset)
        self.reset = bool(reset)

    def setup(self, ctx) -> None:
        super().setup(ctx)
        if self.new_centers is None:
            if ctx.broadcast is None:
                raise JobSpecError(
                    "UpdateCostMapper needs centers: pass them to the "
                    "constructor or run it through a job whose broadcast "
                    "carries them"
                )
            self.new_centers = np.atleast_2d(
                np.asarray(ctx.broadcast, dtype=np.float64)
            )

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        d2 = None if self.reset else self.ctx.state.get(STATE_D2)
        nearest = None if self.reset else self.ctx.state.get(STATE_NEAREST)
        if d2 is None or nearest is None:
            d2 = np.full(block.shape[0], np.inf)
            nearest = np.full(block.shape[0], -1, dtype=np.int64)
        if self.new_centers.shape[0]:
            d2, nearest = update_min_sq_dists_argmin(
                block, self.new_centers, d2, nearest, offset=self.offset,
                x_norms_sq=split_norms(self.ctx, block),
            )
        self.ctx.state[STATE_D2] = d2
        self.ctx.state[STATE_NEAREST] = nearest
        self.work += (
            block.shape[0] * self.new_centers.shape[0] * block.shape[1] * FLOPS_PER_DIST
        )
        self.ctx.counters.increment("cost", "points", block.shape[0])
        yield PHI_KEY, float(d2.sum())


def make_cost_job(
    new_centers: np.ndarray, *, offset: int = 0, reset: bool = False
) -> MapReduceJob:
    """Build the cost job for one round boundary."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend; the new centers ride only in
    # ``broadcast`` so the data plane can ship a descriptor per task.
    new_centers = np.atleast_2d(np.asarray(new_centers, dtype=np.float64))
    return MapReduceJob(
        name="kmeans||/update-cost",
        mapper_factory=functools.partial(
            UpdateCostMapper, offset=offset, reset=reset
        ),
        reducer_factory=ScalarSumReducer,
        combiner_factory=ScalarSumReducer,
        broadcast=new_centers,
    )
