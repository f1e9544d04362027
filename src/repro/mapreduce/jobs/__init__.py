"""Concrete MapReduce jobs realizing Section 3.5 of the paper.

Each module defines the mapper/reducer pair for one primitive:

* :mod:`cost_job` — update the per-split cached ``d^2`` profile with
  newly added centers and emit partial potentials (Steps 2 & 6);
* :mod:`sample_job` — the per-point Bernoulli oversampling (Step 4);
* :mod:`weight_job` — candidate weighting (Step 7), in the driver riding
  on the last round's fold;
* :mod:`lloyd_job` — one Lloyd round as the classic sum/count reduction;
* :mod:`random_init_job` — distributed uniform sampling of ``k`` rows via
  the bottom-k-tags trick (exactly uniform without replacement).
"""

from repro.mapreduce.jobs.cost_job import UpdateCostMapper, make_cost_job
from repro.mapreduce.jobs.lloyd_job import LloydMapper, make_lloyd_job
from repro.mapreduce.jobs.random_init_job import make_uniform_sample_job
from repro.mapreduce.jobs.sample_job import BernoulliSampleMapper, make_sample_job
from repro.mapreduce.jobs.weight_job import (
    FoldWeightMapper,
    WeightMapper,
    make_fold_weight_job,
    make_weight_job,
)

__all__ = [
    "make_cost_job",
    "make_sample_job",
    "make_weight_job",
    "make_fold_weight_job",
    "make_lloyd_job",
    "make_uniform_sample_job",
    "UpdateCostMapper",
    "BernoulliSampleMapper",
    "WeightMapper",
    "FoldWeightMapper",
    "LloydMapper",
]
