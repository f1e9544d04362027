"""Registry mapping experiment ids to their runner functions.

The ids match the ``benchmarks/`` modules one-to-one (``table1`` is
``benchmarks/bench_table1.py``, ``ablations`` is
``benchmarks/bench_ablations.py``); ``python -m repro list`` prints them
and ``python -m repro run <id>`` dispatches through here.
"""

from __future__ import annotations

from typing import Callable

from repro.evaluation.experiments import (
    ablations,
    figure51_rounds,
    figure52_gauss,
    figure53_spam,
    table1_gauss,
    table2_spam,
    table3_kdd_cost,
    table4_kdd_time,
    table5_centers,
    table6_lloyd_iters,
)
from repro.evaluation.experiments.common import ExperimentResult
from repro.exceptions import ExperimentError

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]

#: id -> runner(scale, seed) -> ExperimentResult
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_gauss.run,
    "table2": table2_spam.run,
    "table3": table3_kdd_cost.run,
    "table4": table4_kdd_time.run,
    "table5": table5_centers.run,
    "table6": table6_lloyd_iters.run,
    "figure51": figure51_rounds.run,
    "figure52": figure52_gauss.run,
    "figure53": figure53_spam.run,
    "ablations": ablations.run,
}


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment runner by id."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {name!r}; known: {known}") from None


def run_experiment(name: str, *, scale: str = "scaled", seed: int = 0) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(name)(scale=scale, seed=seed)
