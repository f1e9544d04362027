"""Seeded, repeated experiment runs and their aggregation.

The paper's protocol (Section 4.2): "each initialization method is
implicitly followed by Lloyd's iterations", quality numbers are medians
over 11 runs (Tables 1-2, Figure 5.1) or means over 10 runs (Table 6).
This module is that protocol, factored once so every experiment module
stays declarative.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.init_base import FitPoints, Initializer
from repro.core.kmeans import seed_and_refine
from repro.types import FloatArray
from repro.utils.rng import ensure_generator
from repro.utils.timer import Timer

__all__ = ["RunRecord", "MethodSpec", "run_method", "repeat_runs", "median", "mean"]


@dataclass
class RunRecord:
    """Everything one (method, dataset, k, seed) run produced."""

    method: str
    k: int
    seed_cost: float
    final_cost: float
    lloyd_iters: int
    n_candidates: int
    n_passes: int
    wall_seconds: float
    converged: bool
    params: dict = field(default_factory=dict)


@dataclass
class MethodSpec:
    """A named initialization strategy to evaluate.

    Attributes
    ----------
    name:
        Row label in the rendered tables.
    make:
        ``k -> Initializer`` factory (some methods, e.g. ``k-means||``
        with ``l = 2k``, depend on ``k``).
    lloyd_max_iter:
        Cap on the refinement iterations (the paper caps parallel
        ``Random`` at 20; sequential runs use a high cap and report
        convergence).
    """

    name: str
    make: Callable[[int], Initializer]
    lloyd_max_iter: int = 300


def run_method(
    X: FloatArray,
    k: int,
    spec: MethodSpec,
    *,
    seed: int | np.random.Generator | None = None,
) -> RunRecord:
    """One seeded end-to-end run: initialize, refine, record.

    ``X`` is checked once per run, and the seed's cost comes from Lloyd's
    first assignment where that is the seed's potential bit for bit
    (:func:`~repro.core.kmeans.seed_and_refine`).
    """
    rng = ensure_generator(seed)
    timer = Timer()
    with timer:
        init, refined = seed_and_refine(
            spec.make(k), FitPoints.check(X), k, rng, max_iter=spec.lloyd_max_iter
        )
    return RunRecord(
        method=spec.name,
        k=k,
        seed_cost=init.seed_cost,
        final_cost=refined.cost,
        lloyd_iters=refined.n_iter,
        n_candidates=init.n_candidates,
        n_passes=init.n_passes,
        wall_seconds=timer.elapsed,
        converged=refined.converged,
        params=dict(init.params),
    )


def repeat_runs(
    X: FloatArray,
    k: int,
    spec: MethodSpec,
    *,
    n_repeats: int,
    base_seed: int = 0,
) -> list[RunRecord]:
    """``n_repeats`` independent runs with derived (reproducible) seeds."""
    seeds = np.random.SeedSequence(base_seed).spawn(n_repeats)
    return [
        run_method(X, k, spec, seed=np.random.default_rng(s)) for s in seeds
    ]


def median(records: Sequence[RunRecord], attribute: str) -> float:
    """Median of one numeric attribute across runs (paper's aggregator)."""
    return float(statistics.median(getattr(r, attribute) for r in records))


def mean(records: Sequence[RunRecord], attribute: str) -> float:
    """Mean of one numeric attribute across runs (Table 6's aggregator)."""
    return float(statistics.fmean(getattr(r, attribute) for r in records))
