"""Result objects returned by initializers.

The experiment harness needs much more than the ``(k, d)`` center array:
Tables 4-5 report the number of data passes and the intermediate-set size,
and Figures 5.2-5.3 plot the *seed* cost, so every initializer returns a
structured :class:`InitResult` carrying that telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import FloatArray

__all__ = ["RoundRecord", "InitResult"]


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry for one sampling round of an iterative initializer.

    Attributes
    ----------
    round_index:
        0-based round number.
    cost_before:
        ``phi_X(C)`` entering the round (the denominator of the sampling
        probabilities used during the round).
    n_sampled:
        How many candidates the round added.
    n_candidates:
        Cumulative candidate-set size after the round.
    """

    round_index: int
    cost_before: float
    n_sampled: int
    n_candidates: int


@dataclass
class InitResult:
    """Everything an initialization run produced.

    Attributes
    ----------
    method:
        Human-readable method name (``"k-means||"``, ``"k-means++"``, ...).
    centers:
        The final ``(k, d)`` seed handed to Lloyd's iteration.
    seed_cost:
        ``phi_X(centers)`` — the "seed" column of Tables 1-2.  ``None``
        only on its way to whoever scores it: from an initializer body
        to :meth:`~repro.core.init_base.Initializer.run`, or from ``run``
        to a door that takes it from Lloyd's first assignment.
    n_candidates:
        Size of the intermediate set *before* reclustering (Table 5);
        equals ``k`` for methods without a reclustering step.
    candidates / candidate_weights:
        The intermediate weighted set itself (``None`` for direct methods).
        Kept so ablations can re-cluster the same set with different
        algorithms without re-running the sampling rounds.
    n_rounds:
        Number of sampling rounds executed.
    n_passes:
        Number of passes over the data the method made (the paper's
        scalability argument is exactly about this number).  A pass is
        one sweep that evaluates distances from the points to a set of
        centers: ``k-means||`` makes one for ``psi`` and one per sampling
        round, and a Step 7 pass only when it has to read the data again
        (a narrower ``working_dtype``, or points within round-off of a
        tie between two candidates).
    rounds:
        Per-round :class:`RoundRecord` telemetry (seed-cost trajectories in
        Figures 5.2-5.3 are read from here).
    params:
        The knob settings that produced this run (``l``, ``r``, ...).
    """

    method: str
    centers: FloatArray
    seed_cost: float | None
    n_candidates: int
    n_rounds: int
    n_passes: int
    candidates: FloatArray | None = None
    candidate_weights: FloatArray | None = None
    rounds: list[RoundRecord] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Number of centers in the final seed."""
        return int(self.centers.shape[0])

    def round_costs(self) -> np.ndarray:
        """Convenience: the ``cost_before`` series as an array."""
        return np.asarray([r.cost_before for r in self.rounds], dtype=np.float64)

    def summary(self) -> str:
        """One-line human-readable description (used by the CLI)."""
        return (
            f"{self.method}: k={self.k} seed_cost={self.seed_cost:.6g} "
            f"candidates={self.n_candidates} rounds={self.n_rounds} "
            f"passes={self.n_passes}"
        )
