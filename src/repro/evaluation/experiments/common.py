"""Shared scaffolding for the experiment modules.

Every experiment runs at one of three *scales*:

* ``"bench"`` — minutes-scale parameters for the pytest-benchmark suite;
* ``"scaled"`` — the default for the CLI: large enough that every paper
  phenomenon is visible, small enough for a laptop;
* ``"paper"`` — the paper's exact sizes (Tables 1-2 / Figures 5.2-5.3 are
  laptop-sized already; the KDD experiments generate the 4.8M-row
  instance and take correspondingly long).

and returns an :class:`ExperimentResult` whose ``blocks`` are rendered
tables/charts and whose ``data`` carries the raw numbers the shape
assertions in ``tests/evaluation/test_experiments.py`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.init_base import Initializer
from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.core.init_random import RandomInit
from repro.core.init_scalable import ScalableKMeans
from repro.evaluation.harness import MethodSpec
from repro.exceptions import ExperimentError

__all__ = [
    "SCALES",
    "ExperimentResult",
    "check_scale",
    "random_spec",
    "kmeanspp_spec",
    "scalable_spec",
]

#: Recognized scale names.
SCALES = ("bench", "scaled", "paper")


@dataclass
class ExperimentResult:
    """Rendered output + raw numbers of one experiment run."""

    name: str
    title: str
    scale: str
    blocks: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        """All blocks joined for printing."""
        header = f"== {self.name}: {self.title} [scale={self.scale}] =="
        return "\n\n".join([header, *self.blocks])


def check_scale(scale: str) -> str:
    """Validate a scale name."""
    if scale not in SCALES:
        raise ExperimentError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


def random_spec(*, lloyd_max_iter: int = 300) -> MethodSpec:
    """The ``Random`` baseline row."""
    return MethodSpec("Random", lambda k: RandomInit(), lloyd_max_iter=lloyd_max_iter)


def kmeanspp_spec(*, lloyd_max_iter: int = 300) -> MethodSpec:
    """The ``k-means++`` baseline row."""
    return MethodSpec(
        "k-means++", lambda k: KMeansPlusPlus(), lloyd_max_iter=lloyd_max_iter
    )


def scalable_spec(
    l_factor: float,
    r: int = 5,
    *,
    label: str | None = None,
    sampling: str = "independent",
    top_up: str = "pad",
    lloyd_max_iter: int = 300,
) -> MethodSpec:
    """A ``k-means||`` row with ``l = l_factor * k`` and ``r`` rounds.

    ``top_up`` selects the short-candidate-set policy; the figure sweeps
    pass ``"truncate"`` so the ``r*l < k`` regime shows the paper's
    "substantially worse than k-means++" behavior instead of being
    silently repaired by random padding.
    """
    name = label if label is not None else f"k-means|| l={l_factor:g}k r={r}"

    def make(k: int, _f=l_factor, _r=r, _s=sampling, _t=top_up) -> Initializer:
        return ScalableKMeans(
            oversampling_factor=_f, n_rounds=_r, sampling=_s, top_up=_t
        )

    return MethodSpec(name, make, lloyd_max_iter=lloyd_max_iter)
