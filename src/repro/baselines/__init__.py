"""The seeding baseline the paper evaluates against, and its inner routine.

* :class:`KMeansSharp` — Ailon et al.'s ``k-means#``: k D^2-sampling
  rounds that each select ``3 ln k`` points; the inner routine of
  ``Partition``.
* :class:`PartitionInit` — the one-pass streaming baseline of Tables 3-5
  (Section 4.2.1), built on ``k-means#`` per group + a weighted
  ``k-means++`` reduction.

The paper's other baselines, Random and k-means++, live in
:mod:`repro.core`.
"""

from repro.baselines.kmeans_sharp import KMeansSharp
from repro.baselines.partition import PartitionInit

__all__ = [
    "KMeansSharp",
    "PartitionInit",
]
