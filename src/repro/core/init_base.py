"""Common interface for initialization algorithms.

Every seeding method — the paper's ``k-means||``, the ``k-means++`` and
``Random`` baselines, and the streaming ``Partition`` baseline — exposes
the same ``run(X, k)`` contract so the experiment harness, the
:class:`repro.core.kmeans.KMeans` facade, and the MapReduce drivers can
treat them interchangeably.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.costs import potential
from repro.core.results import InitResult
from repro.exceptions import ValidationError
from repro.linalg.distances import row_norms_sq
from repro.types import FloatArray, SeedLike
from repro.utils.rng import ensure_generator
from repro.utils.validation import check_array, check_positive_int, check_weights

__all__ = ["Initializer", "resolve_working_dtype"]


def _check_working_dtype(working_dtype) -> np.dtype | None:
    """``working_dtype`` as a dtype (``None`` stays ``None``), or raise."""
    if working_dtype is None:
        return None
    try:
        dt = np.dtype(working_dtype)
    except TypeError as exc:
        raise ValidationError(
            f"working_dtype must be float32 or float64, got {working_dtype!r}"
        ) from exc
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValidationError(
            f"working_dtype must be float32 or float64, got {working_dtype!r}"
        )
    return dt


def resolve_working_dtype(X: FloatArray, working_dtype) -> FloatArray:
    """The array the seeding distance kernels should run on.

    ``None`` keeps the validated float64 input; ``"float32"`` returns a
    one-time downcast copy so every subsequent kernel call runs the GEMM
    in single precision. Selected centers are always copied back out of
    the *original* ``X``, so the returned center coordinates stay exact.
    """
    dt = _check_working_dtype(working_dtype)
    if dt is None or X.dtype == dt:
        return X
    return np.ascontiguousarray(X, dtype=dt)


class FitPoints:
    """One fit's checked points and weights, and what its kernels share.

    A door that seeds and then runs Lloyd on the same points
    (:class:`~repro.core.kmeans.KMeans`, the evaluation harness) checks
    ``X`` and the weights once into this and hands it to
    :meth:`Initializer.run` and :func:`~repro.core.lloyd.lloyd` in place
    of ``X``.  Neither checks again, and both take the working copy of
    ``X`` and its row norms from :meth:`working`, made once per working
    dtype.
    """

    def __init__(self, X: FloatArray, weights: FloatArray):
        self.X = X
        self.weights = weights
        self._working: dict = {}

    @classmethod
    def check(cls, X, weights=None, *, min_rows: int = 1) -> "FitPoints":
        """Check ``X`` and ``weights`` as every door does."""
        X = check_array(X, name="X", min_rows=min_rows)
        return cls(X, check_weights(weights, X.shape[0]))

    def working(self, working_dtype) -> tuple[FloatArray, FloatArray]:
        """``(Xw, row_norms_sq(Xw))`` with ``Xw`` as
        :func:`resolve_working_dtype` makes it, computed on first use."""
        key = _check_working_dtype(working_dtype) or self.X.dtype
        if key not in self._working:
            Xw = resolve_working_dtype(self.X, key)
            self._working[key] = (Xw, row_norms_sq(Xw))
        return self._working[key]

    @staticmethod
    def of(X, weights) -> "FitPoints":
        """``X`` itself when a door passed its points, else ``X`` checked."""
        if not isinstance(X, FitPoints):
            return FitPoints.check(X, weights)
        if weights is not None:
            raise ValidationError("weights ride in the FitPoints a door passes")
        return X


class Initializer(abc.ABC):
    """Abstract base for seeding algorithms.

    Subclasses implement :meth:`_run` on pre-validated arrays, or
    :meth:`_seed` on the fit's :class:`FitPoints` when their kernels walk
    ``X`` (so a door's fit shares the working copy and row norms with
    Lloyd); the public :meth:`run` handles validation and RNG
    normalization so each algorithm contains only algorithm.  An
    algorithm that would score its seed with a plain
    :func:`~repro.core.costs.potential` pass returns ``seed_cost=None``
    and :meth:`run` makes that pass.
    """

    #: Human-readable name; subclasses override.
    name: str = "initializer"

    def run(
        self,
        X: FloatArray | FitPoints,
        k: int,
        *,
        weights: FloatArray | None = None,
        seed: SeedLike = None,
    ) -> InitResult:
        """Produce ``k`` seed centers for the (weighted) point set ``X``.

        Parameters
        ----------
        X:
            Points, shape ``(n, d)``; validated and converted to float64.
            A door that follows the seed with Lloyd passes its
            :class:`FitPoints` instead, with the weights inside; the seed
            then comes back unscored (``seed_cost=None``) when scoring it
            takes a :func:`~repro.core.costs.potential` pass, which the
            door takes from Lloyd's first assignment of the same centers.
        k:
            Number of centers; must satisfy ``1 <= k <= n`` for methods
            that select distinct input points.
        weights:
            Optional per-point mass (used when seeding a weighted coreset,
            e.g. inside Step 8 of ``k-means||``).
        seed:
            Anything :func:`repro.utils.rng.ensure_generator` accepts.
        """
        points = FitPoints.of(X, weights)
        k = check_positive_int(k, name="k")
        result = self._seed(points, k, ensure_generator(seed))
        if result.seed_cost is None and points is not X:
            # No door follows with Lloyd to score the seed.
            result.seed_cost = potential(points.X, result.centers, weights=points.weights)
        return result

    def _seed(self, points: FitPoints, k: int, rng) -> InitResult:
        """Algorithm body on a fit's checked points; by default
        :meth:`_run` on their arrays."""
        return self._run(points.X, k, points.weights, rng)

    def _run(self, X, k, weights, rng) -> InitResult:
        """Algorithm body; inputs are validated, ``weights`` is never None."""
        raise NotImplementedError(f"{type(self).__name__} implements neither _run nor _seed")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
