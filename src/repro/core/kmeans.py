"""High-level ``KMeans`` estimator tying seeding and Lloyd together.

The paper's evaluation protocol is "each initialization method is
implicitly followed by Lloyd's iterations" (Section 4.2); this class is
that protocol as an object, with the familiar ``fit`` / ``predict`` /
``transform`` surface so the examples read like any other clustering
library.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import potential
from repro.core.init_base import FitPoints, Initializer
from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.core.init_random import RandomInit
from repro.core.init_scalable import ScalableKMeans
from repro.core.lloyd import LloydResult, lloyd
from repro.core.results import InitResult
from repro.exceptions import NotFittedError, ValidationError
from repro.linalg.distances import assign_labels, pairwise_sq_dists
from repro.types import ArrayLike, FloatArray, IntArray, SeedLike
from repro.utils.rng import ensure_generator
from repro.utils.validation import check_array, check_positive_int, check_weights

__all__ = ["KMeans", "INIT_ALIASES"]

#: String aliases accepted by the ``init`` argument.
INIT_ALIASES = ("k-means||", "k-means++", "random")


def _make_initializer(init, oversampling_factor, n_rounds, working_dtype) -> Initializer:
    if isinstance(init, Initializer):
        return init
    if init == "k-means||":
        return ScalableKMeans(
            oversampling_factor=oversampling_factor,
            n_rounds=n_rounds,
            working_dtype=working_dtype,
        )
    if init == "k-means++":
        return KMeansPlusPlus(working_dtype=working_dtype)
    if init == "random":
        # Uniform sampling does no distance work; nothing to downcast.
        return RandomInit()
    raise ValidationError(
        f"init must be one of {INIT_ALIASES}, an Initializer instance, or an "
        f"explicit (k, d) center array; got {init!r}"
    )


def seed_and_refine(
    initializer: Initializer,
    points: FitPoints,
    k: int,
    rng: np.random.Generator,
    **lloyd_kwargs,
) -> tuple[InitResult, LloydResult]:
    """Seed with ``initializer``, then run :func:`~repro.core.lloyd.lloyd`.

    The paper's protocol (Section 4.2) on one fit's checked points: both
    steps share the points' working copy and row norms.  A seed that
    only a :func:`~repro.core.costs.potential` pass would score takes its
    ``seed_cost`` from Lloyd's first assignment, which scores the same
    centers with the same kernel: bit for bit that pass whenever the
    kernels run on ``X`` itself.  A narrower ``working_dtype`` makes
    Lloyd's pass round differently, so the seed then pays its own pass.
    """
    init = initializer.run(points, k, seed=rng)
    run = lloyd(points, init.centers, seed=rng, **lloyd_kwargs)
    if init.seed_cost is None:
        Xw, _ = points.working(lloyd_kwargs.get("working_dtype"))
        init.seed_cost = (
            run.cost_history[0]
            if Xw is points.X
            else potential(points.X, init.centers, weights=points.weights)
        )
    return init, run


class KMeans:
    """K-means clustering with pluggable initialization.

    The in-memory front door; the README's "Two front doors" states how
    its ``oversampling_factor``, ``tol`` and empty-cluster default map
    onto the MapReduce drivers.

    Parameters
    ----------
    n_clusters:
        ``k`` — the number of clusters.
    init:
        ``"k-means||"`` (default; the paper's Algorithm 2), ``"k-means++"``,
        ``"random"``, any :class:`~repro.core.init_base.Initializer`, or an
        explicit ``(k, d)`` array of starting centers.
    n_init:
        How many independently-seeded runs to perform; the run with the
        lowest final potential wins. The paper reports medians over 11
        runs rather than best-of-n, so its experiments use ``n_init=1``
        and repeat at the harness level.
    max_iter / tol / empty_policy:
        Passed to :func:`repro.core.lloyd.lloyd`.
    accelerate:
        Lloyd assignment strategy: ``"auto"`` (bounds-accelerated once the
        instance is large enough), ``"hamerly"``, or ``"none"``; forwarded
        to :func:`repro.core.lloyd.lloyd`.
    working_dtype:
        Optional dtype for the distance kernels (``"float32"`` halves GEMM
        time); forwarded to :func:`repro.core.lloyd.lloyd` and to the
        seeding algorithms that support it.
    oversampling_factor / n_rounds:
        Forwarded to :class:`~repro.core.init_scalable.ScalableKMeans` when
        ``init="k-means||"`` (ignored otherwise).
    seed:
        Seed for all randomness in the run.

    Attributes
    ----------
    cluster_centers_:
        ``(k, d)`` final centers.
    labels_:
        Assignment of the training points.
    inertia_:
        Final potential ``phi_X`` (the paper's "final" cost).
    n_iter_:
        Lloyd update steps performed by the winning run.
    init_result_:
        The :class:`~repro.core.results.InitResult` of the winning run
        (``None`` for explicit-array init); ``init_result_.seed_cost`` is
        the paper's "seed" cost.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> X = np.vstack([rng.normal(i * 10, 1, size=(50, 2)) for i in range(3)])
    >>> model = KMeans(n_clusters=3, seed=0).fit(X)
    >>> sorted(np.bincount(model.labels_).tolist())
    [50, 50, 50]
    """

    def __init__(
        self,
        n_clusters: int = 8,
        *,
        init: str | Initializer | ArrayLike = "k-means||",
        n_init: int = 1,
        max_iter: int = 300,
        tol: float = 0.0,
        empty_policy: str = "reseed-farthest",
        accelerate: str = "none",
        working_dtype: str | None = None,
        oversampling_factor: float = 2.0,
        n_rounds: int | str = 5,
        seed: SeedLike = None,
    ):
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        self.init = init
        self.n_init = check_positive_int(n_init, name="n_init")
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = float(tol)
        self.empty_policy = empty_policy
        self.accelerate = accelerate
        self.working_dtype = working_dtype
        self.oversampling_factor = oversampling_factor
        self.n_rounds = n_rounds
        self.seed = seed

        self.cluster_centers_: FloatArray | None = None
        self.labels_: IntArray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int | None = None
        self.init_result_: InitResult | None = None
        self.lloyd_result_: LloydResult | None = None

    # ------------------------------------------------------------------
    def fit(self, X: ArrayLike, *, weights: ArrayLike | None = None) -> "KMeans":
        """Cluster ``X``; returns ``self`` for chaining.

        ``X`` and ``weights`` are checked once, and seeding and Lloyd
        share one row-norm pass (:func:`seed_and_refine`).
        """
        points = FitPoints.check(X, weights, min_rows=self.n_clusters)
        X = points.X
        rng = ensure_generator(self.seed)
        lloyd_kwargs = dict(
            max_iter=self.max_iter,
            tol=self.tol,
            empty_policy=self.empty_policy,
            accelerate=self.accelerate,
            working_dtype=self.working_dtype,
        )

        explicit = not (isinstance(self.init, (str, Initializer)))
        best: tuple[float, LloydResult, InitResult | None] | None = None
        for _ in range(self.n_init):
            if explicit:
                centers = check_array(np.asarray(self.init), name="init centers")
                if centers.shape != (self.n_clusters, X.shape[1]):
                    raise ValidationError(
                        f"explicit init centers have shape {centers.shape}, expected "
                        f"{(self.n_clusters, X.shape[1])}"
                    )
                init_result = None
                run = lloyd(points, centers, seed=rng, **lloyd_kwargs)
            else:
                initializer = _make_initializer(
                    self.init, self.oversampling_factor, self.n_rounds,
                    self.working_dtype,
                )
                init_result, run = seed_and_refine(
                    initializer, points, self.n_clusters, rng, **lloyd_kwargs
                )
            if best is None or run.cost < best[0]:
                best = (run.cost, run, init_result)

        assert best is not None  # n_init >= 1
        _, run, init_result = best
        self.cluster_centers_ = run.centers
        self.labels_ = run.labels
        self.inertia_ = run.cost
        self.n_iter_ = run.n_iter
        self.init_result_ = init_result
        self.lloyd_result_ = run
        return self

    def fit_predict(self, X: ArrayLike, *, weights: ArrayLike | None = None) -> IntArray:
        """Fit and return the training labels."""
        return self.fit(X, weights=weights).labels_

    # ------------------------------------------------------------------
    def _check_fitted(self) -> FloatArray:
        if self.cluster_centers_ is None:
            raise NotFittedError("this KMeans instance is not fitted yet; call fit(X) first")
        return self.cluster_centers_

    def predict(self, X: ArrayLike) -> IntArray:
        """Nearest-center index for each row of ``X``."""
        centers = self._check_fitted()
        X = check_array(X, name="X")
        return assign_labels(X, centers)

    def transform(self, X: ArrayLike) -> FloatArray:
        """Distance (not squared) from each point to each center, ``(n, k)``."""
        centers = self._check_fitted()
        X = check_array(X, name="X")
        return np.sqrt(pairwise_sq_dists(X, centers))

    def score(self, X: ArrayLike, *, weights: ArrayLike | None = None) -> float:
        """Negative potential of ``X`` under the fitted centers (higher = better)."""
        centers = self._check_fitted()
        X = check_array(X, name="X")
        w = check_weights(weights, X.shape[0])
        _, d2 = assign_labels(X, centers, return_sq_dists=True)
        return -float(np.dot(d2, w))

    def __repr__(self) -> str:
        init = self.init if isinstance(self.init, str) else type(self.init).__name__
        return (
            f"KMeans(n_clusters={self.n_clusters}, init={init!r}, "
            f"n_init={self.n_init}, max_iter={self.max_iter})"
        )
