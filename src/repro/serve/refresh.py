"""Streaming model refresh: fold mini-batches into the served centers.

A serving deployment drifts: the model was trained on yesterday's data,
today's queries look different.  The mini-batch k-means update (Sculley,
WWW'10 — the streaming cousin of the paper's Lloyd iteration) keeps the
served centers current without a retraining job: each observed batch is
assigned against the **last published** model, folded into per-center
running sums and counts (the same :func:`~repro.linalg.centroids.
cluster_sums` / :func:`~repro.linalg.centroids.cluster_sizes` kernels
Lloyd's reducers use), and every so often the accumulated evidence is
collapsed into new centers and *published* as a fresh version.

Publishing is the registry's atomic swap — readers in-flight keep the
version they started with, the next ``current()`` call sees the new one,
and nobody ever blocks on the refresher.  Centers with no observed
points keep their previous position bit-exactly, so an idle cluster can
never drift from arithmetic noise.

:func:`offline_fold` replays the same schedule with the plain
:func:`~repro.linalg.distances.assign_labels` kernel — the reference the
property tests hold the streaming path to.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.linalg.centroids import cluster_sizes, cluster_sums
from repro.linalg.distances import assign_labels
from repro.serve.assign import assign_serve
from repro.serve.model import ServedModel
from repro.serve.registry import ModelRegistry
from repro.types import FloatArray, IntArray
from repro.utils.validation import check_finite

__all__ = ["StreamingRefresher", "fold_centers", "offline_fold"]


def fold_centers(
    centers: FloatArray,
    sums: FloatArray,
    counts: FloatArray,
    *,
    prior_weight: float = 0.0,
) -> FloatArray:
    """Collapse accumulated evidence into new centers (float64).

    Centers that observed mass move to the (prior-blended) mean of their
    points; centers with zero observed mass keep their previous row
    **bit-exactly** — no multiply-by-one round trip.

    ``prior_weight`` is the mini-batch damping term: each old center
    counts as that many phantom points at its current position, so small
    batches nudge rather than teleport centers (``c_new = (w*c_old +
    sum) / (w + count)``).  0 gives the plain batch mean.
    """
    if prior_weight < 0:
        raise ValidationError(
            f"prior_weight must be >= 0, got {prior_weight}"
        )
    centers = np.asarray(centers, dtype=np.float64)
    new = centers.copy()
    moved = np.asarray(counts) > 0
    if moved.any():
        w = float(prior_weight)
        new[moved] = (w * centers[moved] + sums[moved]) / (
            w + counts[moved, None]
        )
    return new


class StreamingRefresher:
    """Fold observed batches into the registry's served model.

    Parameters
    ----------
    publish_every:
        Publish after this many observed batches (``None`` = never on
        count; call :meth:`flush` or rely on ``drift_threshold``).
    drift_threshold:
        Publish as soon as the folded centers would move any center at
        least this far (Euclidean, float64) from the served ones.
    prior_weight:
        Phantom mass at each old center per publish — see
        :func:`fold_centers`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        publish_every: int | None = None,
        drift_threshold: float | None = None,
        prior_weight: float = 0.0,
    ):
        if publish_every is not None and publish_every < 1:
            raise ValidationError(
                f"publish_every must be >= 1, got {publish_every}"
            )
        if drift_threshold is not None and drift_threshold < 0:
            raise ValidationError(
                f"drift_threshold must be >= 0, got {drift_threshold}"
            )
        if prior_weight < 0:
            raise ValidationError(
                f"prior_weight must be >= 0, got {prior_weight}"
            )
        self._registry = registry
        self._publish_every = publish_every
        self._drift_threshold = drift_threshold
        self._prior_weight = float(prior_weight)
        self._lock = threading.Lock()
        model = registry.current()  # refresher needs a base model
        self._model = model
        self._sums = np.zeros((model.k, model.d), dtype=np.float64)
        self._counts = np.zeros(model.k, dtype=np.float64)
        self._pending_batches = 0
        self.n_published = 0
        self.n_observed = 0

    # ------------------------------------------------------------------
    @property
    def model(self) -> ServedModel:
        """The model evidence is currently accumulated against."""
        return self._model

    def observe(
        self, batch: FloatArray, labels: IntArray | None = None
    ) -> ServedModel | None:
        """Fold one mini-batch; returns the new model if one was published.

        ``labels`` short-circuits assignment when the caller already has
        them (e.g. the serving path just computed them) — they must be
        against :attr:`model`, i.e. the version this refresher last
        published or was created from.  A batch with a NaN or an
        infinity is rejected before anything is folded: one such row
        would poison the running sums and every later publish.
        """
        if _sparse.is_sparse(batch):
            X = _sparse.to_csr(batch)
            values = X.data
        else:
            X = values = np.asarray(batch)
        if X.ndim != 2:
            raise ValidationError(
                f"batch must be 2-dimensional, got shape {X.shape}"
            )
        check_finite(values, name="batch")
        with self._lock:
            model = self._model
            if X.shape[1] != model.d:
                raise ValidationError(
                    f"dimension mismatch: batch has d={X.shape[1]}, "
                    f"model has d={model.d}"
                )
            if labels is None:
                labels = assign_serve(X, model).labels
            else:
                labels = np.asarray(labels)
                if labels.shape != (X.shape[0],):
                    raise ValidationError(
                        f"labels shape {labels.shape} does not match "
                        f"batch of {X.shape[0]} points"
                    )
            self._sums += cluster_sums(X, labels, model.k)
            self._counts += cluster_sizes(labels, model.k)
            self._pending_batches += 1
            self.n_observed += X.shape[0]
            return self._maybe_publish_locked()

    def flush(self) -> ServedModel | None:
        """Publish whatever evidence is pending (no-op when none)."""
        with self._lock:
            if self._pending_batches == 0:
                return None
            return self._publish_locked()

    # ------------------------------------------------------------------
    def _maybe_publish_locked(self) -> ServedModel | None:
        due = (
            self._publish_every is not None
            and self._pending_batches >= self._publish_every
        )
        if not due and self._drift_threshold is not None:
            folded = fold_centers(
                self._model.centers,
                self._sums,
                self._counts,
                prior_weight=self._prior_weight,
            )
            drift = np.sqrt(
                ((folded - np.asarray(self._model.centers, dtype=np.float64))
                 ** 2).sum(axis=1)
            ).max()
            due = drift >= self._drift_threshold
        return self._publish_locked() if due else None

    def _publish_locked(self) -> ServedModel:
        new_centers = fold_centers(
            self._model.centers,
            self._sums,
            self._counts,
            prior_weight=self._prior_weight,
        ).astype(self._model.dtype)
        model = self._registry.publish(new_centers)
        self._model = model
        self._sums[:] = 0.0
        self._counts[:] = 0.0
        self._pending_batches = 0
        self.n_published += 1
        return model

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingRefresher(model=v{self._model.version}, "
            f"pending={self._pending_batches}, published={self.n_published})"
        )


def offline_fold(
    centers: FloatArray,
    batches: list[FloatArray],
    *,
    publish_every: int | None = None,
    drift_threshold: float | None = None,
    prior_weight: float = 0.0,
) -> list[FloatArray]:
    """Reference replay of the streaming refresh with naive assignment.

    Returns the list of center matrices a :class:`StreamingRefresher`
    (same knobs, plus a trailing flush) publishes — computed with the
    plain :func:`~repro.linalg.distances.assign_labels` kernel and the
    same fold arithmetic.  The property tests assert bit-identity.
    """
    current = np.asarray(centers, dtype=np.float64)
    dtype = np.asarray(centers).dtype
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        dtype = np.dtype(np.float64)
    k = current.shape[0]
    sums = np.zeros_like(current)
    counts = np.zeros(k, dtype=np.float64)
    pending = 0
    published: list[FloatArray] = []

    def fold() -> FloatArray:
        return fold_centers(
            current.astype(dtype), sums, counts, prior_weight=prior_weight
        )

    for batch in batches:
        X = np.asarray(batch)
        labels = assign_labels(X, current.astype(dtype))
        sums += cluster_sums(X, labels, k)
        counts += cluster_sizes(labels, k)
        pending += 1
        due = publish_every is not None and pending >= publish_every
        if not due and drift_threshold is not None:
            folded = fold()
            drift = np.sqrt(
                ((folded - current.astype(dtype).astype(np.float64)) ** 2)
                .sum(axis=1)
            ).max()
            due = drift >= drift_threshold
        if due:
            new = fold().astype(dtype)
            published.append(new)
            current = new.astype(np.float64)
            sums[:] = 0.0
            counts[:] = 0.0
            pending = 0
    if pending:
        new = fold().astype(dtype)
        published.append(new)
    return published
