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
from repro.types import FloatArray
from repro.utils.validation import check_finite

__all__ = ["StreamingRefresher", "fold_centers", "offline_fold"]


def fold_centers(
    centers: FloatArray, sums: FloatArray, counts: FloatArray
) -> FloatArray:
    """Collapse accumulated evidence into new centers (float64).

    Centers that observed mass move to the mean of their points; centers
    with zero observed mass keep their previous row **bit-exactly** — no
    multiply-by-one round trip.
    """
    centers = np.asarray(centers, dtype=np.float64)
    new = centers.copy()
    moved = np.asarray(counts) > 0
    if moved.any():
        new[moved] = sums[moved] / counts[moved, None]
    return new


class StreamingRefresher:
    """Fold observed batches into the registry's served model.

    Parameters
    ----------
    publish_every:
        Publish after this many observed batches (``None`` = never on
        count; call :meth:`flush`).
    """

    def __init__(
        self, registry: ModelRegistry, *, publish_every: int | None = None
    ):
        if publish_every is not None and publish_every < 1:
            raise ValidationError(
                f"publish_every must be >= 1, got {publish_every}"
            )
        self._registry = registry
        self._publish_every = publish_every
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

    def observe(self, batch: FloatArray) -> ServedModel | None:
        """Fold one mini-batch; returns the new model if one was published.

        The batch is assigned against :attr:`model`, the version this
        refresher last published or was created from.  A batch that is
        not real numbers, or holds a NaN or an infinity, is rejected
        before anything is folded: one such row would poison the running
        sums and every later publish.
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
            labels = assign_serve(X, model).labels
            self._sums += cluster_sums(X, labels, model.k)
            self._counts += cluster_sizes(labels, model.k)
            self._pending_batches += 1
            self.n_observed += X.shape[0]
            if (
                self._publish_every is not None
                and self._pending_batches >= self._publish_every
            ):
                return self._publish_locked()
            return None

    def flush(self) -> ServedModel | None:
        """Publish whatever evidence is pending (no-op when none)."""
        with self._lock:
            if self._pending_batches == 0:
                return None
            return self._publish_locked()

    # ------------------------------------------------------------------
    def _publish_locked(self) -> ServedModel:
        new_centers = fold_centers(
            self._model.centers, self._sums, self._counts
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
) -> list[FloatArray]:
    """Reference replay of the streaming refresh with naive assignment.

    Returns the list of center matrices a :class:`StreamingRefresher`
    (same ``publish_every``, plus a trailing flush) publishes — computed
    with the plain :func:`~repro.linalg.distances.assign_labels` kernel
    and the same fold arithmetic.  The property tests assert
    bit-identity.
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
        return fold_centers(current.astype(dtype), sums, counts).astype(dtype)

    for batch in batches:
        X = np.asarray(batch)
        labels = assign_labels(X, current.astype(dtype))
        sums += cluster_sums(X, labels, k)
        counts += cluster_sizes(labels, k)
        pending += 1
        if publish_every is not None and pending >= publish_every:
            new = fold()
            published.append(new)
            current = new.astype(np.float64)
            sums[:] = 0.0
            counts[:] = 0.0
            pending = 0
    if pending:
        published.append(fold())
    return published
