"""The assignment service: nearest-center queries on the caller's thread.

``assign(points)`` checks the points, reads ``registry.current()`` once
and makes one :func:`~repro.serve.assign.assign_serve` call on the
calling thread, so a request is served against one model version and
its rows can never straddle a version flip.  Concurrent callers run the
kernel side by side; NumPy releases the GIL inside the GEMM.  Labels
and distances are a solo ``assign_labels(points, centers)`` call's
bits.

A leader/follower micro-batcher once coalesced concurrent callers into
one kernel call.  On the measured traffic it never formed a batch and
let one thread serve at a time; README "Tried and removed" has the
numbers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.serve.assign import assign_serve
from repro.serve.registry import ModelRegistry
from repro.types import FloatArray, IntArray
from repro.utils.validation import check_finite

__all__ = ["AssignmentService", "ServeResponse", "ServeStats"]


@dataclass
class ServeResponse:
    """One caller's assignment."""

    labels: IntArray
    sq_dists: FloatArray
    #: Model version the request was served against.
    version: int
    #: Distance evaluations made for this request: ``n_points * k``.
    n_dist_evals: int


@dataclass
class ServeStats:
    """Cumulative service counters (snapshot; see :meth:`AssignmentService.stats`)."""

    n_requests: int = 0
    n_points: int = 0
    n_dist_evals: int = 0
    #: Always 0: serving prunes no distance evaluations.  Kept because
    #: perfbench's ``serve.prune_frac`` reads it.
    n_pruned: int = 0

    @property
    def n_batches(self) -> int:
        """Kernel calls made: one per request.  Kept because perfbench reads it."""
        return self.n_requests

    @property
    def n_fast_path(self) -> int:
        """Requests served without waiting for another: all of them.

        Kept because perfbench's ``serve.fast_path_frac`` reads it.
        """
        return self.n_requests


class AssignmentService:
    """Thread-safe query front end over a :class:`~repro.serve.registry.ModelRegistry`."""

    def __init__(self, registry: ModelRegistry):
        self._registry = registry
        self._lock = threading.Lock()
        self._closed = False
        self._stats = ServeStats()

    def assign(self, points: FloatArray) -> ServeResponse:
        """Assign ``points`` to their nearest centers on the calling thread.

        A 1-d ``points`` is one point.  Points that are not real numbers,
        or hold a NaN or an infinity, are rejected with
        :class:`~repro.exceptions.ValidationError`.
        """
        if _sparse.is_sparse(points):
            X = _sparse.to_csr(points)
            values = X.data
        else:
            X = values = np.asarray(points)
            if X.ndim == 1:
                X = X[None, :]
        if X.ndim != 2:
            raise ValidationError(
                f"points must be 1- or 2-dimensional, got shape {X.shape}"
            )
        check_finite(values, name="points")
        if self._closed:
            raise ValidationError("assignment service is closed")
        result = assign_serve(X, self._registry.current())
        with self._lock:
            stats = self._stats
            stats.n_requests += 1
            stats.n_points += result.n_points
            stats.n_dist_evals += result.n_dist_evals
        return ServeResponse(
            labels=result.labels,
            sq_dists=result.sq_dists,
            version=result.version,
            n_dist_evals=result.n_dist_evals,
        )

    def stats(self) -> ServeStats:
        """A snapshot copy of the cumulative counters."""
        with self._lock:
            return ServeStats(**vars(self._stats))

    def close(self) -> None:
        """Reject new requests; calls already past the check finish normally."""
        self._closed = True

    def __enter__(self) -> "AssignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
