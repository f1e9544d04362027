"""The assignment service: nearest-center queries on the caller's thread.

``assign(points)`` checks the points, reads ``registry.current()`` once
and makes one :func:`~repro.serve.assign.assign_serve` call on the
calling thread, so a request is served against one model version and
its rows can never straddle a version flip.  Concurrent callers run the
kernel side by side; NumPy releases the GIL inside the GEMM.  Labels
and distances are a solo ``assign_labels(points, centers)`` call's
bits, returned as the :class:`~repro.serve.assign.AssignResult` that
``assign_serve`` built.  The request path takes no shared lock: each
calling thread keeps its own counters, which :meth:`AssignmentService.
stats` sums.

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
from repro.serve.assign import AssignResult, assign_serve
from repro.serve.registry import ModelRegistry
from repro.types import FloatArray
from repro.utils.validation import check_finite

__all__ = ["AssignmentService", "ServeStats"]


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
        self._closed = False
        #: ``[requests, points, dist_evals]`` per calling thread, by thread
        #: id.  Only its own thread writes a row, so no update is lost
        #: without a lock; a thread that reuses a finished one's id
        #: carries its row on.
        self._counts: dict[int, list[int]] = {}

    def assign(self, points: FloatArray) -> AssignResult:
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
        counts = self._counts.setdefault(threading.get_ident(), [0, 0, 0])
        counts[0] += 1
        counts[1] += result.n_points
        counts[2] += result.n_dist_evals
        return result

    def stats(self) -> ServeStats:
        """The cumulative counters, summed over calling threads.

        Exact once the callers it should count have returned; a request
        in flight may be counted in some fields and not yet in others.
        """
        stats = ServeStats()
        for requests, points, dist_evals in list(self._counts.values()):
            stats.n_requests += requests
            stats.n_points += points
            stats.n_dist_evals += dist_evals
        return stats

    def close(self) -> None:
        """Reject new requests; calls already past the check finish normally."""
        self._closed = True

    def __enter__(self) -> "AssignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
