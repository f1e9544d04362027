"""The assignment service: micro-batched, low-latency nearest-center queries.

One ``assign(points)`` call at a time wastes the chunked engine: each
request pays full GEMM setup and parallel-dispatch overhead for a
handful of rows.  The service coalesces *concurrent* callers into one
micro-batch using the leader/follower pattern:

* every caller enqueues its request and signals the batching condition;
* the first caller with no leader active becomes the **leader** — it
  waits up to ``max_wait_us`` for followers to pile in (or until
  ``max_batch`` points are queued), drains the queue, stacks the points
  into one matrix, and runs a single :func:`~repro.serve.assign.
  assign_serve` over it;
* followers block on a per-request event and wake with their slice of
  the batch result.

When a caller arrives and the queue is otherwise empty, it skips the
wait entirely — the **fast path**: idle service, synchronous call, no
added latency.  The coalescing knobs trade tail latency for throughput
exactly like a serving system's dynamic batcher.

Labels are *coalescing-invariant*: whatever requests end up sharing a
batch, each caller's labels are bit-identical to a solo
``assign_labels(points, centers)`` call.  A batch is one ``assign_labels``
call per (sparsity, dtype) group, and the distance kernels give a row the
same bits wherever it sits in the batch.  Every batch is served against
**one** model version (a single ``registry.current()`` read per drain),
so a request's rows can never straddle a version flip.
"""

from __future__ import annotations

import threading
import time
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
    """One caller's share of a micro-batched assignment."""

    labels: IntArray
    sq_dists: FloatArray | None
    #: Model version the whole batch was served against.
    version: int
    #: Total points in the coalesced batch this request rode in (1 request
    #: on the fast path; larger under concurrency).
    batch_points: int
    #: Distance evaluations attributed to this request (its share of the
    #: batch, proportional to row count).
    n_dist_evals: int


@dataclass
class ServeStats:
    """Cumulative service counters (snapshot; see :meth:`AssignmentService.stats`)."""

    n_requests: int = 0
    n_batches: int = 0
    n_points: int = 0
    n_fast_path: int = 0
    n_dist_evals: int = 0
    #: Always 0: serving prunes no distance evaluations.  Kept because
    #: perfbench's ``serve.prune_frac`` reads it.
    n_pruned: int = 0
    max_batch_points: int = 0

    @property
    def mean_batch_points(self) -> float:
        return self.n_points / self.n_batches if self.n_batches else 0.0


class _Request:
    __slots__ = ("points", "event", "response", "error")

    def __init__(self, points: np.ndarray):
        self.points = points
        self.event = threading.Event()
        self.response: ServeResponse | None = None
        self.error: BaseException | None = None


class AssignmentService:
    """Micro-batching front end over a :class:`~repro.serve.registry.ModelRegistry`.

    Parameters
    ----------
    max_batch:
        Coalescing target in *points*: the leader stops waiting as soon
        as the queue holds at least this many.  A drain can exceed it by
        at most one request (requests are never split across batches).
    max_wait_us:
        How long the leader lingers for followers, in microseconds.  0
        disables coalescing waits — batching then only happens when
        callers genuinely overlap.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        max_batch: int = 4096,
        max_wait_us: float = 200.0,
        return_sq_dists: bool = False,
    ):
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_us < 0:
            raise ValidationError(
                f"max_wait_us must be >= 0, got {max_wait_us}"
            )
        self._registry = registry
        self._max_batch = int(max_batch)
        self._max_wait_s = float(max_wait_us) * 1e-6
        self._return_sq_dists = bool(return_sq_dists)
        self._lock = threading.Lock()
        self._queue_cv = threading.Condition(self._lock)
        self._queue: list[_Request] = []
        self._queued_points = 0
        self._leader_active = False
        self._closed = False
        self._stats = ServeStats()

    # -- the serving call ---------------------------------------------
    def assign(self, points: FloatArray) -> ServeResponse:
        """Assign ``points`` to their nearest centers; blocks until served.

        Thread-safe; concurrent callers are coalesced.  Each call is
        served in one piece against one model version.  Points with a
        NaN or an infinity are rejected here, before they can join a
        batch.
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
        model = self._registry.current()  # validates d early; raises if empty
        if X.shape[1] != model.d:
            raise ValidationError(
                f"dimension mismatch: points have d={X.shape[1]}, "
                f"served model has d={model.d}"
            )

        request = _Request(X)
        with self._queue_cv:
            if self._closed:
                raise ValidationError("assignment service is closed")
            self._queue.append(request)
            self._queued_points += X.shape[0]
            self._queue_cv.notify_all()
            if self._leader_active:
                # A leader is already collecting; it will take this
                # request (or the next leader will).  Wait as follower.
                leader = False
            else:
                self._leader_active = True
                leader = True

        if leader:
            self._lead()
        request.event.wait()
        if request.error is not None:
            raise request.error
        assert request.response is not None
        return request.response

    # -- leader duties -------------------------------------------------
    def _lead(self) -> None:
        """Collect a batch, serve it, hand off leadership if work remains."""
        while True:
            with self._queue_cv:
                # Sole request in an idle service: serve synchronously,
                # no coalescing wait, no added latency.
                fast = len(self._queue) == 1
                if not fast and self._max_wait_s > 0.0:
                    deadline = time.monotonic() + self._max_wait_s
                    while (
                        self._queued_points < self._max_batch
                        and not self._closed
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._queue_cv.wait(remaining)
                batch = self._queue
                self._queue = []
                self._queued_points = 0
                if not batch:
                    self._leader_active = False
                    return
            try:
                self._serve_batch(batch, fast_path=fast and len(batch) == 1)
            except BaseException as exc:  # noqa: BLE001 - fan the error out
                for request in batch:
                    request.error = exc
                    request.event.set()
            with self._queue_cv:
                if not self._queue:
                    self._leader_active = False
                    return
                # Work arrived while we were busy: stay leader and drain
                # it ourselves rather than waking a follower to lead.

    def _serve_batch(self, batch: list[_Request], *, fast_path: bool) -> None:
        """Run one coalesced batch through ``assign_serve`` and split results."""
        model = self._registry.current()  # one version for the whole batch
        sizes = [request.points.shape[0] for request in batch]
        total = sum(sizes)

        # Requests may arrive in different dtypes; group them (order
        # preserved within a group) so each sub-batch is one clean GEMM
        # in its own working dtype — mixing would silently upcast all.
        # Sparse and dense requests batch separately too: each group must
        # stack into one matrix of its own representation.
        groups: dict[object, list[int]] = {}
        for i, request in enumerate(batch):
            key = (
                _sparse.is_sparse(request.points),
                np.result_type(request.points.dtype, np.float32).str,
            )
            groups.setdefault(key, []).append(i)

        responses: list[ServeResponse | None] = [None] * len(batch)
        evals = 0
        for members in groups.values():
            if len(members) == 1:
                X = batch[members[0]].points
            elif _sparse.is_sparse(batch[members[0]].points):
                # CSR vstack keeps each row's stored-entry order, so the
                # coalescing-invariance of labels holds for sparse
                # requests exactly as for dense ones.
                from scipy import sparse as scipy_sparse

                X = scipy_sparse.vstack(
                    [batch[i].points for i in members], format="csr"
                )
            else:
                X = np.concatenate([batch[i].points for i in members], axis=0)
            result = assign_serve(
                X, model, return_sq_dists=self._return_sq_dists
            )
            evals += result.n_dist_evals
            offset = 0
            for i in members:
                rows = sizes[i]
                share = (
                    result.n_dist_evals * rows // X.shape[0]
                    if X.shape[0]
                    else 0
                )
                responses[i] = ServeResponse(
                    labels=result.labels[offset:offset + rows],
                    sq_dists=(
                        result.sq_dists[offset:offset + rows]
                        if result.sq_dists is not None
                        else None
                    ),
                    version=result.version,
                    batch_points=total,
                    n_dist_evals=share,
                )
                offset += rows

        with self._lock:
            stats = self._stats
            stats.n_requests += len(batch)
            stats.n_batches += 1
            stats.n_points += total
            stats.n_fast_path += 1 if fast_path else 0
            stats.n_dist_evals += evals
            stats.max_batch_points = max(stats.max_batch_points, total)

        for request, response in zip(batch, responses):
            request.response = response
            request.event.set()

    # -- introspection / lifecycle ------------------------------------
    def stats(self) -> ServeStats:
        """A snapshot copy of the cumulative counters."""
        with self._lock:
            return ServeStats(**vars(self._stats))

    def close(self) -> None:
        """Reject new requests; in-flight batches finish normally."""
        with self._queue_cv:
            self._closed = True
            self._queue_cv.notify_all()

    def __enter__(self) -> "AssignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssignmentService(max_batch={self._max_batch}, "
            f"max_wait_us={self._max_wait_s * 1e6:.0f})"
        )
