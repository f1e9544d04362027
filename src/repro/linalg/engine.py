"""Chunk-scheduling compute engine for the dense kernels.

Every reduction kernel in :mod:`repro.linalg` walks its input in row
blocks (see :mod:`repro.utils.chunking`).  The engine owns two decisions
those kernels used to make locally:

* **how big a block is** — the scratch budget in bytes, and
* **who runs each block** — inline on the calling thread, or fanned out
  through the process-wide execution backend (:mod:`repro.exec`).

Threading helps because the block body of every kernel is one GEMM plus
a couple of elementwise reductions: NumPy releases the GIL inside BLAS,
so row blocks on separate threads genuinely overlap on multicore
machines.  Each block writes a *disjoint* row slice of preallocated
output arrays, so results are bitwise independent of which thread ran
which block; ordered reductions (:meth:`Engine.map_chunks` consumers)
fold partials in chunk order so they are also independent of worker
count.

Scheduling goes through :func:`repro.exec.get_backend`, which draws from
the same global worker budget as the MapReduce runtime — an engine call
*inside* an MR map task simply finds fewer free workers instead of
stacking a second pool on top of the first (chunk bodies are
shared-memory writes, so on every backend — including ``process`` — they
execute on threads of the calling process).

Configuration
-------------
A new engine fans out to the ``exec_workers`` setting of
:mod:`repro.config` (``1`` = serial when unset) and cuts blocks of
:data:`~repro.utils.chunking.DEFAULT_CHUNK_BYTES`.

Programmatic control::

    from repro.linalg import Engine, set_engine, use_engine

    set_engine(Engine(workers=4))            # process-wide
    with use_engine(workers=4):              # scoped
        labels = assign_labels(X, C)
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

from repro.config import get_config
from repro.exceptions import ValidationError
from repro.utils.chunking import DEFAULT_CHUNK_BYTES, chunk_slices, rows_per_chunk

__all__ = [
    "Engine",
    "get_engine",
    "set_engine",
    "use_engine",
]

T = TypeVar("T")


class Engine:
    """Schedules row blocks of a kernel, serially or via the exec backend.

    Parameters
    ----------
    workers:
        Number of blocks *requested* in flight at once.  ``1`` runs every
        block inline on the calling thread (no scheduler, no overhead);
        ``None`` takes ``exec_workers`` from
        :func:`repro.config.get_config` (``1`` when unset).  The request
        is capped by the global worker budget
        (:func:`repro.exec.get_worker_budget`) shared with every other
        parallel layer.
    chunk_bytes:
        Scratch budget per block in bytes; ``None`` means
        :data:`~repro.utils.chunking.DEFAULT_CHUNK_BYTES`.
    """

    def __init__(self, workers: int | None = None, chunk_bytes: int | None = None):
        if workers is None:
            workers = get_config().exec_workers or 1
        if chunk_bytes is None:
            chunk_bytes = DEFAULT_CHUNK_BYTES
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if chunk_bytes < 1:
            raise ValidationError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.workers = int(workers)
        self.chunk_bytes = int(chunk_bytes)

    # ------------------------------------------------------------------
    def resolve_chunk_rows(
        self, row_scratch_bytes: int, chunk_bytes: int | None = None
    ) -> int:
        """Rows per block under this engine's (or an override) budget."""
        return rows_per_chunk(
            row_scratch_bytes, self.chunk_bytes if chunk_bytes is None else chunk_bytes
        )

    def _slices(
        self, n_rows: int, row_scratch_bytes: int, chunk_bytes: int | None
    ) -> list[slice]:
        return list(
            chunk_slices(n_rows, self.resolve_chunk_rows(row_scratch_bytes, chunk_bytes))
        )

    def run_chunks(
        self,
        n_rows: int,
        row_scratch_bytes: int,
        work: Callable[[slice], Any],
        *,
        chunk_bytes: int | None = None,
    ) -> int:
        """Invoke ``work(sl)`` for every row block; returns the block count.

        ``work`` must write its results into preallocated arrays at the
        disjoint slice ``sl`` — that is what makes the parallel schedule
        race-free and bitwise equal to the serial one.
        """
        return self.run_slices(
            self._slices(n_rows, row_scratch_bytes, chunk_bytes), work
        )

    def run_slices(self, slices: list[slice], work: Callable[[slice], Any]) -> int:
        """:meth:`run_chunks` over *caller-supplied* row ranges.

        The entry point for kernels whose block cost is not uniform per
        row — the CSR kernels cut ranges by stored entries
        (:func:`repro.linalg.sparse.nnz_chunk_slices`) and schedule them
        here, so backends, the worker budget, and fault retry apply to
        sparse blocks exactly as to dense ones.  Slices must be disjoint;
        callers wanting determinism must derive them from data alone.
        """
        if self.workers == 1 or len(slices) <= 1:
            for sl in slices:
                work(sl)
            return len(slices)
        from repro.exec import get_backend

        get_backend().run_tasks(
            [functools.partial(work, sl) for sl in slices], parallelism=self.workers
        )
        return len(slices)

    def map_chunks(
        self,
        n_rows: int,
        row_scratch_bytes: int,
        work: Callable[[slice], T],
        *,
        chunk_bytes: int | None = None,
    ) -> list[T]:
        """Like :meth:`run_chunks` but collects return values *in chunk order*.

        Callers that fold the partials (e.g. per-cluster sums) therefore
        see one fixed reduction order regardless of worker count.
        """
        return self.map_slices(
            self._slices(n_rows, row_scratch_bytes, chunk_bytes), work
        )

    def map_slices(self, slices: list[slice], work: Callable[[slice], T]) -> list[T]:
        """:meth:`map_chunks` over caller-supplied row ranges (kept in order)."""
        if self.workers == 1 or len(slices) <= 1:
            return [work(sl) for sl in slices]
        from repro.exec import get_backend

        return get_backend().run_tasks(
            [functools.partial(work, sl) for sl in slices], parallelism=self.workers
        )

    def reduce_chunks(
        self,
        n_rows: int,
        row_scratch_bytes: int,
        work: Callable[[slice], T],
        *,
        chunk_bytes: int | None = None,
    ) -> T:
        """Run ``work`` per block and fold the results with ``+`` in chunk order.

        Unlike :meth:`map_chunks`, partials are consumed as they are
        produced (the backend's :meth:`~repro.exec.ExecBackend.iter_tasks`
        keeps only a bounded window in flight), so a reduction over many
        blocks does not materialize one partial per block.  The fold
        order is the chunk order regardless of worker count, keeping
        float results deterministic.  ``n_rows`` must be positive (there
        is nothing to fold otherwise).
        """
        return self.reduce_slices(
            self._slices(n_rows, row_scratch_bytes, chunk_bytes), work
        )

    def reduce_slices(self, slices: list[slice], work: Callable[[slice], T]) -> T:
        """:meth:`reduce_chunks` over caller-supplied row ranges.

        The fold order is the slice order regardless of worker count;
        identical slices therefore produce bitwise-identical folds on
        every backend (the sparse cluster sums rely on this to match the
        dense kernel's fixed boundaries).
        """
        if not slices:
            raise ValidationError("reduce_slices needs at least one row")
        if self.workers == 1 or len(slices) <= 1:
            it = iter(slices)
            total = work(next(it))
            for sl in it:
                total = total + work(sl)
            return total
        from repro.exec import get_backend

        total: T | None = None
        first = True
        for partial_result in get_backend().iter_tasks(
            [functools.partial(work, sl) for sl in slices], parallelism=self.workers
        ):
            total = partial_result if first else total + partial_result
            first = False
        return total

    def __repr__(self) -> str:
        return f"Engine(workers={self.workers}, chunk_bytes={self.chunk_bytes})"


# ----------------------------------------------------------------------
# Process-wide current engine.

_engine_lock = threading.Lock()
_current_engine: Engine | None = None


def get_engine() -> Engine:
    """The engine the kernels are currently routed through.

    Every kernel call reads it, so the read takes no lock: the global
    only ever holds ``None`` or a fully built engine, and one read of it
    is atomic.  The lock is taken only to build the default engine.
    """
    global _current_engine
    engine = _current_engine
    if engine is None:
        with _engine_lock:
            if _current_engine is None:
                _current_engine = Engine()
            engine = _current_engine
    return engine


def set_engine(engine: Engine | None) -> Engine | None:
    """Install ``engine`` process-wide; returns the previous one.

    ``None`` resets to a fresh default-configured engine on next use.
    """
    global _current_engine
    with _engine_lock:
        previous = _current_engine
        _current_engine = engine
    return previous


@contextmanager
def use_engine(
    engine: Engine | None = None,
    *,
    workers: int | None = None,
    chunk_bytes: int | None = None,
) -> Iterator[Engine]:
    """Scoped engine override (restores the previous engine on exit).

    Pass either a prebuilt :class:`Engine` or the constructor knobs::

        with use_engine(workers=4):
            labels = assign_labels(X, C)
    """
    if engine is not None and (workers is not None or chunk_bytes is not None):
        raise ValidationError("pass either an engine or workers/chunk_bytes, not both")
    if engine is None:
        engine = Engine(workers=workers, chunk_bytes=chunk_bytes)
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
