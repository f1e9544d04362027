"""Job-definition interfaces: mappers and reducers.

Mappers here are *block* mappers: they receive an entire input split (a
contiguous block of rows) instead of one record at a time. This mirrors
how efficient Hadoop/Spark k-means implementations actually work (vector
math over a partition, not per-record Python), while the runtime still
accounts work per *record* for the cost model.

Every mapper/reducer accumulates a ``work`` total in abstract
floating-point operations; the cluster model converts work to simulated
time. Reporting work is the component author's responsibility because
only the component knows its arithmetic (e.g. a distance pass over a
block with ``c`` centers costs ``rows * c * d`` multiply-adds).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.exceptions import JobSpecError

__all__ = ["KeyValue", "SplitContext", "BlockMapper", "Reducer", "MapReduceJob"]

#: One emitted record.
KeyValue = tuple[Hashable, Any]


@dataclass
class SplitContext:
    """Per-split execution context handed to a mapper's ``setup``.

    Attributes
    ----------
    split_id / n_splits:
        Which slice of the input this mapper owns.
    rng:
        A generator statistically independent of every other split's —
        the property that makes ``k-means||``'s per-point coin flips
        correct in parallel (Section 3.5: "each mapper can sample
        independently").
    state:
        A per-split dict that *persists across jobs* within one runtime.
        This models data a real implementation would keep co-located with
        the split (an RDD cache / local-disk sidecar file) — e.g. the
        point-to-nearest-center distances that every ``k-means||`` round
        updates incrementally.
    broadcast:
        The job's resolved broadcast value (read-only by contract).
        In a worker process this is a view into a shared-memory
        segment the driver published once; in the driver's process it
        is the payload the job carried.  Mappers whose
        constructor did not receive the payload read it from here in
        ``setup`` — which is what keeps the payload out of every task
        pickle.
    """

    split_id: int
    n_splits: int
    rng: np.random.Generator
    state: dict[str, Any]
    broadcast: Any = None


class BlockMapper(abc.ABC):
    """Map task operating on one whole input split.

    Lifecycle: ``setup(ctx)`` → ``map_block(block)`` → ``cleanup()``; both
    ``map_block`` and ``cleanup`` may emit key-value pairs. Set
    ``self.work`` to the floating-point work performed (for the simulated
    clock) — the runtime reads it after ``cleanup``.
    """

    def __init__(self) -> None:
        self.work: float = 0.0
        self.ctx: SplitContext | None = None

    def setup(self, ctx: SplitContext) -> None:
        """Called once before ``map_block``; default stores the context."""
        self.ctx = ctx

    @abc.abstractmethod
    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        """Process the split and yield emissions."""

    def cleanup(self) -> Iterable[KeyValue]:
        """Called after ``map_block``; may yield final emissions."""
        return ()


class Reducer(abc.ABC):
    """Fold of one key: all of its values, in split order.

    The runtime builds a fresh reducer per output key and runs it on the
    driver, after every map task of the job has finished.
    """

    def __init__(self) -> None:
        self.work: float = 0.0

    @abc.abstractmethod
    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        """Fold the values of ``key``; yield output records."""


@dataclass
class MapReduceJob:
    """A job specification: factories, not instances (one mapper per split).

    Attributes
    ----------
    name:
        For logs / stats.
    mapper_factory:
        Zero-argument callable producing a fresh :class:`BlockMapper`.
    reducer_factory:
        Zero-argument callable producing a fresh :class:`Reducer`.
    broadcast:
        Read-only payload conceptually shipped to every mapper (the
        current center set in every k-means job). Counted against the
        simulated network by its nbytes.
    """

    name: str
    mapper_factory: Callable[[], BlockMapper]
    reducer_factory: Callable[[], Reducer]
    broadcast: Any = None

    def __post_init__(self) -> None:
        if not callable(self.mapper_factory) or not callable(self.reducer_factory):
            raise JobSpecError("mapper_factory and reducer_factory must be callable")
        if not self.name:
            raise JobSpecError("job name must be non-empty")
