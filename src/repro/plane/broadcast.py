"""Broadcast handles: how a job-scoped read-only value reaches workers.

The MapReduce driver wraps ``job.broadcast`` in a :class:`BroadcastRef`
before dispatch and every map task resolves the handle back into the
value inside whatever process runs it:

:class:`InlineBroadcast`
    The value itself.  In serial/thread backends this is a zero-copy
    reference (the handle never crosses a process boundary); under the
    process backend's legacy *pickle path* the value rides inside every
    task pickle — the historical behavior, kept behind the
    ``--no-shared-broadcast`` escape hatch.

:class:`SharedArrayBroadcast`
    The zero-copy plane: the driver published the ndarray once into a
    shared-memory segment (:mod:`repro.plane.shm`) and the handle
    pickles as just ``(name, shape, dtype)`` — a few dozen bytes per
    task instead of ``O(k·d)``.  Workers attach the segment read-through
    and cache the mapping across tasks.

``publish_broadcast`` decides between the two; ``resolve_broadcast``
accepts either a handle or a raw value, so jobs hand-built in tests
(whose ``broadcast`` is a plain array) keep working unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.plane.shm import SegmentHandle, attach_array, create_array_segment

__all__ = [
    "BroadcastRef",
    "InlineBroadcast",
    "SharedArrayBroadcast",
    "PublishedBroadcast",
    "publish_broadcast",
    "resolve_broadcast",
]


class BroadcastRef(abc.ABC):
    """A picklable handle to one job's broadcast value."""

    @abc.abstractmethod
    def resolve(self) -> Any:
        """The broadcast value, materialized in the calling process."""


@dataclass(frozen=True)
class InlineBroadcast(BroadcastRef):
    """The value itself — zero-copy in process, pickled across processes."""

    value: Any

    def resolve(self) -> Any:
        return self.value


@dataclass(frozen=True)
class SharedArrayBroadcast(BroadcastRef):
    """Descriptor of an ndarray published to shared memory.

    Pickles as ``(name, shape, dtype)`` only.  ``resolve()`` attaches
    the segment (cached per process) and returns a *read-only* view —
    mappers must treat broadcasts as immutable, and the read-only flag
    turns an accidental write into an immediate error instead of
    cross-process corruption.
    """

    name: str
    shape: tuple
    dtype: str

    def resolve(self) -> np.ndarray:
        array = attach_array(self.name, self.shape, self.dtype)
        view = array.view()
        view.flags.writeable = False
        return view


@dataclass
class PublishedBroadcast:
    """Driver-side record of one job's published broadcast.

    ``ref`` is what tasks ship; ``segment`` (when the shared path was
    taken) is released on job completion — the publish is job-scoped,
    like a Spark broadcast's ``destroy()`` at the end of the round.
    ``published_bytes`` is the one-time segment copy, 0 on the inline
    path.
    """

    ref: BroadcastRef
    segment: SegmentHandle | None = None
    published_bytes: int = 0

    @property
    def inline(self) -> bool:
        """True when tasks should ship the raw job (no ref substitution)."""
        return self.segment is None

    def release(self) -> None:
        if self.segment is not None:
            self.segment.release()
            self.segment = None


def publish_broadcast(value: Any, *, shared: bool) -> PublishedBroadcast:
    """Wrap one job's broadcast value for dispatch.

    ``shared`` is the *transport* decision (plane mode is on **and** the
    backend crosses a process boundary): ndarray payloads then go
    through a shared-memory segment, published once.  Everything else —
    scalars, ``None``, any non-array payload, and object-dtype arrays
    (whose buffers are PyObject pointers, meaningless in another
    process) — stays inline; those pickle by value as before.
    """
    if (
        shared
        and isinstance(value, np.ndarray)
        and value.size
        and not value.dtype.hasobject
    ):
        try:
            segment = create_array_segment(value, tag="bc")
        except OSError:
            # No usable shared memory on this system: fall back to the
            # pickle path rather than failing the job.
            return PublishedBroadcast(ref=InlineBroadcast(value))
        ref = SharedArrayBroadcast(
            name=segment.name,
            shape=tuple(segment.array.shape),
            dtype=segment.array.dtype.str,
        )
        return PublishedBroadcast(
            ref=ref, segment=segment, published_bytes=segment.nbytes
        )
    return PublishedBroadcast(ref=InlineBroadcast(value))


def resolve_broadcast(payload: Any) -> Any:
    """Resolve a task's broadcast payload (handle or raw value)."""
    if isinstance(payload, BroadcastRef):
        return payload.resolve()
    return payload
