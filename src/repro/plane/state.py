"""Resident split state: per-split caches that never ride the pickle bus.

Every split owns a dict of state that persists across jobs (the
``d^2``/argmin profiles the ``k-means||`` rounds fold into, the Lloyd
mapper's cached row norms — the runtime's RDD-caching model).  When the
backend runs map tasks in other processes, the plane keeps the ndarray
entries of each split's state in shared-memory segments
(:mod:`repro.plane.shm`):

* the driver ships a :class:`SplitStateSpec` — descriptors for the
  shared entries, values only for the (rare, small) non-array ones,
  and for any array a full ``/dev/shm`` had no room for;
* the task materializes the dict by *attaching* the segments (cached
  per process) and runs the mapper against the live shared buffers —
  in-place kernels like ``update_min_sq_dists`` mutate the segment
  directly, so the common case ships **zero** state bytes either way;
* the task reports back a :class:`SplitStateUpdate` of markers: one
  :data:`RESIDENT` token per unchanged-layout entry, the value itself
  only for entries that are new or changed shape/dtype — which the
  driver then (re)publishes, so the *next* job ships a descriptor again.

Ownership stays entirely driver-side — workers never create segments —
so a crashed or recycled worker cannot leak ``/dev/shm`` entries: every
segment is freed by the driver's :meth:`SplitStateManager.release`, its
GC finalizer, or interpreter exit.

Bit-identity: attached arrays hold exactly the bytes the driver
published and in-place refreshes are straight ``memcpy``s, so a mapper
sees bit-identical state whichever transport ran — the plane property
tests pin this across backends and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.plane.shm import SegmentHandle, attach_array, create_array_segment
from repro.shuffle.accounting import record_nbytes

__all__ = [
    "SharedStateEntry",
    "SplitStateSpec",
    "SplitStateUpdate",
    "RESIDENT",
    "collect_state_update",
    "SplitStateManager",
]


@dataclass(frozen=True)
class SharedStateEntry:
    """Descriptor of one state ndarray resident in shared memory."""

    name: str
    shape: tuple
    dtype: str

    def attach(self) -> np.ndarray:
        return attach_array(self.name, self.shape, self.dtype)

    def matches(self, value: Any) -> bool:
        """Can ``value`` be written back into this entry's segment?"""
        return (
            isinstance(value, np.ndarray)
            and tuple(value.shape) == tuple(self.shape)
            and value.dtype.str == self.dtype
        )


@dataclass(frozen=True)
class SplitStateSpec:
    """What one map task receives in place of the raw state dict.

    ``entries`` maps state keys to either a :class:`SharedStateEntry`
    (attach; zero IPC) or the raw value (inline fallback for non-array
    state, or an array no segment could be made for — ships by value).
    """

    split_id: int
    entries: dict[str, Any] = field(default_factory=dict)

    def materialize(self) -> dict[str, Any]:
        """Build the live state dict inside the executing process."""
        state: dict[str, Any] = {}
        for key, entry in self.entries.items():
            if isinstance(entry, SharedStateEntry):
                state[key] = entry.attach()
            else:
                state[key] = entry
        return state


class _Resident:
    """Marker: this entry's bytes are already in its shared segment."""

    _instance = None

    def __new__(cls) -> "_Resident":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):  # one singleton per process, tiny pickle
        return (_Resident, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RESIDENT"


#: The worker→driver token standing in for "no bytes needed".
RESIDENT = _Resident()


@dataclass
class SplitStateUpdate:
    """What one map task hands back in place of the raw state dict.

    ``entries`` maps every key of the post-task state to either
    :data:`RESIDENT` (bytes already in the shared segment) or the value
    itself (new key / changed layout / non-array — the driver will
    re-publish it).  Keys absent from ``entries`` were deleted.
    """

    split_id: int
    entries: dict[str, Any] = field(default_factory=dict)


def collect_state_update(spec: SplitStateSpec, state: dict[str, Any]) -> SplitStateUpdate:
    """Fold a task's post-run state into markers + the few shipped values.

    Runs inside the executing process, after the mapper.  Entries whose
    layout still matches their shared segment are written back in place
    (a no-op when the mapper already mutated the attached array) and
    reported as :data:`RESIDENT`; everything else ships by value.
    """
    update = SplitStateUpdate(split_id=spec.split_id)
    for key, value in state.items():
        entry = spec.entries.get(key)
        if isinstance(entry, SharedStateEntry) and entry.matches(value):
            target = entry.attach()
            if not _same_view(value, target):
                target[...] = value  # in-place refresh, still zero IPC
            update.entries[key] = RESIDENT
        else:
            update.entries[key] = value
    return update


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Do ``a`` and ``b`` describe the exact same memory layout?

    The owner-side :func:`~repro.plane.shm.attach_array` builds a fresh
    view object per call, so ``is`` alone would trigger a full
    self-memcpy for every task the scheduler runs inline on the driver;
    comparing (data pointer, strides, shape) recognizes those aliases
    exactly — and, unlike ``np.shares_memory``, can never mistake a
    reshuffled view over the same buffer for identical content.
    """
    return (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        and a.strides == b.strides
        and a.shape == b.shape
    )


def _publish(value: Any, split_id: int) -> SegmentHandle | None:
    """Host ``value`` in a fresh segment, or ``None`` to ship it inline.

    Only non-empty ndarrays without object dtypes are eligible.  When
    the system has no room (a full ``/dev/shm`` fails the reservation
    with ``ENOSPC``) or no shared memory at all, the entry rides inline,
    as non-array state does; the result is the same bits either way.
    """
    if not (
        isinstance(value, np.ndarray)
        and value.size > 0
        and not value.dtype.hasobject
    ):
        return None
    try:
        return create_array_segment(value, tag=f"st{split_id}")
    except OSError:
        return None


class SplitStateManager:
    """Driver-side owner of every split's state dict and its segments.

    ``states`` is the authoritative list of per-split dicts (what
    :attr:`LocalMapReduceRuntime.split_states` exposes); shared entries
    are segment-backed views, so in-place worker writes are immediately
    visible here without any transfer.

    Telemetry: :attr:`shipped_bytes` counts state bytes that actually
    crossed by value (spec inline entries + update shipped values +
    publishes) and accumulates until :meth:`drain_shipped`;
    :attr:`held_bytes` is what the segments hold right now.
    """

    def __init__(self, n_splits: int):
        self.states: list[dict[str, Any]] = [{} for _ in range(n_splits)]
        self._segments: list[dict[str, SegmentHandle]] = [{} for _ in range(n_splits)]
        self.shipped_bytes = 0

    # -- outbound -------------------------------------------------------
    def spec(self, split_id: int) -> SplitStateSpec:
        """Build (and account) the spec shipped to one map task.

        Eligible ndarray entries not yet segment-backed are *promoted*
        here — published once, then descriptor-only forever — which also
        adopts state that predates the shared transport (a runtime whose
        process-wide backend changed between jobs).
        """
        state = self.states[split_id]
        segments = self._segments[split_id]
        spec = SplitStateSpec(split_id=split_id)
        for key, value in state.items():
            handle = segments.get(key)
            if handle is not None and not _matches_handle(handle, value):
                # Layout changed driver-side (tests poke split_states
                # directly): the old segment no longer describes it.
                handle.release()
                segments.pop(key, None)
                handle = None
            if handle is not None and not _same_view(value, handle.array):
                # Same layout but a *different* array: the caller
                # replaced the entry behind our back.  Sync the segment,
                # or workers would compute on stale bytes.
                handle.array[...] = value
                state[key] = handle.array
            if handle is None:
                handle = _publish(value, split_id)
                if handle is not None:
                    segments[key] = handle
                    state[key] = handle.array  # the view IS the state now
                    self.shipped_bytes += handle.nbytes  # the one-time publish
            if handle is not None:
                spec.entries[key] = SharedStateEntry(
                    name=handle.name,
                    shape=tuple(handle.array.shape),
                    dtype=handle.array.dtype.str,
                )
            else:
                spec.entries[key] = value  # inline fallback
                self.shipped_bytes += record_nbytes(key, value)
        return spec

    # -- inbound --------------------------------------------------------
    def apply(self, update: SplitStateUpdate) -> None:
        """Install one task's state update; (re)publish shipped entries."""
        split_id = update.split_id
        state = self.states[split_id]
        segments = self._segments[split_id]
        for key in list(state):
            if key not in update.entries:  # deleted by the task
                state.pop(key)
                handle = segments.pop(key, None)
                if handle is not None:
                    handle.release()
        for key, value in update.entries.items():
            if value is RESIDENT or isinstance(value, _Resident):
                continue  # bytes are already in the segment-backed view
            self.shipped_bytes += record_nbytes(key, value)
            old = segments.pop(key, None)
            if old is not None:
                old.release()
            handle = _publish(value, split_id)
            if handle is not None:
                segments[key] = handle
                state[key] = handle.array
            else:
                state[key] = value

    def install(self, split_id: int, state: dict[str, Any]) -> None:
        """Replace one split's dict wholesale (in-process tasks, recovery).

        Any segments for that split are stale afterwards and released;
        :meth:`spec` re-promotes on the next job that crosses processes.
        """
        for handle in self._segments[split_id].values():
            handle.release()
        self._segments[split_id] = {}
        self.states[split_id] = state

    # -- telemetry / lifecycle ------------------------------------------
    def drain_shipped(self) -> int:
        """Return and reset :attr:`shipped_bytes`."""
        out, self.shipped_bytes = self.shipped_bytes, 0
        return out

    @property
    def held_bytes(self) -> int:
        """Split-state bytes held in segments now (memory, not traffic)."""
        return sum(h.nbytes for segments in self._segments for h in segments.values())

    @property
    def segment_count(self) -> int:
        return sum(len(s) for s in self._segments)

    def release(self) -> None:
        """Free every state segment (idempotent).  States keep plain copies.

        Called from runtime shutdown/GC: shared views would dangle once
        their segments unlink on some platforms, so each segment-backed
        entry is first detached into an ordinary in-memory copy —
        ``split_states`` stays readable after shutdown, as before.
        """
        for split_id, segments in enumerate(self._segments):
            state = self.states[split_id]
            for key, handle in segments.items():
                current = state.get(key)
                if isinstance(current, np.ndarray) and np.shares_memory(
                    current, handle.array
                ):
                    state[key] = np.array(current, copy=True)
                handle.release()
            self._segments[split_id] = {}


def _matches_handle(handle: SegmentHandle, value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        and tuple(value.shape) == tuple(handle.array.shape)
        and value.dtype == handle.array.dtype
    )
