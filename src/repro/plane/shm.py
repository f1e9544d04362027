"""Shared-memory segment management for the zero-copy data plane.

The data plane moves ndarrays between the driver and worker processes
through POSIX shared memory (:mod:`multiprocessing.shared_memory`): the
driver *publishes* an array once — one ``memcpy`` into a segment — and
every task ships only a ``(name, shape, dtype)`` descriptor that workers
attach read-through.  This module owns the two halves of that protocol:

* the **owner registry** — every segment created here is recorded
  against the *creating pid* and freed (``unlink``) on explicit release,
  on interpreter exit, and on garbage collection via
  ``weakref.finalize``.  The pid key makes the registry fork-safe: a
  forked child inherits the finalizers but the unlink callback refuses
  to run outside the creating process, so a child's exit can never tear
  down its parent's live segments (mirror of the spill-file registry in
  :mod:`repro.shuffle.store`).
* the **attach cache** — workers attach segments by name once per
  process and reuse the mapping across tasks (attaching is a
  ``shm_open`` + ``mmap``; cheap, but not free, and a fresh ndarray
  view per task would defeat the point).  The cache is pid-keyed and
  bounded: once it outgrows :data:`ATTACH_CACHE_SIZE` the
  least-recently-used attachment is closed, so a long-lived worker does
  not accumulate a mapping per historical broadcast.

CPython quirk handled here: before 3.13 (``track=False``) every
``SharedMemory`` handle — including pure *attachments* — registers the
segment with the process's resource tracker, which then unlinks it at
process exit and spews "leaked shared_memory" warnings.  Attachments
therefore unregister themselves immediately; only the creating process
tracks (and frees) the segment.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SegmentHandle",
    "create_array_segment",
    "attach_array",
    "active_owned_segments",
    "release_segment",
    "release_all_segments",
    "SEGMENT_PREFIX",
    "ATTACH_CACHE_SIZE",
]

#: Name prefix of every segment the plane creates (lets the lifecycle
#: tests — and an operator staring at ``/dev/shm`` — tell our segments
#: from anything else on the machine).
SEGMENT_PREFIX = "repro_plane_"

#: Attachments kept open per process before LRU eviction kicks in.
#: Sized for a working set of one broadcast plus a few state arrays per
#: split at the default split counts; eviction only costs a re-attach.
ATTACH_CACHE_SIZE = 64

_lock = threading.Lock()

#: name -> (creating pid, SharedMemory, finalizer) for segments THIS
#: process created and therefore owns.
_owned: dict[str, tuple[int, shared_memory.SharedMemory, weakref.finalize]] = {}

#: (pid-keyed) name -> (SharedMemory, ndarray) attachment LRU.
_attach_cache: "OrderedDict[str, tuple[shared_memory.SharedMemory, np.ndarray]]" = (
    OrderedDict()
)
_attach_pid = 0


#: Whether this process runs its *own* resource tracker (decided at the
#: first attach).  A fork-started worker inherits the driver's tracker —
#: its attach-time registration lands in the same name set the driver's
#: create already populated, so everything balances and unregistering
#: would strip the driver's entry.  A spawn/forkserver worker gets a
#: private tracker that would unlink the segment when the worker exits,
#: out from under the driver — there the attachment must unregister.
_private_tracker: bool | None = None


def _note_tracker_before_attach() -> None:
    global _private_tracker
    if _private_tracker is not None:
        return
    try:  # pragma: no cover - CPython-internal attribute
        from multiprocessing import resource_tracker

        fd = getattr(resource_tracker._resource_tracker, "_fd", None)
        _private_tracker = fd is None  # nothing inherited: ours alone
    except Exception:
        _private_tracker = False


def _unregister_tracker(name: str) -> None:
    """Keep a private resource tracker from freeing ``name`` behind the owner."""
    if not _private_tracker:
        return
    try:  # pragma: no cover - defensive; API is CPython-internal-ish
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _unlink_if_owner(name: str, pid: int) -> None:
    """Finalizer body: unlink ``name``, but only in the creating process."""
    if os.getpid() != pid:
        return  # forked child inherited the finalizer; not its segment
    with _lock:
        entry = _owned.pop(name, None)
    if entry is None:
        return
    _, shm, _ = entry
    try:
        shm.close()
    except Exception:  # pragma: no cover - already closed
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - freed elsewhere
        pass


class SegmentHandle:
    """Owner-side handle to one published array segment.

    Keeps the creating process's zero-copy view (``array``) plus the
    descriptor fields tasks ship (``name`` / ``shape`` / ``dtype``).
    ``release()`` frees the segment; garbage collection and interpreter
    exit do too (via the registry's finalizers), so an interrupted job
    cannot leak ``/dev/shm`` entries.
    """

    def __init__(self, name: str, array: np.ndarray):
        self.name = name
        self.array = array  # the owner's view into the segment

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def release(self) -> None:
        """Free the underlying segment (idempotent)."""
        release_segment(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentHandle({self.name!r}, shape={self.array.shape})"


def _reserve_pages(shm: shared_memory.SharedMemory, nbytes: int) -> None:
    """Allocate a new segment's pages now, so a full tmpfs fails here.

    ``ftruncate`` only sizes the segment; its pages are allocated on
    first write, and on a full ``/dev/shm`` that write is a ``SIGBUS``
    that kills the process.  ``posix_fallocate`` raises ``OSError``
    (``ENOSPC``) instead.  Where it does not exist (not POSIX), the
    segment keeps the lazy allocation.
    """
    if hasattr(os, "posix_fallocate"):
        os.posix_fallocate(shm._fd, 0, nbytes)


def create_array_segment(source: np.ndarray, tag: str = "seg") -> SegmentHandle:
    """Publish ``source`` into a fresh shared-memory segment.

    One copy, owner-side; returns a handle whose ``array`` is the
    segment-backed view (C-contiguous, ``source``'s dtype and shape).
    Raises ``OSError``, leaving no segment behind, when the system has
    no room for it.
    """
    source = np.ascontiguousarray(source)
    nbytes = max(1, int(source.nbytes))  # zero-size segments are illegal
    name = f"{SEGMENT_PREFIX}{tag}_{os.getpid()}_{secrets.token_hex(6)}"
    shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
    try:
        _reserve_pages(shm, nbytes)
    except OSError:
        shm.close()
        shm.unlink()
        raise
    array = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
    array[...] = source
    pid = os.getpid()
    handle = SegmentHandle(name, array)
    # The finalizer tracks the *handle*, not the SharedMemory object (the
    # registry keeps that alive on purpose): dropping the last handle —
    # e.g. abandoning a runtime without shutdown() — garbage-collects the
    # segment.  The registry entry stores the finalizer so an explicit
    # release runs the very same (idempotent) teardown.
    finalizer = weakref.finalize(handle, _unlink_if_owner, name, pid)
    with _lock:
        _owned[name] = (pid, shm, finalizer)
    return handle


def attach_array(name: str, shape: tuple, dtype: str | np.dtype) -> np.ndarray:
    """Attach segment ``name`` and view it as ``(shape, dtype)``.

    In the creating process this returns a view over the owner's own
    mapping (no second ``mmap``); elsewhere the attachment is cached
    per process (LRU, bounded) so repeated tasks reuse one mapping.
    The returned array aliases shared memory: writes are visible to
    every process attached to the segment.
    """
    global _attach_pid
    dtype = np.dtype(dtype)
    shape = tuple(int(s) for s in shape)
    with _lock:
        entry = _owned.get(name)
        if entry is not None and entry[0] == os.getpid():
            return np.ndarray(shape, dtype=dtype, buffer=entry[1].buf)
        pid = os.getpid()
        if _attach_pid != pid:
            # Forked child: the parent's attachments are stale handles in
            # this process; drop the references without closing (closing
            # would be done on memory the parent may still use — the
            # mappings themselves die with this process).
            _attach_cache.clear()
            _attach_pid = pid
        cached = _attach_cache.get(name)
        if cached is not None:
            _attach_cache.move_to_end(name)
            shm, base = cached
            if base.dtype == dtype and base.shape == shape:
                return base
            return np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    # Attach outside the lock (filesystem work), then publish to the cache.
    _note_tracker_before_attach()
    shm = shared_memory.SharedMemory(name=name)
    _unregister_tracker(name)  # the owner frees it, not this process
    array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    with _lock:
        _attach_cache[name] = (shm, array)
        _attach_cache.move_to_end(name)
        while len(_attach_cache) > ATTACH_CACHE_SIZE:
            _, (old_shm, _old) = _attach_cache.popitem(last=False)
            try:
                old_shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
    return array


def release_segment(name: str) -> None:
    """Free one owned segment now (idempotent; no-op for foreign names)."""
    with _lock:
        entry = _owned.get(name)
    if entry is None:
        return
    _pid, _shm, finalizer = entry
    finalizer()  # runs _unlink_if_owner exactly once


def release_all_segments() -> None:
    """Free every segment this process still owns (shutdown / tests)."""
    with _lock:
        names = [
            name for name, (pid, _, _) in _owned.items() if pid == os.getpid()
        ]
    for name in names:
        release_segment(name)


def active_owned_segments() -> list[str]:
    """Names of segments this process currently owns (tests/telemetry)."""
    pid = os.getpid()
    with _lock:
        return sorted(name for name, (p, _, _) in _owned.items() if p == pid)


def _reset_lock_in_child() -> None:
    # A fork can happen while another thread holds ``_lock``; the child is
    # single-threaded here, so handing it a fresh lock is safe and
    # necessary (same reasoning as repro.exec.backends).
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_lock_in_child)

# Interpreter-exit safety net: finalizers already run at exit, but an
# explicit sweep keeps the teardown order deterministic under pytest.
atexit.register(release_all_segments)
