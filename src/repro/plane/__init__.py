"""The zero-copy data plane: how values reach worker processes.

The MapReduce runtime (:mod:`repro.mapreduce.runtime`) uses it exactly
when its execution backend (:mod:`repro.exec`) runs tasks in other
processes; serial and thread backends pass values by reference.  If
shared memory has no room, each array falls back to shipping by value.
Three pieces:

* **Broadcast handles** (:mod:`repro.plane.broadcast`) — a job's
  broadcast is published once to a shared-memory segment and tasks
  ship only a ``(name, shape, dtype)`` descriptor;
* **resident split state** (:mod:`repro.plane.state`) — per-split
  caches live in driver-owned shared segments and round-trip as
  markers instead of pickled arrays;
* **segment lifecycle** (:mod:`repro.plane.shm`) — PID-keyed ownership
  with finalizers, freed on job completion, shutdown, interrupt, GC,
  and interpreter exit; fork-safe.
"""

from repro.plane.broadcast import (
    BroadcastRef,
    InlineBroadcast,
    PublishedBroadcast,
    SharedArrayBroadcast,
    publish_broadcast,
    resolve_broadcast,
)
from repro.plane.shm import (
    ATTACH_CACHE_SIZE,
    SEGMENT_PREFIX,
    SegmentHandle,
    active_owned_segments,
    attach_array,
    create_array_segment,
    release_all_segments,
    release_segment,
)
from repro.plane.state import (
    RESIDENT,
    SharedStateEntry,
    SplitStateManager,
    SplitStateSpec,
    SplitStateUpdate,
    collect_state_update,
)

__all__ = [
    "BroadcastRef",
    "InlineBroadcast",
    "SharedArrayBroadcast",
    "PublishedBroadcast",
    "publish_broadcast",
    "resolve_broadcast",
    "SharedStateEntry",
    "SplitStateSpec",
    "SplitStateUpdate",
    "SplitStateManager",
    "RESIDENT",
    "collect_state_update",
    "SegmentHandle",
    "create_array_segment",
    "attach_array",
    "active_owned_segments",
    "release_segment",
    "release_all_segments",
    "SEGMENT_PREFIX",
    "ATTACH_CACHE_SIZE",
]
