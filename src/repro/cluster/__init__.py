"""Multi-node cluster backend: socket-dispatched workers.

The pieces, bottom-up:

* :mod:`repro.cluster.protocol` — length-prefixed framed wire protocol
  (HELLO/WELCOME registration, TASK/RESULT, PING heartbeats).
* :mod:`repro.cluster.worker` — the ``python -m repro worker --connect
  HOST:PORT`` daemon: a serial leaf with the driver's engine chunking.
* :mod:`repro.cluster.worker_pool` — driver-side registration, task
  dispatch, heartbeat failure detection, send-once broadcast shipping.
* :mod:`repro.cluster.bcast` — ``RemoteBroadcast`` handles and the
  per-process broadcast cache (the ``sc.broadcast`` model).
* :mod:`repro.cluster.backend` — :class:`ClusterBackend`, registered
  as ``"cluster"`` in the exec registry (resolved lazily by
  ``resolve_backend``).

Everything above the backend — MapReduce runtime, retry/lineage
machinery — is unchanged: the cluster is just another
``ExecBackend`` whose ``run_calls`` happens to cross machines, and the
standing invariant holds: results are bit-identical across
``serial × thread × process × cluster``.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.bcast import RemoteBroadcast, RemoteBroadcastTransport
from repro.cluster.protocol import (
    ConnectionClosed,
    ProtocolError,
    RemoteTaskError,
)
from repro.cluster.worker import run_worker
from repro.cluster.worker_pool import RemoteWorker, WorkerPool

__all__ = [
    "ClusterBackend",
    "ConnectionClosed",
    "ProtocolError",
    "RemoteBroadcast",
    "RemoteBroadcastTransport",
    "RemoteTaskError",
    "RemoteWorker",
    "WorkerPool",
    "run_worker",
]
