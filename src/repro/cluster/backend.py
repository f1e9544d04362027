"""The ``cluster`` execution backend: regions dispatched over sockets.

:class:`ClusterBackend` keeps the thread backend's work-sharing
scheduler — the budget-governed lanes — but each lane's ``submit`` ships
the task attempt to a remote worker daemon through the
:class:`~repro.cluster.worker_pool.WorkerPool` and blocks on its framed
``RESULT``.  That composition buys, for free, everything the local
backends already guarantee: index-collected results, lowest-index error
semantics, the shared :class:`_FaultContext` retry loop (crash-class
:class:`WorkerLostError` retries, user errors fail fast, lineage
``retry_args`` hooks), and deterministic chaos schedules.

Task→worker assignment is deterministic: task ``i``'s home is ``i``
taken modulo the live worker set in index order.  Routing happens per
*attempt*, so retries after a worker loss land on survivors; when the
whole fleet is gone the attempt runs inline on the driver —
bit-identical because daemons initialize as serial leaves with the
driver's engine chunking, and the engine is worker-count invariant.

Regions whose ``(fn, args)`` cannot pickle degrade to the inherited
thread scheduler, mirroring the process backend — and so do regions
referencing modules a daemon cannot import.  The process backend forks,
so children inherit every module the driver ever loaded; a daemon is a
fresh ``python -m repro`` that only sees ``PYTHONPATH``, the stdlib,
site-packages, and ``repro`` itself.  A closure from ``__main__`` or a
path-injected module (pytest test files are the canonical case) would
pickle fine and then explode at ``pickle.loads`` on the worker, so the
preflight scans the pickle for referenced modules and keeps such
regions on the driver's threads (bit-identical, just not remote).
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import threading
from typing import Any, Callable, ClassVar

from repro.cluster.bcast import RemoteBroadcastTransport
from repro.cluster.worker_pool import WorkerPool
from repro.exec.backends import (
    BACKENDS,
    ThreadBackend,
    _FaultContext,
)
from repro.exec.budget import WorkerBudget

__all__ = ["ClusterBackend"]


class _ModuleScanPickler(pickle.Pickler):
    """A pickler that records the module of every class/function it
    serializes by reference — exactly the names a worker daemon must be
    able to import to unpickle the payload."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.modules: set[str] = set()

    def reducer_override(self, obj):
        if isinstance(obj, type) or callable(obj):
            module = getattr(obj, "__module__", None)
            if isinstance(module, str):
                self.modules.add(module)
        return NotImplemented  # always fall back to the normal machinery


_worker_roots_cache: tuple[str, ...] | None = None
_module_portability_cache: dict[str, bool] = {}


def _worker_roots() -> tuple[str, ...]:
    """Path prefixes a fresh daemon resolves imports from: ``PYTHONPATH``
    entries (inherited through the spawn env) plus this interpreter's
    stdlib/site-packages trees.  Runtime ``sys.path`` mutations on the
    driver (pytest's test-dir injection) deliberately don't count."""
    global _worker_roots_cache
    if _worker_roots_cache is None:
        roots = []
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
            if entry.strip():
                roots.append(os.path.abspath(entry) + os.sep)
        for prefix in {sys.prefix, sys.base_prefix, sys.exec_prefix}:
            roots.append(os.path.abspath(prefix) + os.sep)
        _worker_roots_cache = tuple(roots)
    return _worker_roots_cache


def _module_remote_portable(name: str) -> bool:
    """Can ``python -m repro worker`` import ``name``?"""
    top = name.partition(".")[0]
    if top in ("builtins", "repro") or top in sys.stdlib_module_names:
        return True  # daemons run *as* repro; stdlib is always there
    if top in ("__main__", "__mp_main__"):
        return False  # the driver's entry script has no remote identity
    cached = _module_portability_cache.get(top)
    if cached is None:
        module = sys.modules.get(top)
        path = getattr(module, "__file__", None) if module is not None else None
        if path is None:
            # Not imported here, or a namespace/extension module with no
            # file: the worker resolves it through the same search path.
            cached = True
        else:
            cached = os.path.abspath(path).startswith(_worker_roots())
        _module_portability_cache[top] = cached
    return cached


class ClusterBackend(ThreadBackend):
    """Dispatch ``run_calls`` regions to socket-connected worker daemons."""

    name: ClassVar[str] = "cluster"
    crosses_processes: ClassVar[bool] = True
    remote: ClassVar[bool] = True

    def __init__(
        self,
        budget: WorkerBudget | None = None,
        *,
        workers: int | None = None,
        heartbeat_s: float | None = None,
        heartbeat_timeout_s: float | None = None,
    ):
        super().__init__(budget)
        # Resolved by the WorkerPool each fleet is built with.
        self._cluster_workers = workers
        self._heartbeat_s = heartbeat_s
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._fleet: WorkerPool | None = None
        self._fleet_lock = threading.Lock()

    def _reset_locks_in_child(self) -> None:
        super()._reset_locks_in_child()
        self._fleet_lock = threading.Lock()
        self._fleet = None  # parent's sockets/daemons are not this child's

    # -- fleet ---------------------------------------------------------

    def _get_fleet(self) -> WorkerPool:
        """The live pool, built (and its daemons launched) on first use."""
        with self._fleet_lock:
            if (
                self._fleet is None
                or self._fleet.closed
                or self._fleet.pid != os.getpid()
            ):
                self._fleet = WorkerPool(
                    launch=self._cluster_workers,
                    heartbeat_s=self._heartbeat_s,
                    heartbeat_timeout_s=self._heartbeat_timeout_s,
                )
            fleet = self._fleet
        # Prime outside the lock: respawning daemons waits on handshakes.
        fleet.ensure_fleet()
        return fleet

    @property
    def pool_stats(self) -> dict[str, int]:
        """Wire counters of the current fleet (zeros before first use)."""
        with self._fleet_lock:
            fleet = self._fleet
        return dict(fleet.stats) if fleet is not None else {}

    def broadcast_transport(self) -> RemoteBroadcastTransport:
        return RemoteBroadcastTransport(self)

    def shutdown(self) -> None:
        with self._fleet_lock:
            fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.shutdown()
        super().shutdown()

    # -- dispatch ------------------------------------------------------

    @staticmethod
    def _remote_portable(fn: Callable, first_call: tuple) -> bool:
        """Can this region cross the *machine* boundary?  Pickling is
        necessary but not sufficient: every module the payload names
        must also be importable by a fresh worker daemon."""
        scanner = _ModuleScanPickler(io.BytesIO())
        try:
            scanner.dump((fn, first_call))
        except Exception:  # noqa: BLE001 - any serialization failure
            return False
        return all(_module_remote_portable(m) for m in scanner.modules)

    def _exec_remote(
        self, fleet: WorkerPool, ctx: _FaultContext, index: int, args: tuple,
    ) -> Any:
        def submit(task_fn, task_args):
            worker = fleet.route(index)
            if worker is None:
                # Whole fleet lost mid-region: degrade this attempt to
                # inline driver execution — bit-identical, just not
                # remote.
                return task_fn(*task_args)
            return fleet.execute(worker, task_fn, task_args, ctx)

        return ctx.run(index, args, submit)

    def run_calls(
        self,
        fn,
        calls,
        *,
        parallelism=None,
        retry=None,
        faults=None,
        retry_args=None,
    ):
        calls = [tuple(args) for args in calls]
        n = len(calls)
        if n == 0:
            return []
        if not self._remote_portable(fn, calls[0]):
            return super().run_calls(
                fn,
                calls,
                parallelism=parallelism,
                retry=retry,
                faults=faults,
                retry_args=retry_args,
            )
        fleet = self._get_fleet()
        ctx = _FaultContext(fn, retry=retry, faults=faults, retry_args=retry_args)

        def exec_unit(unit: tuple):
            i, args = unit
            return self._exec_remote(fleet, ctx, i, args)

        # Lanes spend their time blocked on sockets, so the same
        # work-sharing scheduler pipelines tasks across workers.
        return self._schedule(
            list(enumerate(calls)), exec_unit, exec_unit, parallelism
        )


BACKENDS.setdefault(ClusterBackend.name, ClusterBackend)
