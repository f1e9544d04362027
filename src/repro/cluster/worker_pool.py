"""Driver-side worker pool: registration, heartbeats, task dispatch.

The pool owns one TCP listener.  Worker daemons (self-launched localhost
processes by default, or externally started ``python -m repro worker``
daemons on other machines) connect, send ``HELLO``, and receive a
``WELCOME`` carrying their index, the driver engine's ``chunk_bytes``,
and the heartbeat interval.  Per worker the pool runs one receiver
thread that demultiplexes ``RESULT`` frames (resolving event-based
pending futures) and ``PING`` frames (refreshing ``last_ping`` — the
skywriting model — and forwarding liveness into the in-flight tasks'
:class:`~repro.exec.faults.FaultStats` via ``slot_last_ping``).

Failure detection is asynchronous and two-pronged: a hard connection
loss (EOF, reset, torn frame) fails the worker immediately; a monitor
thread additionally declares any worker lost whose ``last_ping`` is
staler than the heartbeat timeout (wedged-but-connected daemons).
Either way every pending task on the worker fails with the crash-class
:class:`~repro.exec.faults.WorkerLostError`, which the existing retry
machinery re-runs — routed to survivors because routing happens per
attempt over the live set.

Broadcasts are send-once: :meth:`register_broadcast` records the pickled
payload; each worker's first subsequent ``TASK`` frame carries it, and
every later frame to that worker is a cache hit (id only).  Released
broadcast ids piggyback as ``free`` markers on the next task frame per
worker.  Wire accounting (``stats``) backs ``BENCH_cluster.json``.
"""

from __future__ import annotations

import atexit
import itertools
import os
import socket
import subprocess
import sys
import threading
import time
import weakref
from typing import Any, Optional

from repro.cluster.protocol import (
    HELLO,
    PING,
    RESULT,
    SHUTDOWN,
    TASK,
    WELCOME,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.config import get_config
from repro.exceptions import ValidationError
from repro.exec.faults import TaskTimeoutError, WorkerLostError

__all__ = ["WorkerPool", "RemoteWorker"]

#: Interval of the daemons' ``PING`` frames: cheap (one small frame)
#: and fine-grained enough that ``FaultStats`` sees liveness during
#: long map tasks.
HEARTBEAT_S = 0.5
#: A worker whose ``last_ping`` is older than this is declared lost.
#: Hard connection drops (EOF, reset) are detected at once; this only
#: catches wedged-but-connected workers, so it is deliberately
#: conservative.
HEARTBEAT_TIMEOUT_S = 15.0
#: Deadline for self-launched daemons' registration handshakes.
SPAWN_TIMEOUT_S = 30.0


def _seconds(name: str, value: float | None, default: float) -> float:
    if value is None:
        return default
    value = float(value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _shutdown_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.shutdown()
        except Exception:  # noqa: BLE001 — best-effort at interpreter exit
            pass


class _Pending:
    """One in-flight task: an event the submitting lane waits on."""

    __slots__ = ("event", "ok", "value", "error", "ctx")

    def __init__(self, ctx: Any):
        self.event = threading.Event()
        self.ok = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.ctx = ctx

    def resolve(self, ok: bool, value: Any) -> None:
        self.ok = ok
        self.value = value
        self.event.set()

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.event.set()


class RemoteWorker:
    """Driver-side record of one registered worker daemon."""

    def __init__(
        self, index: int, sock: socket.socket, address: tuple, pid: int
    ):
        self.index = index
        self.sock = sock
        self.address = address
        self.pid = pid
        self.alive = True
        self.last_ping = time.monotonic()
        self.send_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.pending_lock = threading.Lock()
        self.cached_broadcasts: set[str] = set()
        self.pending_frees: list[str] = []
        self.tasks_done = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "lost"
        return f"RemoteWorker(index={self.index}, pid={self.pid}, {state})"


class WorkerPool:
    """Accepts worker registrations and dispatches framed tasks to them.

    ``launch`` > 0 makes the pool manage its own localhost fleet:
    daemons are spawned with ``python -m repro worker`` and respawned at
    :meth:`ensure_fleet` (region boundaries) after crashes — the same
    pool-priming discipline the process backend uses, so no mid-region
    forks.  ``launch=0`` waits for externally managed workers instead.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        launch: int | None = None,
        heartbeat_s: float | None = None,
        heartbeat_timeout_s: float | None = None,
        spawn_timeout_s: float | None = None,
        chunk_bytes: int | None = None,
        data_root: str | None = None,
    ):
        config = get_config()
        self.pid = os.getpid()
        self.host = host
        self.launch = config.cluster_workers if launch is None else int(launch)
        if self.launch < 0:
            raise ValidationError(f"cluster workers must be >= 0, got {self.launch}")
        self.heartbeat_s = _seconds("heartbeat_s", heartbeat_s, HEARTBEAT_S)
        self.heartbeat_timeout_s = _seconds(
            "heartbeat_timeout_s", heartbeat_timeout_s, HEARTBEAT_TIMEOUT_S
        )
        self.spawn_timeout_s = _seconds(
            "spawn_timeout_s", spawn_timeout_s, SPAWN_TIMEOUT_S
        )
        if chunk_bytes is None:
            from repro.linalg.engine import get_engine

            chunk_bytes = get_engine().chunk_bytes
        self.chunk_bytes = int(chunk_bytes)
        self.data_root = config.data_root if data_root is None else data_root

        self._lock = threading.RLock()
        self._workers: dict[int, RemoteWorker] = {}
        self._procs: list[subprocess.Popen] = []
        self._broadcasts: dict[str, bytes] = {}
        self._next_index = itertools.count()
        self._next_task = itertools.count()
        self._closed = False

        self.stats: dict[str, int] = {
            "bytes_sent": 0,
            "broadcast_bytes_sent": 0,
            "broadcast_sends": 0,
            "broadcast_hits": 0,
            "tasks_dispatched": 0,
            "workers_registered": 0,
            "workers_lost": 0,
            "heartbeat_timeouts": 0,
        }

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor_thread.start()
        _LIVE_POOLS.add(self)

    # -- registration -------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown()
            threading.Thread(
                target=self._register, args=(conn, addr),
                name="cluster-handshake", daemon=True,
            ).start()

    def _register(self, conn: socket.socket, addr: tuple) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(10.0)
            hello = recv_frame(conn)
            if hello.get("type") != HELLO:
                raise ProtocolError(
                    f"expected HELLO, got {hello.get('type')!r}"
                )
            index = next(self._next_index)
            send_frame(conn, {
                "type": WELCOME,
                "index": index,
                "chunk_bytes": self.chunk_bytes,
                "heartbeat_s": self.heartbeat_s,
                "data_root": self.data_root,
            })
            conn.settimeout(None)
        except (ProtocolError, OSError):
            try:
                conn.close()
            except OSError:
                pass
            return
        worker = RemoteWorker(index, conn, addr, int(hello.get("pid", -1)))
        with self._lock:
            if self._closed:
                try:
                    conn.close()
                except OSError:
                    pass
                return
            self._workers[index] = worker
            self.stats["workers_registered"] += 1
        threading.Thread(
            target=self._recv_loop, args=(worker,),
            name=f"cluster-recv-{index}", daemon=True,
        ).start()

    # -- receive / failure detection ---------------------------------

    def _recv_loop(self, worker: RemoteWorker) -> None:
        try:
            while worker.alive:
                message = recv_frame(worker.sock)
                kind = message.get("type")
                worker.last_ping = time.monotonic()
                if kind == RESULT:
                    with worker.pending_lock:
                        pending = worker.pending.pop(message["id"], None)
                        worker.tasks_done += 1
                    if pending is not None:
                        pending.resolve(
                            bool(message.get("ok")), message.get("value")
                        )
                elif kind == PING:
                    with worker.pending_lock:
                        contexts = {
                            id(p.ctx): p.ctx for p in worker.pending.values()
                        }
                    for ctx in contexts.values():
                        ctx.ping(worker.index)
        except (ProtocolError, OSError):
            if worker.alive:
                self._fail_worker(worker, WorkerLostError(
                    f"cluster worker {worker.index} (pid {worker.pid}) "
                    "connection lost"
                ))

    def _monitor_loop(self) -> None:
        interval = max(0.05, self.heartbeat_s / 2.0)
        while not self._closed:
            time.sleep(interval)
            now = time.monotonic()
            with self._lock:
                stale = [
                    w for w in self._workers.values()
                    if w.alive and now - w.last_ping > self.heartbeat_timeout_s
                ]
            for worker in stale:
                self.stats["heartbeat_timeouts"] += 1
                self._fail_worker(worker, WorkerLostError(
                    f"cluster worker {worker.index} (pid {worker.pid}) "
                    f"heartbeat stale for more than "
                    f"{self.heartbeat_timeout_s}s",
                    heartbeat=True,
                ))

    def _fail_worker(self, worker: RemoteWorker, exc: WorkerLostError) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.index, None)
            self.stats["workers_lost"] += 1
        try:
            worker.sock.close()
        except OSError:
            pass
        with worker.pending_lock:
            pending = list(worker.pending.values())
            worker.pending.clear()
        for p in pending:
            p.fail(exc)

    # -- fleet management --------------------------------------------

    def live_workers(self) -> list[RemoteWorker]:
        with self._lock:
            return [
                self._workers[i]
                for i in sorted(self._workers)
                if self._workers[i].alive
            ]

    def _spawn_daemon(self) -> subprocess.Popen:
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", self.address,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=None,
            start_new_session=False,
        )

    def ensure_fleet(self) -> None:
        """Reap dead self-launched daemons and respawn to target size.

        Called at region boundaries (like the process backend's pool
        priming) so workers never appear or vanish mid-region except by
        failure.  No-op for externally managed fleets (``launch=0``)
        beyond waiting for at least one registration.
        """
        if self._closed or os.getpid() != self.pid:
            return
        target = self.launch
        if target <= 0:
            return
        deadline = time.monotonic() + self.spawn_timeout_s
        while True:
            if self._closed:
                return
            # Reap and respawn *inside* the wait loop: a daemon can die
            # in the race window between a region's last task and this
            # boundary (its EOF not yet processed), or even mid-wait —
            # a one-shot spawn pass would then idle against the full
            # spawn deadline with a dead proc still counted.
            with self._lock:
                self._procs = [p for p in self._procs if p.poll() is None]
                missing = target - len(self._procs)
                for _ in range(max(0, missing)):
                    self._procs.append(self._spawn_daemon())
            if len(self.live_workers()) >= target:
                return
            if time.monotonic() > deadline:
                live = len(self.live_workers())
                if live > 0:
                    return  # degraded fleet; retry/rebalance handles it
                raise ValidationError(
                    f"no cluster workers registered within "
                    f"{self.spawn_timeout_s}s (target {target}, "
                    f"listening on {self.address})"
                )
            time.sleep(0.01)

    def route(self, home: int) -> RemoteWorker | None:
        """Deterministic task→worker assignment over the live set.

        ``home % len(live)`` in live-index order: stable while the fleet
        is stable, and collapses predictably onto survivors after a
        loss.  ``None`` means the whole fleet is gone — callers degrade
        to inline driver execution.
        """
        live = self.live_workers()
        if not live:
            return None
        return live[home % len(live)]

    # -- broadcasts ---------------------------------------------------

    def register_broadcast(self, broadcast_id: str, payload: bytes) -> None:
        """Record one send-once payload; ships per worker on first task."""
        with self._lock:
            self._broadcasts[broadcast_id] = payload

    def release_broadcast(self, broadcast_id: str) -> None:
        """Retire a broadcast: drop the payload, queue per-worker frees."""
        with self._lock:
            self._broadcasts.pop(broadcast_id, None)
            for worker in self._workers.values():
                if broadcast_id in worker.cached_broadcasts:
                    worker.pending_frees.append(broadcast_id)

    def live_broadcast_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._broadcasts)

    # -- dispatch -----------------------------------------------------

    def submit(
        self, worker: RemoteWorker, task_fn: Any, task_args: tuple, ctx: Any
    ) -> _Pending:
        task_id = next(self._next_task)
        pending = _Pending(ctx)
        with self._lock:
            attach: list[tuple[str, bytes]] = []
            for broadcast_id, payload in self._broadcasts.items():
                if broadcast_id in worker.cached_broadcasts:
                    self.stats["broadcast_hits"] += 1
                else:
                    worker.cached_broadcasts.add(broadcast_id)
                    attach.append((broadcast_id, payload))
                    self.stats["broadcast_sends"] += 1
                    self.stats["broadcast_bytes_sent"] += len(payload)
            frees, worker.pending_frees = worker.pending_frees, []
        message = {
            "type": TASK,
            "id": task_id,
            "fn": task_fn,
            "args": tuple(task_args),
            "bc": attach,
            "free": frees,
        }
        with worker.pending_lock:
            worker.pending[task_id] = pending
        try:
            with worker.send_lock:
                sent = send_frame(worker.sock, message)
        except (OSError, ProtocolError) as exc:
            with worker.pending_lock:
                worker.pending.pop(task_id, None)
            lost = WorkerLostError(
                f"send to cluster worker {worker.index} failed: {exc}"
            )
            self._fail_worker(worker, lost)
            raise lost from exc
        with self._lock:
            self.stats["bytes_sent"] += sent
            self.stats["tasks_dispatched"] += 1
        return pending

    def execute(
        self, worker: RemoteWorker, task_fn: Any, task_args: tuple, ctx: Any
    ) -> Any:
        """Ship one task attempt and block for its result.

        Raises crash-class :class:`WorkerLostError` /
        :class:`TaskTimeoutError` for the retry loop, or re-raises the
        remote task exception (fail-fast for user errors).
        """
        pending = self.submit(worker, task_fn, task_args, ctx)
        ctx.ping(worker.index)
        timeout = ctx.policy.task_timeout_s
        if not pending.event.wait(timeout):
            ctx.bump("timeouts")
            self._fail_worker(worker, WorkerLostError(
                f"cluster worker {worker.index} torn down after task "
                f"timeout ({timeout}s)"
            ))
            raise TaskTimeoutError(
                f"task exceeded task_timeout_s={timeout}s on cluster "
                f"worker {worker.index}"
            )
        if pending.error is not None:
            if (
                isinstance(pending.error, WorkerLostError)
                and pending.error.heartbeat
            ):
                ctx.bump("heartbeat_timeouts")
            raise pending.error
        ctx.ping(worker.index)
        if pending.ok:
            return pending.value
        raise pending.value

    # -- teardown -----------------------------------------------------

    def shutdown(self, *, grace_s: float = 5.0) -> None:
        """Idempotent: SHUTDOWN frames, close sockets, reap daemons."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
            procs, self._procs = self._procs, []
            self._broadcasts.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        foreign = os.getpid() != self.pid
        for worker in workers:
            worker.alive = False
            if not foreign:
                try:
                    with worker.send_lock:
                        send_frame(worker.sock, {"type": SHUTDOWN})
                except (OSError, ProtocolError):
                    pass
            try:
                worker.sock.close()
            except OSError:
                pass
            with worker.pending_lock:
                pending = list(worker.pending.values())
                worker.pending.clear()
            for p in pending:
                p.fail(WorkerLostError("worker pool shut down"))
        if foreign:
            return  # forked child: the parent owns the daemons
        deadline = time.monotonic() + grace_s
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
