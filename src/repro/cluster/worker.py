"""The ``python -m repro worker --connect HOST:PORT`` daemon.

One connection, one loop: connect to the driver's
:class:`~repro.cluster.worker_pool.WorkerPool`, register with a
``HELLO``/``WELCOME`` handshake, then execute ``TASK`` frames serially
and in order, replying ``RESULT`` per task.  A background thread sends
``PING`` heartbeats on the same socket (under a send lock) so liveness
keeps flowing while a long map task runs — the skywriting ``last_ping``
model, consumed driver-side by the pool's failure detector.

Determinism: the ``WELCOME`` frame carries the driver engine's
``chunk_bytes`` and the daemon initializes through the exact serial-leaf
path the process backend uses (``_process_worker_init``), so GEMM
blocking — and therefore low-order float bits — match the driver and
every other backend.

Broadcasts arrive send-once: a ``TASK`` frame's ``bc`` list carries
``(id, payload)`` pairs this worker has not seen, which are unpickled
into the process-global cache before the task runs; ``free`` markers
drop retired ids.  Chaos injection needs no special handling — injected
tasks arrive pre-wrapped in ``call_with_faults`` and, because this
process is not the driver, a firing point calls ``os._exit(29)``: a
genuine daemon death the driver observes as EOF.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import socket
import threading
import traceback

from repro.cluster.protocol import (
    HELLO,
    PING,
    RESULT,
    SHUTDOWN,
    TASK,
    WELCOME,
    ConnectionClosed,
    ProtocolError,
    RemoteTaskError,
    recv_frame,
    send_frame,
    send_payload,
)
from repro.config import get_config, set_config

__all__ = ["run_worker", "parse_connect"]


def parse_connect(spec: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` connect spec (host defaults to loopback)."""
    host, _, port_text = spec.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--connect expects HOST:PORT, got {spec!r}"
        ) from None
    return host or "127.0.0.1", port


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    stop: threading.Event,
    index: int,
    interval_s: float,
) -> None:
    while not stop.wait(interval_s):
        try:
            with send_lock:
                send_frame(sock, {"type": PING, "index": index})
        except OSError:
            stop.set()
            return


def _reply(
    sock: socket.socket,
    send_lock: threading.Lock,
    task_id: int,
    ok: bool,
    value: object,
    tb: str = "",
) -> None:
    message = {"type": RESULT, "id": task_id, "ok": ok, "value": value}
    if tb:
        message["traceback"] = tb
    try:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        if not ok:
            # Error replies are small: verify they survive a round trip
            # so a driver-side unpickling failure (e.g. an exception
            # class with a required keyword) can't tear the connection.
            pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any serialization failure
        fallback = RemoteTaskError(
            f"task outcome not picklable ({type(exc).__name__}: {exc})",
            remote_traceback=tb or traceback.format_exc(),
        )
        payload = pickle.dumps(
            {"type": RESULT, "id": task_id, "ok": False, "value": fallback},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    with send_lock:
        send_payload(sock, payload)


def run_worker(connect: str, *, data_root: str | None = None) -> int:
    """Run one worker daemon until the driver goes away. Returns exit code."""
    host, port = parse_connect(connect)
    sock = socket.create_connection((host, port), timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        send_frame(
            sock,
            {"type": HELLO, "pid": os.getpid(), "host": socket.gethostname()},
        )
        welcome = recv_frame(sock)
        if welcome.get("type") != WELCOME:
            raise ProtocolError(
                f"expected WELCOME after HELLO, got {welcome.get('type')!r}"
            )
        sock.settimeout(None)
        index = int(welcome["index"])

        if data_root is None:
            data_root = welcome.get("data_root")
        if data_root:
            set_config(dataclasses.replace(get_config(), data_root=str(data_root)))

        # Same serial-leaf initialization as the process backend's
        # workers: serial engine with the driver's chunking, one worker,
        # chaos disarmed locally (injectors ride in task tuples).
        from repro.exec.backends import _process_worker_init

        _process_worker_init(int(welcome["chunk_bytes"]))

        from repro.cluster.bcast import free_broadcast, store_broadcast

        send_lock = threading.Lock()
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, stop, index,
                  float(welcome.get("heartbeat_s", 0.5))),
            daemon=True,
        )
        beat.start()

        while True:
            try:
                message = recv_frame(sock)
            except ConnectionClosed:
                return 0
            kind = message.get("type")
            if kind == SHUTDOWN:
                return 0
            if kind != TASK:
                continue
            for broadcast_id, blob in message.get("bc", ()):
                store_broadcast(broadcast_id, pickle.loads(blob))
            for broadcast_id in message.get("free", ()):
                free_broadcast(broadcast_id)
            task_id = message["id"]
            fn = message["fn"]
            args = message["args"]
            try:
                value = fn(*args)
            except SystemExit:
                raise
            except BaseException as exc:  # noqa: BLE001 — shipped to driver
                _reply(
                    sock, send_lock, task_id, False,
                    exc.with_traceback(None), traceback.format_exc(),
                )
            else:
                _reply(sock, send_lock, task_id, True, value)
    finally:
        try:
            sock.close()
        except OSError:
            pass
