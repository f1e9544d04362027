"""Units for the driver-side worker pool.

Registration handshake, deterministic routing, send-once broadcast
shipping, heartbeat-timeout failure detection (a SIGSTOPped daemon is
connected but silent), and clean teardown with zero leaked daemons.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import time
from types import SimpleNamespace

import pytest

from repro.cluster.protocol import (
    HELLO,
    WELCOME,
    recv_frame,
    send_frame,
)
from repro.cluster.worker_pool import WorkerPool
from repro.exec.faults import TaskTimeoutError, WorkerLostError


class StubCtx:
    """The slice of ``_FaultContext`` the pool touches."""

    def __init__(self, task_timeout_s: float | None = None):
        self.policy = SimpleNamespace(task_timeout_s=task_timeout_s)
        self.bumps: dict[str, int] = {}

    def bump(self, field: str, n: int = 1) -> None:
        self.bumps[field] = self.bumps.get(field, 0) + n


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


class TestHandshake:
    def test_external_worker_registers_and_gets_config(self):
        with WorkerPool(launch=0, chunk_bytes=12345, data_root="/data") as pool:
            sock = socket.create_connection(("127.0.0.1", pool.port))
            try:
                send_frame(sock, {"type": HELLO, "pid": 4242, "host": "test"})
                welcome = recv_frame(sock)
                assert welcome["type"] == WELCOME
                assert welcome["index"] == 0
                assert welcome["chunk_bytes"] == 12345
                assert welcome["data_root"] == "/data"
                wait_for(lambda: len(pool.live_workers()) == 1)
                assert pool.live_workers()[0].pid == 4242
                assert pool.stats["workers_registered"] == 1
            finally:
                sock.close()
            # EOF fails the worker and empties the live set.
            wait_for(lambda: pool.live_workers() == [])
            assert pool.stats["workers_lost"] == 1

    def test_garbage_connection_is_dropped_not_registered(self):
        with WorkerPool(launch=0) as pool:
            sock = socket.create_connection(("127.0.0.1", pool.port))
            try:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                sock.settimeout(5.0)
                # Pool hangs up: clean EOF or RST, never a WELCOME frame.
                try:
                    assert sock.recv(1024) == b""
                except ConnectionResetError:
                    pass
            finally:
                sock.close()
            assert pool.live_workers() == []
            assert pool.stats["workers_registered"] == 0


class TestSelfLaunchedFleet:
    def test_spawns_registers_executes_and_reaps(self):
        pool = WorkerPool(launch=2, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            workers = pool.live_workers()
            assert len(workers) == 2
            assert sorted(w.index for w in workers) == [0, 1]
            assert pool.execute(workers[0], pow, (2, 10), StubCtx()) == 1024
            assert pool.stats["tasks_dispatched"] == 1
        finally:
            pool.shutdown()
        assert pool.closed
        assert pool._procs == []  # daemons reaped, none leaked

    def test_routing_is_deterministic_and_collapses_onto_survivors(self):
        pool = WorkerPool(launch=2, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            first = [pool.route(h).index for h in range(4)]
            assert first == [0, 1, 0, 1]
            assert [pool.route(h).index for h in range(4)] == first  # stable
            victim = pool.live_workers()[0]
            victim.sock.close()  # sever: recv loop fails the worker
            wait_for(lambda: len(pool.live_workers()) == 1)
            assert {pool.route(h).index for h in range(4)} == {1}
        finally:
            pool.shutdown()

    def test_remote_exception_fails_fast_worker_survives(self):
        pool = WorkerPool(launch=1, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            worker = pool.live_workers()[0]
            with pytest.raises(ZeroDivisionError):
                pool.execute(worker, divmod, (1, 0), StubCtx())
            assert worker.alive  # a user error must not cost the worker
            assert pool.execute(worker, divmod, (7, 3), StubCtx()) == (2, 1)
        finally:
            pool.shutdown()


class TestSendOnceBroadcasts:
    def test_payload_ships_once_per_worker_then_hits(self):
        pool = WorkerPool(launch=2, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            payload = pickle.dumps(b"x" * 4096)
            pool.register_broadcast("bc-test-1", payload)
            w0, w1 = pool.live_workers()
            for _ in range(3):
                pool.execute(w0, pow, (2, 3), StubCtx())
            pool.execute(w1, pow, (2, 4), StubCtx())
            # One send per worker, every later frame a hit.
            assert pool.stats["broadcast_sends"] == 2
            assert pool.stats["broadcast_hits"] == 2
            assert pool.stats["broadcast_bytes_sent"] == 2 * len(payload)
            # Wire accounting: tasks after the first do not re-pay the payload.
            pool.release_broadcast("bc-test-1")
            assert pool.live_broadcast_ids() == ()
            pool.execute(w0, pow, (2, 5), StubCtx())  # carries the free marker
            assert pool.stats["broadcast_sends"] == 2
        finally:
            pool.shutdown()

    def test_late_worker_gets_payload_on_first_task(self):
        pool = WorkerPool(launch=1, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            pool.register_broadcast("bc-test-2", pickle.dumps(b"y" * 128))
            pool.execute(pool.live_workers()[0], pow, (2, 2), StubCtx())
            assert pool.stats["broadcast_sends"] == 1
            pool.launch = 2
            pool.ensure_fleet()  # region boundary: fleet grows
            late = [w for w in pool.live_workers() if w.index == 1][0]
            pool.execute(late, pow, (2, 6), StubCtx())
            assert pool.stats["broadcast_sends"] == 2
        finally:
            pool.shutdown()


class TestFailureDetection:
    def test_sigstopped_worker_declared_lost_by_heartbeat(self):
        pool = WorkerPool(
            launch=2, heartbeat_s=0.1, heartbeat_timeout_s=0.8
        )
        stopped = None
        try:
            pool.ensure_fleet()
            victim = pool.live_workers()[0]
            proc = next(p for p in pool._procs if p.pid == victim.pid)
            os.kill(proc.pid, signal.SIGSTOP)
            stopped = proc
            ctx = StubCtx()
            t0 = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                pool.execute(victim, pow, (2, 3), ctx)
            assert excinfo.value.heartbeat
            assert "heartbeat" in str(excinfo.value)
            assert time.monotonic() - t0 < 10.0
            assert pool.stats["heartbeat_timeouts"] == 1
            assert ctx.bumps.get("heartbeat_timeouts") == 1
            # The survivor keeps serving.
            assert pool.execute(pool.live_workers()[0], pow, (3, 2), StubCtx()) == 9
        finally:
            if stopped is not None:
                os.kill(stopped.pid, signal.SIGKILL)
            pool.shutdown(grace_s=1.0)

    def test_killed_worker_fails_pending_task_as_worker_lost(self):
        pool = WorkerPool(launch=1, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            victim = pool.live_workers()[0]
            proc = pool._procs[0]
            pending = pool.submit(victim, time.sleep, (30.0,))
            proc.kill()  # hard death mid-task: EOF on the driver socket
            assert pending.event.wait(10.0)
            assert isinstance(pending.error, WorkerLostError)
            assert not pending.error.heartbeat
            assert pool.stats["workers_lost"] == 1
        finally:
            pool.shutdown(grace_s=1.0)

    def test_task_timeout_tears_worker_down(self):
        pool = WorkerPool(launch=1, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            victim = pool.live_workers()[0]
            ctx = StubCtx(task_timeout_s=0.3)
            with pytest.raises(TaskTimeoutError):
                pool.execute(victim, time.sleep, (30.0,), ctx)
            assert ctx.bumps.get("timeouts") == 1
            assert pool.live_workers() == []
        finally:
            pool.shutdown(grace_s=1.0)

    def test_fleet_respawns_at_region_boundary(self):
        pool = WorkerPool(launch=2, heartbeat_s=0.1)
        try:
            pool.ensure_fleet()
            pool._procs[0].kill()
            wait_for(lambda: len(pool.live_workers()) == 1)
            pool.ensure_fleet()  # next region boundary: back to target
            assert len(pool.live_workers()) == 2
            assert pool.stats["workers_registered"] == 3
        finally:
            pool.shutdown(grace_s=1.0)
