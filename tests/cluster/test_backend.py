"""Units for :class:`ClusterBackend`: dispatch, retry, fallback, teardown."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cluster import ClusterBackend
from repro.exec import RetryPolicy, WorkerBudget, resolve_backend
from repro.exec.backends import BACKENDS

from tests.conftest import skip_under_chaos


def _module_level_double(x):
    return 2 * x


def _module_level_pid():
    return os.getpid()


@pytest.fixture(scope="module")
def backend():
    b = ClusterBackend(budget=WorkerBudget(3), workers=2, heartbeat_s=0.1)
    yield b
    b.shutdown()


class TestDispatch:
    def test_results_are_index_ordered(self, backend):
        results = backend.run_calls(pow, [(2, i) for i in range(16)])
        assert results == [2**i for i in range(16)]

    @skip_under_chaos
    def test_tasks_actually_run_remotely(self, backend):
        # Placement assertion: under ambient chaos a killed worker's
        # retry legitimately degrades to inline driver execution.
        pids = set(backend.run_calls(os.getpid, [() for _ in range(8)]))
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2  # the two daemons, never the driver

    def test_unpicklable_region_degrades_to_threads(self, backend):
        captured = []
        results = backend.run_calls(
            lambda x: captured.append(x) or -x, [(i,) for i in range(4)]
        )
        assert results == [0, -1, -2, -3]
        assert sorted(captured) == [0, 1, 2, 3]  # ran in-process

    def test_test_module_region_degrades_to_threads(self, backend):
        # A module-level function from a pytest test file pickles by
        # reference just fine — but a fresh daemon can't import
        # ``test_backend``, so the preflight must keep it on the
        # driver's threads instead of exploding at remote unpickle.
        results = backend.run_calls(_module_level_double, [(i,) for i in range(4)])
        assert results == [0, 2, 4, 6]
        pids = set(backend.run_calls(_module_level_pid, [() for _ in range(4)]))
        assert pids == {os.getpid()}

    def test_user_error_fails_fast_with_lowest_index(self, backend):
        with pytest.raises(Exception) as excinfo:
            backend.run_calls(divmod, [(6, 3), (1, 0), (8, 0)])
        assert "ZeroDivisionError" in repr(excinfo.value) or isinstance(
            excinfo.value, ZeroDivisionError
        )

    def test_registry_resolves_cluster_lazily(self):
        assert "cluster" in BACKENDS
        resolved = resolve_backend("cluster")
        assert type(resolved).__name__ == "ClusterBackend"
        resolved.shutdown()


class TestWorkerKillMidRegion:
    def test_region_survives_daemon_kill(self):
        backend = ClusterBackend(
            budget=WorkerBudget(3), workers=2, heartbeat_s=0.1
        )
        try:
            fleet = backend._get_fleet()
            assert len(fleet.live_workers()) == 2

            def assassin():
                time.sleep(0.25)
                procs = list(fleet._procs)
                if procs:
                    procs[0].kill()

            killer = threading.Thread(target=assassin)
            killer.start()
            results = backend.run_calls(
                time.sleep,
                [(0.2,) for _ in range(8)],
                retry=RetryPolicy(max_task_retries=3, backoff_s=0.0),
            )
            killer.join()
            assert results == [None] * 8
            assert fleet.stats["workers_lost"] >= 1
        finally:
            backend.shutdown()

    def test_shutdown_is_idempotent_and_reaps_daemons(self):
        backend = ClusterBackend(budget=WorkerBudget(2), workers=2)
        assert backend.run_calls(pow, [(3, 3)]) == [27]
        fleet = backend._fleet
        procs = list(fleet._procs)
        backend.shutdown()
        backend.shutdown()
        assert fleet.closed
        for proc in procs:
            assert proc.poll() is not None  # no daemon outlives the backend
