"""Tests for repro.exec.faults + the backends' fault-tolerant scheduling.

Covers the policy/telemetry/injection primitives, then drives every
backend through injected worker deaths: crash-class failures retry
under the policy, user errors stay fail-fast, exhausted budgets raise
:class:`TaskFailedError` carrying the original traceback, and hung
tasks time out onto fresh workers.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.config import use_config
from repro.exceptions import TaskFailedError, ValidationError
from repro.exec import (
    ChaosInjector,
    FaultStats,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    SimulatedWorkerCrash,
    TaskTimeoutError,
    ThreadBackend,
    WorkerBudget,
    default_retry_policy,
    is_crash_failure,
    set_fault_injector,
)
from repro.exec.backends import _FaultContext
from repro.exec.faults import FaultInjector

FAST = RetryPolicy(max_task_retries=3, backoff_s=0.0)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    prev_injector = set_fault_injector(None)
    yield
    set_fault_injector(prev_injector)


def _square(x):
    return x * x


def _boom(i):
    raise ValueError(f"task {i} is buggy")


class KillNTimes(FaultInjector):
    """Kill targeted tasks on their first ``n_attempts`` attempts.

    Module-level and stateless per call, so it pickles into worker
    processes; inside a worker the kill is a real ``os._exit``.
    """

    def __init__(self, targets, n_attempts=1, point="before"):
        self.targets = frozenset(targets)
        self.n_attempts = int(n_attempts)
        self.point = point
        self.driver_pid = os.getpid()

    def fire(self, point, region, index, attempt):
        if point != self.point or index not in self.targets:
            return
        if attempt >= self.n_attempts:
            return
        if os.getpid() != self.driver_pid:
            os._exit(29)
        raise SimulatedWorkerCrash(f"killed {region}[{index}] attempt {attempt}")


class HangInWorker(FaultInjector):
    """Hang first attempts that run in a worker process for ``delay_s``.

    The shared-pool scheduler runs the driver's claims inline, where no
    timeout applies, and ships the lanes' claims to the pool.  A first
    attempt on the driver therefore waits (up to ``delay_s``) until some
    worker attempt has started hanging, so at least one task reaches the
    pool and times out whichever thread claims which task.
    """

    def __init__(self, marker, delay_s):
        self.marker = str(marker)
        self.delay_s = float(delay_s)
        self.driver_pid = os.getpid()

    def fire(self, point, region, index, attempt):
        if point != "before" or attempt != 0:
            return
        if os.getpid() != self.driver_pid:
            open(self.marker, "w").close()
            time.sleep(self.delay_s)
            return
        deadline = time.monotonic() + self.delay_s
        while not os.path.exists(self.marker) and time.monotonic() < deadline:
            time.sleep(0.01)


class TestRetryPolicy:
    def test_defaults_and_validation(self):
        policy = RetryPolicy()
        assert policy.max_task_retries == 2
        assert policy.task_timeout_s is None
        with pytest.raises(ValidationError):
            RetryPolicy(max_task_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(task_timeout_s=0.0)

    def test_backoff_deterministic_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, backoff_max_s=0.5)
        values = [policy.backoff("region#0", 3, a) for a in (1, 2, 3, 4, 5)]
        assert values == [policy.backoff("region#0", 3, a) for a in (1, 2, 3, 4, 5)]
        for attempt, value in enumerate(values, start=1):
            cap = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * cap <= value <= cap
        # Different coordinates jitter differently.
        assert policy.backoff("region#0", 3, 1) != policy.backoff("region#1", 3, 1)

    def test_zero_backoff_is_zero(self):
        assert RetryPolicy(backoff_s=0.0).backoff("r", 0, 1) == 0.0

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_MAX_RETRIES", "7")
        monkeypatch.setenv("REPRO_FAULTS_TASK_TIMEOUT", "2.5")
        policy = default_retry_policy()
        assert policy.max_task_retries == 7
        assert policy.task_timeout_s == 2.5
        assert policy.backoff_s == RetryPolicy().backoff_s

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_MAX_RETRIES", "lots")
        with pytest.raises(ValidationError, match="REPRO_FAULTS_MAX_RETRIES"):
            default_retry_policy()

    def test_resolution_precedence(self, monkeypatch):
        # argument > installed config > environment.
        monkeypatch.setenv("REPRO_FAULTS_MAX_RETRIES", "9")
        with use_config(faults_max_retries=4):
            assert _FaultContext(_square).policy.max_task_retries == 4
        explicit = RetryPolicy(max_task_retries=1)
        assert _FaultContext(_square, retry=explicit).policy is explicit
        assert _FaultContext(_square).policy.max_task_retries == 9


class TestFaultStats:
    def test_bump_as_dict(self):
        stats = FaultStats()
        stats.bump("retries")
        stats.bump("retries", 2)
        stats.bump("state_recomputed_bytes", 1024)
        snapshot = stats.as_dict()
        assert snapshot["retries"] == 3
        assert snapshot["state_recomputed_bytes"] == 1024
        assert snapshot["crashes"] == 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValidationError):
            FaultStats().bump("optimism")


class TestChaosInjector:
    def test_deterministic_and_first_attempt_only(self):
        injector = ChaosInjector(rate=0.5, seed=3)
        killed = []
        for index in range(40):
            try:
                injector.fire("before", "region#0", index, 0)
            except SimulatedWorkerCrash:
                killed.append(index)
        assert killed  # rate=0.5 over 40 tasks: some die
        again = []
        for index in range(40):
            try:
                injector.fire("before", "region#0", index, 0)
            except SimulatedWorkerCrash:
                again.append(index)
        assert killed == again
        for index in killed:  # retries always see clean air
            injector.fire("before", "region#0", index, 1)

    def test_validation_and_pickle(self):
        with pytest.raises(ValidationError):
            ChaosInjector(rate=1.5)
        injector = ChaosInjector(rate=0.2, seed=9)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.rate == 0.2 and clone.driver_pid == injector.driver_pid

    def test_crash_classification(self):
        assert is_crash_failure(SimulatedWorkerCrash("x"))
        assert is_crash_failure(TaskTimeoutError("x"))
        assert not is_crash_failure(ValueError("x"))


@pytest.mark.parametrize("make_backend", [SerialBackend, ThreadBackend])
class TestInlineBackendRetries:
    def test_crash_retried_to_success(self, make_backend):
        set_fault_injector(KillNTimes({1, 3}))
        backend = make_backend(budget=WorkerBudget(2))
        stats = FaultStats()
        out = backend.run_calls(
            _square, [(i,) for i in range(5)], retry=FAST, faults=stats
        )
        backend.shutdown()
        assert out == [i * i for i in range(5)]
        assert stats.retries == 2 and stats.crashes == 2

    def test_user_errors_never_retried(self, make_backend):
        set_fault_injector(None)
        backend = make_backend(budget=WorkerBudget(2))
        stats = FaultStats()
        # No injector at all: ambient chaos (REPRO_FAULTS_CHAOS) would
        # otherwise kill tasks of this region, depending on its serial.
        with use_config(faults_chaos=False):
            with pytest.raises(ValueError, match="buggy"):
                backend.run_calls(
                    _boom, [(i,) for i in range(3)], retry=FAST, faults=stats
                )
        backend.shutdown()
        assert stats.retries == 0

    def test_exhausted_budget_raises_task_failed(self, make_backend):
        set_fault_injector(KillNTimes({0}, n_attempts=10))
        backend = make_backend(budget=WorkerBudget(2))
        policy = RetryPolicy(max_task_retries=2, backoff_s=0.0)
        with pytest.raises(TaskFailedError) as excinfo:
            backend.run_calls(_square, [(0,), (1,)], retry=policy)
        backend.shutdown()
        err = excinfo.value
        assert err.task_index == 0
        assert err.attempts == 3
        assert "SimulatedWorkerCrash" in err.original_traceback

    def test_retry_args_hook_feeds_recovered_inputs(self, make_backend):
        set_fault_injector(KillNTimes({0}))
        backend = make_backend(budget=WorkerBudget(2))

        def recovered(index, attempt, exc):
            assert index == 0 and attempt == 1
            assert is_crash_failure(exc)
            return (100,)

        out = backend.run_calls(
            _square, [(1,), (2,)], retry=FAST, retry_args=recovered
        )
        backend.shutdown()
        assert out == [10000, 4]  # task 0 re-ran on the recovered input

    def test_sibling_failures_chained(self, make_backend):
        set_fault_injector(None)
        backend = make_backend(budget=WorkerBudget(3))

        def maybe_boom(i):
            if i in (1, 2):
                raise ValueError(f"task {i} is buggy")
            return i

        with pytest.raises(ValueError, match="task 1") as excinfo:
            backend.run_calls(maybe_boom, [(i,) for i in range(4)], parallelism=3)
        backend.shutdown()
        siblings = getattr(excinfo.value, "sibling_errors", ())
        # Serial fails fast at task 1 (no siblings ran); parallel lanes
        # surface task 2 as a chained sibling instead of discarding it.
        if backend.name != "serial":
            assert [str(s) for s in siblings] == ["task 2 is buggy"]
            assert excinfo.value.__context__ is siblings[0]


class TestProcessBackendFaults:
    def test_shared_pool_worker_death_recovered(self):
        # Every task's first attempt dies: inline-lane tasks crash as
        # SimulatedWorkerCrash, pool tasks as real worker deaths — so at
        # least one broken pool gets rebuilt no matter how lanes claim.
        set_fault_injector(KillNTimes(range(6)))
        backend = ProcessBackend(budget=WorkerBudget(3))
        stats = FaultStats()
        try:
            out = backend.run_calls(
                _square,
                [(i,) for i in range(6)],
                parallelism=3,
                retry=FAST,
                faults=stats,
            )
        finally:
            backend.shutdown()
        assert out == [i * i for i in range(6)]
        snapshot = stats.as_dict()
        assert snapshot["retries"] >= 1
        assert snapshot["crashes"] >= 1
        assert snapshot["pool_rebuilds"] >= 1

    def test_exhausted_retries_raise_task_failed_not_hang(self):
        # Task 0 dies on every attempt: as SimulatedWorkerCrash when the
        # driver claims it, as a real worker death on the shared pool
        # when a lane does — the region fails the same way either way.
        set_fault_injector(KillNTimes({0}, n_attempts=10))
        backend = ProcessBackend(budget=WorkerBudget(2))
        policy = RetryPolicy(max_task_retries=1, backoff_s=0.0)
        with pytest.raises(TaskFailedError) as excinfo:
            try:
                backend.run_calls(
                    _square, [(0,), (1,)], parallelism=2, retry=policy
                )
            finally:
                backend.shutdown()
        assert excinfo.value.task_index == 0
        assert excinfo.value.attempts == 2

    def test_task_timeout_kills_hung_worker_and_retries(self, tmp_path):
        set_fault_injector(HangInWorker(tmp_path / "hung", delay_s=5.0))
        backend = ProcessBackend(budget=WorkerBudget(2))
        stats = FaultStats()
        policy = RetryPolicy(max_task_retries=2, backoff_s=0.0, task_timeout_s=0.75)
        start = time.monotonic()
        try:
            out = backend.run_calls(
                _square,
                [(0,), (1,)],
                parallelism=2,
                retry=policy,
                faults=stats,
            )
        finally:
            backend.shutdown()
        elapsed = time.monotonic() - start
        assert out == [0, 1]
        snapshot = stats.as_dict()
        assert snapshot["timeouts"] >= 1
        assert snapshot["retries"] >= 1
        assert snapshot["pool_rebuilds"] >= 1
        assert elapsed < 5.0  # the hung attempt was killed, not awaited
