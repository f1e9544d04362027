"""Tests for repro.exec.backends: scheduling, registry, process workers."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.exceptions import ValidationError
from repro.exec import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerBudget,
    get_backend,
    get_worker_budget,
    resolve_backend,
    set_backend,
    set_worker_budget,
    use_backend,
)

ENV_BACKEND = "REPRO_EXEC_BACKEND"


@pytest.fixture(autouse=True)
def _reset_exec_state():
    """Each test starts from (and restores) the default backend/budget."""
    prev_backend = set_backend(None)
    prev_budget = set_worker_budget(None)
    yield
    set_backend(prev_backend)
    set_worker_budget(prev_budget)


def _pid() -> int:
    return os.getpid()


def _slow_pid(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _mul(a, b):
    return a * b


def _boom(i):
    raise ValueError(f"task {i} failed")


def _maybe_boom(i):
    if i in (2, 5):
        raise ValueError(f"task {i} failed")
    return i


class TestRegistry:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert isinstance(get_backend(), ThreadBackend)
        assert not isinstance(get_backend(), ProcessBackend)

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "serial")
        set_backend(None)
        assert isinstance(get_backend(), SerialBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown execution backend"):
            resolve_backend("gpu")

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "nope")
        set_backend(None)
        with pytest.raises(ValidationError):
            get_backend()

    def test_set_and_restore(self):
        backend = SerialBackend()
        previous = set_backend(backend)
        try:
            assert get_backend() is backend
        finally:
            set_backend(previous)

    def test_use_backend_scopes(self):
        outer = get_backend()
        with use_backend("serial") as scoped:
            assert get_backend() is scoped
            assert isinstance(scoped, SerialBackend)
        assert get_backend() is outer

    def test_use_backend_restores_on_error(self):
        outer = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("serial"):
                raise RuntimeError("boom")
        assert get_backend() is outer

    def test_use_backend_budget_override(self):
        with use_backend("thread", budget=3):
            assert get_worker_budget().limit == 3

    def test_use_backend_bad_name_leaves_budget_untouched(self):
        before = get_worker_budget()
        with pytest.raises(ValidationError):
            with use_backend("proccess", budget=2):  # typo'd name
                pass  # pragma: no cover
        assert get_worker_budget() is before

    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "thread", "process"}

    def test_instance_passthrough(self):
        backend = ThreadBackend()
        assert resolve_backend(backend) is backend


class TestSchedulingSemantics:
    """Same answers, same order, same errors — on every backend."""

    @pytest.fixture(params=["serial", "thread", "process"])
    def backend(self, request):
        backend = BACKENDS[request.param](budget=WorkerBudget(4))
        with backend:
            yield backend

    def test_run_tasks_order(self, backend):
        tasks = [lambda i=i: i * i for i in range(23)]
        assert backend.run_tasks(tasks) == [i * i for i in range(23)]

    def test_run_tasks_empty(self, backend):
        assert backend.run_tasks([]) == []

    def test_iter_tasks_order(self, backend):
        tasks = [lambda i=i: i for i in range(17)]
        assert list(backend.iter_tasks(tasks, parallelism=3)) == list(range(17))

    def test_run_calls_order(self, backend):
        calls = [(i, 3) for i in range(11)]
        assert backend.run_calls(_mul, calls) == [3 * i for i in range(11)]

    def test_run_calls_empty(self, backend):
        assert backend.run_calls(_mul, []) == []

    def test_lowest_index_error_wins(self, backend):
        with pytest.raises(ValueError, match="task 2 failed"):
            backend.run_calls(_maybe_boom, [(i,) for i in range(8)])

    def test_every_task_runs_despite_failure(self, backend):
        # Parallel schedules drain every task before raising (so no
        # straggler is left mutating state); the serial backend — like
        # any inline fallback — fails fast, which raises the same
        # exception with strictly fewer side effects.
        if backend.name == "serial":
            pytest.skip("serial backend fails fast by design")
        # In-process backends observe side effects; assert them there.
        if backend.name == "process":
            pytest.skip("side effects land in worker processes")
        seen = set()
        lock = threading.Lock()

        def make(i):
            def task():
                with lock:
                    seen.add(i)
                if i == 0:
                    raise RuntimeError("first fails")
                return i

            return task

        with pytest.raises(RuntimeError):
            backend.run_tasks([make(i) for i in range(9)], parallelism=4)
        assert seen == set(range(9))

    def test_budget_returned_after_region(self, backend):
        backend.run_tasks([lambda i=i: i for i in range(9)], parallelism=4)
        assert backend.budget.in_use == 0

    def test_budget_returned_after_error(self, backend):
        with pytest.raises(ValueError):
            backend.run_calls(_boom, [(i,) for i in range(5)])
        assert backend.budget.in_use == 0

    def test_budget_returned_after_iter(self, backend):
        list(backend.iter_tasks([lambda i=i: i for i in range(9)], parallelism=4))
        assert backend.budget.in_use == 0

    def test_shutdown_idempotent(self, backend):
        backend.run_tasks([lambda: 1, lambda: 2], parallelism=2)
        backend.shutdown()
        backend.shutdown()  # second call must be a no-op
        # ... and pools rebuild lazily afterwards.
        assert backend.run_tasks([lambda: 3, lambda: 4], parallelism=2) == [3, 4]

    def test_invalid_parallelism(self, backend):
        if backend.name == "serial":
            pytest.skip("serial backend ignores parallelism")
        with pytest.raises(ValidationError, match="parallelism"):
            backend.run_tasks([lambda: 1, lambda: 2], parallelism=0)


class TestThreadBackend:
    def test_actually_uses_threads(self):
        with ThreadBackend(budget=WorkerBudget(4)) as backend:
            idents = backend.run_tasks(
                [lambda: (time.sleep(0.01), threading.get_ident())[1] for _ in range(8)],
                parallelism=4,
            )
        assert len(set(idents)) > 1  # caller + at least one lane

    def test_zero_tokens_runs_inline(self):
        budget = WorkerBudget(4)
        assert budget.try_acquire(3) == 3  # starve the pool
        try:
            with ThreadBackend(budget=budget) as backend:
                idents = backend.run_tasks(
                    [lambda: threading.get_ident() for _ in range(6)], parallelism=4
                )
            assert set(idents) == {threading.get_ident()}
        finally:
            budget.release(3)

    def test_iter_tasks_bounded_window(self):
        # No more than (tokens + delivered) results may ever have been
        # produced before the consumer asks: with 2 tokens, by the time
        # result i is yielded at most i + 2 tasks can have *started*.
        started = []
        lock = threading.Lock()

        def make(i):
            def task():
                with lock:
                    started.append(i)
                return i

            return task

        with ThreadBackend(budget=WorkerBudget(3)) as backend:
            gen = backend.iter_tasks([make(i) for i in range(20)], parallelism=3)
            first = next(gen)
            with lock:
                early = len(started)
            rest = list(gen)
        assert first == 0 and rest == list(range(1, 20))
        assert early <= 4  # 1 delivered + 2 in flight + 1 being submitted

    def test_fork_safe_pool_recreated(self):
        with ThreadBackend(budget=WorkerBudget(3)) as backend:
            backend.run_tasks([lambda: 1] * 4, parallelism=3)
            pool_before = backend._pool
            backend._pool_pid -= 1  # simulate running in a forked child
            backend.run_tasks([lambda: 1] * 4, parallelism=3)
            assert backend._pool is not pool_before

    def test_budget_growth_does_not_break_live_stream(self):
        # Growing the budget swaps in a bigger pool; a streaming region
        # submitting to the previously captured pool must keep working.
        budget = WorkerBudget(3)
        with ThreadBackend(budget=budget) as backend:
            gen = backend.iter_tasks(
                [lambda i=i: i for i in range(30)], parallelism=3
            )
            out = [next(gen) for _ in range(3)]
            backend._budget = WorkerBudget(8)  # grow mid-iteration...
            backend.run_tasks([lambda: 0] * 8, parallelism=8)  # new pool
            out.extend(gen)  # ...old stream still completes
        assert out == list(range(30))

    def test_keyboard_interrupt_propagates_promptly(self):
        # A BaseException must win even when a lower-indexed task already
        # failed with an ordinary exception, and must stop the region.
        def make(i):
            def task():
                if i == 0:
                    raise ValueError("ordinary failure first")
                if i == 1:
                    raise KeyboardInterrupt
                time.sleep(0.001)
                return i

            return task

        budget = WorkerBudget(2)  # one lane: the caller claims 0 and 1
        with ThreadBackend(budget=budget) as backend:
            with pytest.raises(KeyboardInterrupt):
                backend.run_tasks([make(i) for i in range(50)], parallelism=2)
            assert budget.in_use == 0  # tokens returned on the way out

    def test_after_fork_hooks_reset_locks(self):
        # Simulate the child-side of a fork taken while locks were held.
        from repro.exec.backends import _reset_backends_after_fork_in_child
        from repro.exec.budget import _reset_budgets_after_fork_in_child

        budget = WorkerBudget(4)
        backend = ThreadBackend(budget=budget)
        budget._lock.acquire()  # parent thread holds these at fork time
        backend._pool_lock.acquire()
        assert budget.try_acquire.__self__ is budget
        _reset_budgets_after_fork_in_child()
        _reset_backends_after_fork_in_child()
        # Fresh locks: these would deadlock with the old (held) ones.
        assert budget.try_acquire(2) == 2
        budget.release(2)
        assert backend.run_tasks([lambda: 7, lambda: 8], parallelism=2) == [7, 8]


class TestProcessBackend:
    def test_portable_calls_reach_worker_processes(self):
        # Tasks that take a moment keep the caller busy with its first
        # claim while the lanes start, so both kinds of lane run tasks
        # whichever thread claims first (instant tasks let the caller
        # drain the whole region before any lane thread is scheduled).
        with ProcessBackend(budget=WorkerBudget(4)) as backend:
            pids = backend.run_calls(
                _slow_pid, [(0.05,) for _ in range(8)], parallelism=4
            )
        assert any(p != os.getpid() for p in pids), "no worker process used"
        assert any(p == os.getpid() for p in pids), "caller lane never ran"

    def test_parallelism_one_stays_in_parent(self):
        with ProcessBackend(budget=WorkerBudget(4)) as backend:
            assert backend.run_calls(_pid, [()], parallelism=1) == [os.getpid()]

    def test_unpicklable_region_falls_back_to_threads(self):
        class Local:  # not picklable: defined inside a function
            def __init__(self, i):
                self.i = i

        def fn(obj):
            return (os.getpid(), obj.i * 2)

        with ProcessBackend(budget=WorkerBudget(4)) as backend:
            out = backend.run_calls(fn, [(Local(i),) for i in range(6)], parallelism=4)
        assert [v for _, v in out] == [2 * i for i in range(6)]
        assert all(p == os.getpid() for p, _ in out)  # threads, one process

    def test_shared_memory_tasks_stay_in_process(self):
        # run_tasks closures write into caller-visible state: they must
        # never cross the process boundary, even on the process backend.
        acc = []
        lock = threading.Lock()

        def make(i):
            def task():
                with lock:
                    acc.append(i)
                return os.getpid()

            return task

        with ProcessBackend(budget=WorkerBudget(4)) as backend:
            pids = backend.run_tasks([make(i) for i in range(8)], parallelism=4)
        assert sorted(acc) == list(range(8))
        assert set(pids) == {os.getpid()}

    def test_worker_error_propagates(self):
        with ProcessBackend(budget=WorkerBudget(4)) as backend:
            with pytest.raises(ValueError, match="task 2 failed"):
                backend.run_calls(_maybe_boom, [(i,) for i in range(8)], parallelism=4)
            assert backend.budget.in_use == 0

    def test_children_are_serial_leaves(self):
        # Worker processes must run a serial backend and a 1-worker
        # engine so they cannot oversubscribe behind the scheduler.
        with ProcessBackend(budget=WorkerBudget(2)) as backend:
            configs = backend.run_calls(_child_config, [() for _ in range(4)],
                                        parallelism=2)
        child = [c for c in configs if c["pid"] != os.getpid()]
        assert child, "no call reached a worker process"
        for cfg in child:
            assert cfg["backend"] == "serial"
            assert cfg["engine_workers"] == 1
            assert cfg["budget_limit"] == 1


def _child_config():
    from repro.exec import get_backend, get_worker_budget
    from repro.linalg.engine import get_engine

    return {
        "pid": os.getpid(),
        "backend": get_backend().name,
        "engine_workers": get_engine().workers,
        "budget_limit": get_worker_budget().limit,
    }

