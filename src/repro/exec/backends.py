"""Pluggable execution backends behind one worker-budget scheduler.

Every hot path in the repository — the chunked linalg kernels *and* the
MapReduce runtime's map task fan-out — schedules its parallel regions
through the process-wide :class:`ExecBackend` installed here, instead of
through private per-layer thread pools.  Three implementations ship:

``serial``
    Runs everything inline on the calling thread.  The reference
    semantics; also what :class:`ProcessBackend` installs inside its
    worker processes so children never nest their own parallelism.
``thread``
    The default.  Fans tasks out across one shared, lazily-created
    thread pool.  Right for workloads whose task bodies release the GIL
    (all the repro kernels are GEMM-heavy NumPy).
``process``
    Like ``thread`` for shared-memory tasks, but *portable* task calls
    (picklable ``fn(*args)`` invocations — the MapReduce map and reduce
    tasks) are shipped to a pool of worker processes, sidestepping the
    GIL for pure-Python mapper bodies too.

Scheduling model
----------------
All backends draw from the same :class:`~repro.exec.budget.WorkerBudget`
token pool.  A parallel region of ``n`` tasks borrows up to
``min(parallelism, n) - 1`` tokens without blocking, runs one worker per
token *plus the calling thread* (work-sharing: every worker pulls the
next unclaimed task index), and returns the tokens when the region
completes.  Consequences, which the scheduler tests pin down:

* nested regions (engine chunks inside an MR map task) can never exceed
  the budget limit in total concurrency — inner regions simply find
  fewer (possibly zero) tokens and degrade toward inline execution;
* no region ever blocks waiting for a token, so nesting cannot deadlock;
* results are collected *by task index*, and every task runs exactly
  once, so outputs are independent of which worker ran what.

Failure semantics: a *parallel* region runs every task to completion
even if one fails (no straggler is left running when the caller sees the
error), then re-raises the error of the lowest-indexed failing task —
the same exception a serial run would surface first — with every sibling
failure chained onto it via ``__context__``/notes.  Inline execution
(the serial backend, or a region that found no free tokens) fails fast.

Fault tolerance (:mod:`repro.exec.faults`): ``run_calls`` regions retry
crash-class failures (worker death, broken pools, timeouts, injected
kills) under a :class:`~repro.exec.faults.RetryPolicy`; the process
backend kills hung workers and rebuilds broken pools.  Ordinary task
exceptions keep fail-fast-per-task semantics.

Selection
---------
:func:`get_backend` / :func:`set_backend` / :func:`use_backend`, else
the ``exec_backend`` and ``exec_workers`` settings of
:mod:`repro.config`.

Fork safety: all pools (and the budget) are keyed to the creating
process id and lazily rebuilt when first used from a forked child, so a
child never touches a dead inherited pool; ``shutdown()`` is idempotent
on every backend.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import os
import pickle
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from contextlib import contextmanager
from typing import Any, Callable, ClassVar, Iterator, Sequence, TypeVar

from repro.config import get_config, set_config
from repro.exceptions import TaskFailedError, ValidationError
from repro.exec.budget import WorkerBudget
from repro.exec.faults import (
    RetryPolicy,
    TaskTimeoutError,
    call_with_faults,
    default_retry_policy,
    get_fault_injector,
    is_crash_failure,
    next_region_id,
)

__all__ = [
    "ExecBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "get_worker_budget",
    "set_worker_budget",
]

T = TypeVar("T")


def _invoke(fn: Callable[..., T], args: tuple) -> T:
    """Inline submit target: run ``fn(*args)`` on the calling thread."""
    return fn(*args)


def _raise_region_errors(errors: dict[int, Exception]) -> None:
    """Serial semantics, nothing discarded: raise the lowest-indexed
    failure, with every sibling failure chained via ``__context__`` and
    summarized in exception notes so multi-failure regions debug whole.
    """
    primary = errors[min(errors)]
    siblings = tuple(errors[i] for i in sorted(errors) if errors[i] is not primary)
    primary.sibling_errors = siblings
    if siblings and hasattr(primary, "add_note"):  # Python >= 3.11
        primary.add_note(
            f"{len(siblings)} sibling task(s) of this parallel region also "
            "failed (chained via __context__):"
        )
        for i in sorted(errors):
            if errors[i] is not primary:
                primary.add_note(f"  task {i}: {type(errors[i]).__name__}: {errors[i]}")
    # Append the siblings to the tail of the primary's context chain,
    # skipping anything already present (cycles would hang traceback
    # printing).
    seen: set[int] = set()
    tail = primary
    while tail.__context__ is not None and id(tail) not in seen:
        seen.add(id(tail))
        tail = tail.__context__
    seen.add(id(tail))
    for sibling in siblings:
        if id(sibling) in seen:
            continue
        tail.__context__ = sibling
        seen.add(id(sibling))
        tail = sibling
    raise primary


class _FaultContext:
    """Per-region retry/injection state shared by every backend.

    One instance per ``run_calls`` region: resolves the effective
    :class:`RetryPolicy`, captures the active fault injector (so a
    region sees one consistent injector even if tests swap it
    mid-flight), names the region for deterministic jitter/chaos, and
    owns the retry loop that every execution lane funnels through.
    """

    __slots__ = ("fn", "policy", "stats", "retry_args", "injector", "region")

    def __init__(self, fn, *, retry=None, faults=None, retry_args=None):
        self.fn = fn
        self.policy = retry if retry is not None else default_retry_policy()
        self.stats = faults
        self.retry_args = retry_args
        self.injector = get_fault_injector()
        name = getattr(fn, "__name__", type(fn).__name__)
        self.region = f"{name}#{next_region_id()}"

    def bump(self, field: str, n: int = 1) -> None:
        if self.stats is not None:
            self.stats.bump(field, n)

    def task(self, index: int, args: tuple, attempt: int) -> tuple[Callable, tuple]:
        """The (callable, args) actually submitted for one attempt."""
        if self.injector is None:
            return self.fn, args
        return (
            call_with_faults,
            (self.injector, self.region, index, attempt, self.fn) + args,
        )

    def next_args(self, index: int, attempt: int, exc: Exception, args: tuple) -> tuple:
        """Arguments for a retry: lineage-recovered if the caller gave a
        ``retry_args`` hook (the MapReduce runtime does), else unchanged."""
        if self.retry_args is None:
            return args
        return tuple(self.retry_args(index, attempt, exc))

    def record_crash(self, exc: Exception) -> None:
        # Timeouts are already counted at the submit site that killed
        # the worker; count everything else as a crash.
        if not isinstance(exc, TaskTimeoutError):
            self.bump("crashes")

    def task_failed(self, index: int, attempt: int, exc: Exception) -> TaskFailedError:
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return TaskFailedError(
            f"task {index} of region {self.region!r} failed after "
            f"{attempt + 1} attempt(s); last failure: "
            f"{type(exc).__name__}: {exc}\n"
            f"--- original traceback ---\n{tb}",
            task_index=index,
            attempts=attempt + 1,
            original_traceback=tb,
        )

    def run(
        self,
        index: int,
        args: tuple,
        submit: Callable[[Callable, tuple], T],
    ) -> T:
        """Run task ``index`` to completion under the retry policy.

        ``submit`` executes one attempt (inline, on a thread lane, or on
        a process pool) and raises whatever the attempt raised.  Only
        crash-class failures are retried; task bugs propagate unwrapped.
        """
        args = tuple(args)
        attempt = 0
        while True:
            task_fn, task_args = self.task(index, args, attempt)
            try:
                return submit(task_fn, task_args)
            except Exception as exc:  # noqa: BLE001 - classified below
                if not is_crash_failure(exc):
                    raise
                self.record_crash(exc)
                if attempt >= self.policy.max_task_retries:
                    raise self.task_failed(index, attempt, exc) from exc
                attempt += 1
                self.bump("retries")
                delay = self.policy.backoff(self.region, index, attempt)
                if delay > 0:
                    time.sleep(delay)
                args = self.next_args(index, attempt, exc, args)


class ExecBackend(abc.ABC):
    """Strategy deciding *where* the tasks of a parallel region execute.

    Two task flavors, because they have different shipping constraints:

    * :meth:`run_tasks` / :meth:`iter_tasks` take zero-argument callables
      that share memory with the caller (the engine's chunk closures,
      which write into preallocated output arrays).  These never cross a
      process boundary on any backend.
    * :meth:`run_calls` takes one module-level function plus per-task
      argument tuples — the picklable form the MapReduce runtime uses —
      and is what :class:`ProcessBackend` ships to worker processes.

    ``parallelism`` is the *request* (a layer's configured worker count);
    the shared budget is the *grant*.  Effective concurrency is
    ``min(parallelism, n_tasks, tokens available + 1)``.

    Parameters
    ----------
    budget:
        Token pool to draw from.  ``None`` (the default) uses the
        process-wide budget (:func:`get_worker_budget`), which is what
        makes engine-inside-MR nesting share one limit.
    """

    name: ClassVar[str] = "abstract"

    #: Whether :meth:`run_calls` may execute tasks in another OS process
    #: (drives the data plane's transport decision: only then is there a
    #: pickle boundary worth replacing with shared-memory descriptors).
    crosses_processes: ClassVar[bool] = False

    def __init__(self, budget: WorkerBudget | None = None):
        self._budget = budget
        _live_backends.add(self)

    def _reset_locks_in_child(self) -> None:
        """Replace internal locks after a fork (child-side, single-threaded)."""

    @property
    def budget(self) -> WorkerBudget:
        """The token pool this backend schedules against."""
        return self._budget if self._budget is not None else get_worker_budget()

    # -- the three scheduling entry points ------------------------------
    @abc.abstractmethod
    def run_tasks(
        self, tasks: Sequence[Callable[[], T]], *, parallelism: int | None = None
    ) -> list[T]:
        """Run shared-memory tasks; return their results in task order."""

    @abc.abstractmethod
    def iter_tasks(
        self, tasks: Sequence[Callable[[], T]], *, parallelism: int | None = None
    ) -> Iterator[T]:
        """Yield task results *in task order*, keeping only a bounded
        number of undelivered results alive (streaming reductions)."""

    def run_calls(
        self,
        fn: Callable[..., T],
        calls: Sequence[tuple],
        *,
        parallelism: int | None = None,
        retry: RetryPolicy | None = None,
        faults: Any = None,
        retry_args: Callable[[int, int, Exception], tuple] | None = None,
    ) -> list[T]:
        """Run ``fn(*args)`` for each argument tuple; results in order.

        The portable entry point: ``fn`` must be a module-level callable
        and, for the process backend to ship it, ``(fn, args)`` and the
        return value must be picklable.

        Fault tolerance: crash-class failures of a task are retried
        under ``retry`` (default: :func:`default_retry_policy`), counted
        into ``faults`` (a :class:`~repro.exec.faults.FaultStats`), with
        ``retry_args(index, attempt, exc)`` — if given — rebuilding the
        task's argument tuple before each retry (lineage recovery).
        """
        ctx = _FaultContext(fn, retry=retry, faults=faults, retry_args=retry_args)
        tasks = [
            functools.partial(ctx.run, i, tuple(args), _invoke)
            for i, args in enumerate(calls)
        ]
        return self.run_tasks(tasks, parallelism=parallelism)

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Release any pools (idempotent; pools rebuild lazily on use)."""

    def __enter__(self) -> "ExecBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _effective(self, n_tasks: int, parallelism: int | None) -> int:
        if parallelism is None:
            parallelism = self.budget.limit
        if parallelism < 1:
            raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
        return min(parallelism, n_tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(budget={self.budget!r})"


class SerialBackend(ExecBackend):
    """Everything inline on the calling thread — the reference schedule."""

    name: ClassVar[str] = "serial"

    def run_tasks(self, tasks, *, parallelism=None):
        return [task() for task in tasks]

    def iter_tasks(self, tasks, *, parallelism=None):
        for task in tasks:
            yield task()

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
        ctx = _FaultContext(fn, retry=retry, faults=faults, retry_args=retry_args)
        return [ctx.run(i, tuple(args), _invoke) for i, args in enumerate(calls)]


class ThreadBackend(ExecBackend):
    """Work-sharing thread scheduler over one shared, fork-safe pool."""

    name: ClassVar[str] = "thread"

    def __init__(self, budget: WorkerBudget | None = None):
        super().__init__(budget)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        self._pool_pid = 0
        self._pool_lock = threading.Lock()

    def _reset_locks_in_child(self) -> None:
        self._pool_lock = threading.Lock()
        self._pool = None  # parent's threads do not exist in this process
        self._pool_size = 0

    # -- pool management ------------------------------------------------
    def _get_thread_pool(self) -> ThreadPoolExecutor:
        size = max(1, self.budget.limit - 1)
        with self._pool_lock:
            if (
                self._pool is None
                or self._pool_pid != os.getpid()
                or self._pool_size < size
            ):
                # Replace, never shut down, the previous pool here: a live
                # region (e.g. a streaming iter_tasks consumer) may still
                # be submitting to it. An outgrown pool finishes its
                # in-flight work and is collected when the last reference
                # drops; an inherited pre-fork pool is simply dropped
                # (its threads do not exist in this process).
                self._pool = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-exec"
                )
                self._pool_size = size
                self._pool_pid = os.getpid()
            return self._pool

    def shutdown(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                if self._pool_pid == os.getpid():
                    self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_size = 0

    # -- scheduling core ------------------------------------------------
    def _schedule(
        self,
        units: Sequence[Any],
        exec_inline: Callable[[Any], T],
        exec_lane: Callable[[Any], T],
        parallelism: int | None,
    ) -> list[T]:
        """Work-sharing region: caller + one lane per acquired token.

        ``exec_inline`` runs a unit on the calling thread, ``exec_lane``
        on a borrowed worker; both must produce identical results (the
        thread backend passes the same callable for both).
        """
        n = len(units)
        results: list[Any] = [None] * n
        if n == 0:
            return results
        limit = self._effective(n, parallelism)
        got = self.budget.try_acquire(limit - 1) if limit > 1 else 0
        if got == 0:
            for i, unit in enumerate(units):
                results[i] = exec_inline(unit)
            return results

        errors: dict[int, Exception] = {}
        lock = threading.Lock()
        next_index = 0
        stop = False

        def claim() -> int | None:
            nonlocal next_index
            with lock:
                if stop or next_index >= n:
                    return None
                i = next_index
                next_index += 1
                return i

        def drain(exec_one: Callable[[Any], T]) -> None:
            while True:
                i = claim()
                if i is None:
                    return
                try:
                    results[i] = exec_one(units[i])
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    with lock:
                        errors[i] = exc

        pool = self._get_thread_pool()
        lanes = [pool.submit(drain, exec_lane) for _ in range(got)]
        try:
            drain(exec_inline)
            for lane in lanes:
                lane.result()
        except BaseException:
            # KeyboardInterrupt & co. must surface *immediately* — but
            # not before the lanes stop claiming work and settle, so no
            # straggler is still mutating caller state afterwards.
            with lock:
                stop = True
            for lane in lanes:
                try:
                    lane.result()
                except BaseException:  # noqa: BLE001 - the interrupt wins
                    pass
            raise
        finally:
            self.budget.release(got)
        if errors:
            # Serial semantics: the lowest-indexed failure wins, and it
            # is raised only after every task of the region has finished
            # — with the sibling failures chained, not discarded.
            _raise_region_errors(errors)
        return results

    def run_tasks(self, tasks, *, parallelism=None):
        call = lambda task: task()  # noqa: E731
        return self._schedule(list(tasks), call, call, parallelism)

    def iter_tasks(self, tasks, *, parallelism=None):
        tasks = list(tasks)
        n = len(tasks)
        if n == 0:
            return
        limit = self._effective(n, parallelism)
        got = self.budget.try_acquire(limit - 1) if limit > 1 else 0
        if got == 0:
            for task in tasks:
                yield task()
            return
        pool = self._get_thread_pool()
        pending: deque = deque()
        try:
            for task in tasks:
                while len(pending) >= got:
                    yield pending.popleft().result()
                pending.append(pool.submit(task))
            while pending:
                yield pending.popleft().result()
        finally:
            # On error or abandoned iteration, no task may outlive the
            # generator: cancel what never started, wait out the rest.
            for fut in pending:
                fut.cancel()
            for fut in pending:
                if not fut.cancelled():
                    try:
                        fut.result()
                    except BaseException:  # noqa: BLE001 - primary error wins
                        pass
            self.budget.release(got)


def _process_worker_init(chunk_bytes: int) -> None:
    """Runs once inside every worker process of a :class:`ProcessBackend`.

    Children are leaf executors: a serial-leaf config (serial backend,
    one worker, no chaos), a serial backend, a one-token budget and a
    serial engine, so nested parallelism cannot oversubscribe the
    machine behind the parent scheduler's back.  The engine keeps the
    parent's chunk budget — chunking changes GEMM blocking and therefore
    low-order float bits, so it must match the parent for the
    bit-identical-across-backends contract to hold.
    """
    # Injection is a *driver* decision, shipped inside the task tuple
    # (call_with_faults).  A worker must never arm its own chaos injector
    # from an inherited setting, or retried attempts would re-inject.
    set_config(
        dataclasses.replace(
            get_config(), exec_backend="serial", exec_workers=1, faults_chaos=False
        )
    )
    set_worker_budget(WorkerBudget(1))
    set_backend(SerialBackend())
    from repro.linalg.engine import Engine, set_engine

    set_engine(Engine(workers=1, chunk_bytes=chunk_bytes))


def _noop() -> None:
    """Priming task: forces a pool to fork + initialize its worker *now*."""
    return None


#: Serializes worker forks against driver-side shared-memory traffic.
#: A fork taken while another thread holds the multiprocessing resource
#: tracker's lock (every SharedMemory create/close registers through it)
#: leaves the child's copy of that lock held forever — the worker then
#: deadlocks at its *first* shm attach and its future never resolves.
#: _prime_pool holds this around the priming forks; lineage recovery
#: (the one codepath that creates segments from lane threads) holds it
#: around its state installs.
_FORK_LOCK = threading.Lock()


def _prime_pool(pool: ProcessPoolExecutor, n_workers: int = 1) -> None:
    """Fork a pool's workers eagerly, from the calling (driver) thread.

    ``ProcessPoolExecutor`` forks workers lazily at submit time.  Under
    the fault-tolerant scheduler, first submits happen from lane threads
    racing a retired pool's queue feeders and driver-side shared-memory
    registration (lineage recovery installs recomputed state from lane
    threads); a child forked at the wrong instant inherits a *held*
    queue or resource-tracker lock and deadlocks inside its first task —
    the future simply never resolves.  Priming at a region boundary
    (no lanes running, feeders parked in condition-wait) makes every
    fork happen at a provably quiescent moment.
    """
    with _FORK_LOCK:
        for fut in [pool.submit(_noop) for _ in range(max(1, n_workers))]:
            fut.result()


class ProcessBackend(ThreadBackend):
    """Thread scheduling for shared-memory tasks, processes for portable ones.

    :meth:`run_tasks` / :meth:`iter_tasks` (the engine's chunk closures,
    which write into the caller's arrays) inherit the thread scheduler —
    a child process could not see those writes, and the chunk bodies are
    GIL-releasing BLAS anyway.  :meth:`run_calls` — the MapReduce map
    tasks — is shipped to a ``ProcessPoolExecutor``, which also
    parallelizes pure-Python mapper bodies.

    A region's calls are preflighted with :mod:`pickle` once; if the job
    is not picklable (tests and ad-hoc scripts love locally-defined
    mappers), the whole region silently degrades to the thread scheduler,
    which is always semantically equivalent.

    Workers start with ``fork`` where the platform has it (cheapest,
    inherits loaded NumPy), else with the platform's default method.

    Parameters
    ----------
    budget:
        See :class:`ExecBackend`.
    """

    name: ClassVar[str] = "process"
    crosses_processes: ClassVar[bool] = True

    def __init__(self, budget: WorkerBudget | None = None):
        super().__init__(budget)
        self._proc_pool: ProcessPoolExecutor | None = None
        self._proc_pid = 0
        self._proc_lock = threading.Lock()

    def _reset_locks_in_child(self) -> None:
        super()._reset_locks_in_child()
        self._proc_lock = threading.Lock()
        self._proc_pool = None  # parent's workers are not this child's

    @staticmethod
    def _mp_context():
        import multiprocessing as mp

        return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)

    def _get_process_pool(self) -> ProcessPoolExecutor:
        with self._proc_lock:
            if self._proc_pool is None or self._proc_pid != os.getpid():
                # A pool inherited through fork is dead in the child;
                # drop the reference and build a fresh one lazily.
                from repro.linalg.engine import get_engine

                n_workers = max(1, self.budget.limit - 1)
                self._proc_pool = ProcessPoolExecutor(
                    max_workers=n_workers,
                    mp_context=self._mp_context(),
                    initializer=_process_worker_init,
                    initargs=(get_engine().chunk_bytes,),
                )
                self._proc_pid = os.getpid()
                _prime_pool(self._proc_pool, n_workers)
            return self._proc_pool

    def shutdown(self) -> None:
        with self._proc_lock:
            if self._proc_pool is not None:
                if self._proc_pid == os.getpid():
                    self._proc_pool.shutdown(wait=True)
                self._proc_pool = None
        super().shutdown()

    @staticmethod
    def _portable(fn: Callable, first_call: tuple) -> bool:
        """Can this region cross a process boundary at all?"""
        try:
            pickle.dumps((fn, first_call), protocol=pickle.HIGHEST_PROTOCOL)
            return True
        except Exception:  # noqa: BLE001 - any serialization failure
            return False

    # -- crash handling --------------------------------------------------
    @staticmethod
    def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool's worker processes (hung workers never exit
        on their own) and tear the pool down without waiting."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _invalidate_shared_pool(
        self, pool: ProcessPoolExecutor, ctx: _FaultContext, *, kill: bool
    ) -> None:
        """Retire a broken/hung shared pool; the next use rebuilds lazily."""
        with self._proc_lock:
            if self._proc_pool is pool:
                self._proc_pool = None
                ctx.bump("pool_rebuilds")
        if kill:
            self._kill_pool_workers(pool)
        else:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit_shared(
        self, task_fn: Callable, task_args: tuple, ctx: _FaultContext
    ):
        """One attempt on the shared pool, with timeout + crash teardown."""
        pool = self._get_process_pool()
        try:
            fut = pool.submit(task_fn, *task_args)
        except Exception as exc:  # noqa: BLE001 - classified below
            # submit() itself raises once the pool is broken; retire it
            # so the retry builds a fresh fleet.
            self._invalidate_shared_pool(pool, ctx, kill=False)
            if isinstance(exc, RuntimeError) and not is_crash_failure(exc):
                raise TaskTimeoutError(f"process pool unusable: {exc}") from exc
            raise
        timeout = ctx.policy.task_timeout_s
        try:
            return fut.result(timeout)
        except (_FuturesTimeout, TimeoutError):
            ctx.bump("timeouts")
            self._invalidate_shared_pool(pool, ctx, kill=True)
            raise TaskTimeoutError(
                f"task exceeded task_timeout_s={timeout}s on the shared pool"
            ) from None
        except Exception as exc:  # noqa: BLE001 - classified below
            if is_crash_failure(exc):
                self._invalidate_shared_pool(pool, ctx, kill=False)
            raise

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
        if self._effective(n, parallelism) <= 1:
            ctx = _FaultContext(fn, retry=retry, faults=faults, retry_args=retry_args)
            return [ctx.run(i, args, _invoke) for i, args in enumerate(calls)]
        if not self._portable(fn, calls[0]):
            return super().run_calls(
                fn,
                calls,
                parallelism=parallelism,
                retry=retry,
                faults=faults,
                retry_args=retry_args,
            )
        ctx = _FaultContext(fn, retry=retry, faults=faults, retry_args=retry_args)
        self._get_process_pool()  # build the fleet before the lanes race

        def exec_inline(unit: tuple):
            i, args = unit
            return ctx.run(i, args, _invoke)

        def exec_lane(unit: tuple):
            i, args = unit
            return ctx.run(
                i, args, lambda task_fn, task_args: self._submit_shared(
                    task_fn, task_args, ctx
                )
            )

        return self._schedule(list(enumerate(calls)), exec_inline, exec_lane, parallelism)


#: Name -> class registry used by :func:`resolve_backend` and the CLI.
BACKENDS: dict[str, type[ExecBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


# ----------------------------------------------------------------------
# Process-wide current backend and budget.

_state_lock = threading.Lock()
_current_backend: ExecBackend | None = None
_current_budget: WorkerBudget | None = None

#: Live backends, so a forked child can be handed fresh (unheld) locks.
_live_backends: "weakref.WeakSet[ExecBackend]" = weakref.WeakSet()


def _reset_backends_after_fork_in_child() -> None:
    # A fork can happen while another parent thread holds the registry
    # lock or a backend's pool lock (the process backend's workers fork
    # lazily at first dispatch, possibly while sibling threads run
    # get_backend()). The child is single-threaded here, so handing it
    # fresh locks is safe — and necessary, or its initializer would
    # deadlock on a lock the parent never releases in this copy.
    global _state_lock
    _state_lock = threading.Lock()
    for backend in list(_live_backends):
        backend._reset_locks_in_child()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_backends_after_fork_in_child)


def get_worker_budget() -> WorkerBudget:
    """The process-wide token pool all default-budget backends share."""
    global _current_budget
    with _state_lock:
        if _current_budget is None:
            _current_budget = WorkerBudget()
        return _current_budget


def set_worker_budget(budget: WorkerBudget | int | None) -> WorkerBudget | None:
    """Install the process-wide budget; returns the previous one.

    Accepts a :class:`~repro.exec.budget.WorkerBudget`, a bare limit, or
    ``None`` to reset to the configured default on next use.
    """
    global _current_budget
    if isinstance(budget, int):
        budget = WorkerBudget(budget)
    with _state_lock:
        previous = _current_budget
        _current_budget = budget
    return previous


def resolve_backend(spec: ExecBackend | str | None = None) -> ExecBackend:
    """Coerce a backend spec into an instance.

    ``None`` takes ``exec_backend`` from :func:`repro.config.get_config`
    (default ``"thread"``); a string is looked up in :data:`BACKENDS`;
    an instance passes through.
    """
    if isinstance(spec, ExecBackend):
        return spec
    if spec is None:
        spec = get_config().exec_backend
    if spec not in BACKENDS:
        raise ValidationError(
            f"unknown execution backend {spec!r}; expected one of "
            f"{sorted(BACKENDS)} (via set_backend(), $REPRO_EXEC_BACKEND, or --backend)"
        )
    return BACKENDS[spec]()


def get_backend() -> ExecBackend:
    """The backend every parallel region currently routes through."""
    global _current_backend
    with _state_lock:
        if _current_backend is None:
            _current_backend = resolve_backend(None)
        return _current_backend


def set_backend(backend: ExecBackend | str | None) -> ExecBackend | None:
    """Install a backend process-wide; returns the previous one.

    ``None`` resets to the configured default on next use.
    """
    global _current_backend
    resolved = None if backend is None else resolve_backend(backend)
    with _state_lock:
        previous = _current_backend
        _current_backend = resolved
    return previous


@contextmanager
def use_backend(
    backend: ExecBackend | str | None = None,
    *,
    budget: WorkerBudget | int | None = None,
) -> Iterator[ExecBackend]:
    """Scoped backend (and optionally budget) override.

    ::

        with use_backend("process"):
            report = mr_scalable_kmeans(X, 64, l=128.0, workers=4)

    A backend the scope itself constructed (name or ``None`` spec) is
    shut down on exit; a caller-provided instance is left running.
    """
    owns = not isinstance(backend, ExecBackend)
    resolved = resolve_backend(backend)  # validate before touching globals
    previous_budget: WorkerBudget | None = None
    if budget is not None:
        previous_budget = set_worker_budget(budget)
    previous = set_backend(resolved)
    try:
        yield resolved
    finally:
        set_backend(previous)
        if owns:
            resolved.shutdown()
        if budget is not None:
            set_worker_budget(previous_budget)
