"""Fault-tolerance policy, telemetry, and injection for the exec layer.

Workers die.  At the scale the paper targets, a MapReduce run that
cannot survive a lost worker is a toy — so every :meth:`run_calls`
region schedules under a :class:`RetryPolicy`: *crash-class* failures
(a worker process dying, a broken pool, a task timeout, an injected
kill) are retried with exponential backoff and deterministic jitter,
while ordinary task exceptions (a mapper raising ``ValueError``) keep
their fail-fast semantics — a bug is a bug, retrying it is noise.

Determinism is the point, not an afterthought.  Retried tasks re-run
from reconstructed inputs (the MapReduce runtime rebuilds RNGs from
pre-dispatch pickles and recomputes lost split state from lineage), so
a run that lost three workers produces output bit-identical to a serial
run that lost none.  The chaos suite pins this down.

:class:`FaultInjector` is the test/benchmark hook: installed process
wide (:func:`set_fault_injector`) or via ``REPRO_FAULTS_CHAOS=1``, it
gets a callback before and after every task attempt and may kill the
worker.  :class:`ChaosInjector` is the shipped implementation —
deterministic per (seed, region, task, point), firing only on first
attempts so any retry budget >= 1 converges.

The retry count, the task timeout and ambient chaos are settings of
:mod:`repro.config`.
"""

from __future__ import annotations

import abc
import itertools
import os
import threading
import zlib
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import dataclass

from repro.config import get_config
from repro.exceptions import ValidationError

__all__ = [
    "RetryPolicy",
    "FaultStats",
    "FaultInjector",
    "ChaosInjector",
    "SimulatedWorkerCrash",
    "TaskTimeoutError",
    "call_with_faults",
    "is_crash_failure",
    "default_retry_policy",
    "get_fault_injector",
    "set_fault_injector",
    "CHAOS_RATE",
    "CHAOS_SEED",
]

#: Kill rate and seed of the injector ``REPRO_FAULTS_CHAOS=1`` arms.
CHAOS_RATE = 0.02
CHAOS_SEED = 0


class SimulatedWorkerCrash(Exception):
    """An injected crash on an execution path with no process to kill.

    A :class:`FaultInjector` running inside a worker process kills the
    worker outright (``os._exit``); on the serial/thread backends and on
    the inline lane there is no worker to kill, so it raises this
    instead.  Crash-class: retried like a real worker death.
    """


class TaskTimeoutError(Exception):
    """A task attempt exceeded :attr:`RetryPolicy.task_timeout_s`.

    Crash-class: the (possibly hung) worker has already been torn down
    when this is raised, and the attempt is retried on a fresh one.
    """


def is_crash_failure(exc: BaseException) -> bool:
    """Is ``exc`` a lost-worker failure (retryable) vs a task bug (not)?"""
    return isinstance(
        exc,
        (
            BrokenExecutor,
            CancelledError,
            SimulatedWorkerCrash,
            TaskTimeoutError,
        ),
    )


# ----------------------------------------------------------------------
# Retry policy.


@dataclass(frozen=True)
class RetryPolicy:
    """How a parallel region responds to crash-class task failures.

    Backoff for attempt ``a`` (1-based) is
    ``min(backoff_max_s, backoff_s * backoff_factor**(a-1))`` scaled by
    a deterministic jitter in ``[0.5, 1.0]`` keyed on (region, task,
    attempt) — reruns of the same schedule sleep the same amounts.
    """

    #: Crash-class retries per task beyond the first attempt; 0 disables.
    max_task_retries: int = 2
    #: Base backoff before the first retry, seconds.
    backoff_s: float = 0.02
    #: Multiplier per further retry.
    backoff_factor: float = 2.0
    #: Backoff ceiling, seconds.
    backoff_max_s: float = 1.0
    #: Per-attempt wall-clock limit for process-backend tasks; ``None``
    #: disables.  On expiry the worker is killed and the task retried.
    task_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValidationError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}"
            )
        if self.backoff_s < 0 or self.backoff_max_s < 0:
            raise ValidationError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValidationError(
                f"task_timeout_s must be > 0 or None, got {self.task_timeout_s}"
            )

    def backoff(self, region: str, index: int, attempt: int) -> float:
        """Deterministic-jitter backoff before retry ``attempt`` (1-based)."""
        if self.backoff_s <= 0:
            return 0.0
        base = min(
            self.backoff_max_s,
            self.backoff_s * self.backoff_factor ** (attempt - 1),
        )
        frac = zlib.crc32(f"{region}:{index}:{attempt}".encode()) / 0xFFFFFFFF
        return base * (0.5 + 0.5 * frac)


def default_retry_policy() -> RetryPolicy:
    """The policy a region runs under when it is given none: the
    ``faults_max_retries`` and ``faults_task_timeout`` settings of
    :func:`repro.config.get_config`."""
    config = get_config()
    return RetryPolicy(
        max_task_retries=config.faults_max_retries,
        task_timeout_s=config.faults_task_timeout,
    )


# ----------------------------------------------------------------------
# Telemetry.


class FaultStats:
    """Thread-safe fault-tolerance counters for one job (or one report).

    Plain integers behind a lock — instances are driver-side only and
    never cross a process boundary (worker deaths are observed, and
    counted, on the driver).
    """

    FIELDS = (
        "retries",
        "crashes",
        "timeouts",
        "pool_rebuilds",
        "state_recomputed_bytes",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, n: int = 1) -> None:
        if field not in self.FIELDS:
            raise ValidationError(f"unknown fault counter {field!r}")
        with self._lock:
            setattr(self, field, getattr(self, field) + int(n))

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{f}={getattr(self, f)}" for f in self.FIELDS)
        return f"FaultStats({inner})"


# ----------------------------------------------------------------------
# Fault injection.


class FaultInjector(abc.ABC):
    """Test/benchmark hook called around every task attempt.

    Implementations must be picklable (they ride the task tuple into
    worker processes) and deterministic if the suite asserting on them
    wants reproducible kills.  ``fire`` may sleep (delay injection),
    raise :class:`SimulatedWorkerCrash` (inline kill), or ``os._exit``
    when running inside a worker process (real kill).
    """

    @abc.abstractmethod
    def fire(self, point: str, region: str, index: int, attempt: int) -> None:
        """Called at ``point`` (``"before"``/``"after"``) of each attempt."""


class ChaosInjector(FaultInjector):
    """Deterministic random kills, keyed on (seed, region, task, point).

    Decisions hash the coordinates (``crc32``), so a given seed kills
    the same tasks at the same points on every run — chaos you can
    bisect.  Fires only on first attempts (``attempt == 0``): retries
    always see clean air, so any retry budget >= 1 converges.  Inside a
    worker process a kill is a real ``os._exit``; on the driver (serial
    backend, thread backend, inline lanes) it raises
    :class:`SimulatedWorkerCrash`.
    """

    def __init__(self, rate: float = 0.05, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"chaos rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        # Captured at construction on the driver: lets fire() distinguish
        # "I am in a worker process" (really exit) from "I am on the
        # driver thread" (raise, so the driver itself survives).
        self.driver_pid = os.getpid()

    def fire(self, point: str, region: str, index: int, attempt: int) -> None:
        if attempt != 0 or self.rate <= 0:
            return
        key = f"{self.seed}:kill:{point}:{region}:{index}"
        if zlib.crc32(key.encode()) / 0xFFFFFFFF < self.rate:
            if os.getpid() != self.driver_pid:
                os._exit(29)
            raise SimulatedWorkerCrash(
                f"chaos killed task {index} of {region!r} at {point!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChaosInjector(rate={self.rate}, seed={self.seed})"


def call_with_faults(
    injector: FaultInjector,
    region: str,
    index: int,
    attempt: int,
    fn,
    *args,
):
    """Run one task attempt under an injector (module-level: picklable)."""
    injector.fire("before", region, index, attempt)
    result = fn(*args)
    injector.fire("after", region, index, attempt)
    return result


_injector_lock = threading.Lock()
_installed_injector: FaultInjector | None = None


def set_fault_injector(injector: FaultInjector | None) -> FaultInjector | None:
    """Install a process-wide injector; returns the previous one.

    ``None`` clears the installed injector, falling back to whatever
    ``REPRO_FAULTS_CHAOS`` configures (usually nothing).
    """
    global _installed_injector
    with _injector_lock:
        previous = _installed_injector
        _installed_injector = injector
    return previous


def get_fault_injector() -> FaultInjector | None:
    """The injector active for new regions (installed wins over config)."""
    injector = _installed_injector
    if injector is None and get_config().faults_chaos:
        injector = ChaosInjector(rate=CHAOS_RATE, seed=CHAOS_SEED)
    return injector


_region_counter = itertools.count()


def next_region_id() -> int:
    """Monotonic region id — makes region names unique and chaos kills
    deterministic per region *position* in a run, not per wall clock."""
    return next(_region_counter)


def reset_region_ids() -> None:
    """Restart region numbering at zero (tests and benchmarks only).

    Region ids are process-global, so a pipeline's chaos schedule
    depends on how many regions ran before it.  Resetting pins the
    schedule to the pipeline's own shape: every replay sees the same
    region names and therefore the same deterministic kills."""
    global _region_counter
    _region_counter = itertools.count()
