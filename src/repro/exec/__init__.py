"""Execution layer: pluggable backends + the global worker budget.

One scheduler for every parallel region in the repository.  The linalg
engine fans kernel row blocks and the MapReduce runtime fans map
tasks through the backend installed here; all of them draw workers from
a single token pool so nested parallelism can neither oversubscribe the
machine nor deadlock.  See :mod:`repro.exec.backends` for the model.

>>> from repro.exec import use_backend
>>> with use_backend("process"):
...     ...  # MR map tasks now run in worker processes
"""

from repro.exec.backends import (
    BACKENDS,
    ExecBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    get_worker_budget,
    resolve_backend,
    set_backend,
    set_worker_budget,
    use_backend,
)
from repro.exec.budget import WorkerBudget
from repro.exec.faults import (
    ChaosInjector,
    FaultInjector,
    FaultStats,
    RetryPolicy,
    SimulatedWorkerCrash,
    TaskTimeoutError,
    default_retry_policy,
    get_fault_injector,
    is_crash_failure,
    reset_region_ids,
    set_fault_injector,
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
    "WorkerBudget",
    "get_worker_budget",
    "set_worker_budget",
    "RetryPolicy",
    "FaultStats",
    "FaultInjector",
    "ChaosInjector",
    "SimulatedWorkerCrash",
    "TaskTimeoutError",
    "is_crash_failure",
    "reset_region_ids",
    "default_retry_policy",
    "get_fault_injector",
    "set_fault_injector",
]
