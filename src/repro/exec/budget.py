"""The global worker budget: one token pool for every parallel layer.

Before this subsystem existed the linalg engine and the MapReduce
runtime each owned a private thread pool sized by its own ``workers``
knob.  Nesting them (an MR map task whose mapper body fans kernel row
blocks out) multiplied the two counts: 8 map threads x 8 engine threads
oversubscribed a machine 64-fold, and unifying the pools naively would
deadlock (a pool task waiting on tasks of the same bounded pool).

:class:`WorkerBudget` fixes both with one rule: a parallel region may
*borrow* extra workers but must never *wait* for them.

* The budget holds ``limit - 1`` tokens (the calling thread is the
  implicit first worker — it always participates, so a region can make
  progress with zero tokens and no region can deadlock).
* :meth:`try_acquire` is non-blocking and may return fewer tokens than
  asked for, including zero; whatever it returns is the number of
  *additional* workers the region may run on.
* Because every concurrently-executing borrowed worker holds exactly one
  token, total concurrency across arbitrarily nested regions is capped
  at ``limit`` — the scheduler-accounting tests assert this for engine
  chunks running inside MR map tasks.

Fork safety: the pool is keyed to the creating process. A child process
(e.g. a :class:`~repro.exec.backends.ProcessBackend` worker) that
inherits a budget via ``fork`` sees a fresh, fully-released pool instead
of the parent's in-flight accounting.
"""

from __future__ import annotations

import os
import threading
import weakref

from repro.config import get_config
from repro.exceptions import ValidationError

__all__ = ["WorkerBudget", "DEFAULT_BUDGET_FLOOR"]

#: Without ``REPRO_EXEC_WORKERS`` the limit is ``max(cpu_count, floor)``
#: — generous enough that explicitly-requested parallelism still fans
#: out on small CI machines (where the point of the tests is to exercise
#: the parallel code paths), while on real hardware the core count
#: governs.
DEFAULT_BUDGET_FLOOR = 4


class WorkerBudget:
    """A non-blocking token pool bounding total worker concurrency.

    Parameters
    ----------
    limit:
        Maximum number of concurrently-executing workers, *including* the
        calling thread. ``None`` takes ``exec_workers`` from
        :func:`repro.config.get_config`, else ``max(cpu_count, 4)``.
        ``limit=1`` hands out no tokens: every region runs inline on its
        caller.
    """

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = get_config().exec_workers or max(
                os.cpu_count() or 1, DEFAULT_BUDGET_FLOOR
            )
        if limit < 1:
            raise ValidationError(f"budget limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._free = self.limit - 1
        self._pid = os.getpid()
        _live_budgets.add(self)

    def _reset_if_forked(self) -> None:
        # Called under self._lock. A forked child inherits the parent's
        # accounting mid-flight; hand it a fully-released pool instead.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._free = self.limit - 1

    def try_acquire(self, want: int) -> int:
        """Take up to ``want`` tokens without blocking; returns how many.

        May return 0 — the caller then runs its region inline. Never
        waits, which is what makes nested regions deadlock-free.
        """
        if want <= 0:
            return 0
        with self._lock:
            self._reset_if_forked()
            got = min(want, self._free)
            self._free -= got
            return got

    def release(self, n: int) -> None:
        """Return ``n`` previously acquired tokens."""
        if n <= 0:
            return
        with self._lock:
            self._reset_if_forked()
            self._free = min(self._free + n, self.limit - 1)

    @property
    def in_use(self) -> int:
        """Tokens currently held by running regions (0 when idle)."""
        with self._lock:
            self._reset_if_forked()
            return (self.limit - 1) - self._free

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerBudget(limit={self.limit}, in_use={self.in_use})"


#: Live budgets, so a forked child can be handed fresh (unheld) locks.
_live_budgets: "weakref.WeakSet[WorkerBudget]" = weakref.WeakSet()


def _reset_budgets_after_fork_in_child() -> None:
    # A fork can happen while another parent thread holds a budget's
    # lock (the process backend's pool forks lazily at first dispatch);
    # the child would inherit it locked forever. The child is
    # single-threaded at this point, so replacing the locks and releasing
    # all accounting is safe — and correct, since none of the parent's
    # in-flight regions exist here.
    for budget in list(_live_budgets):
        budget._lock = threading.Lock()
        budget._free = budget.limit - 1
        budget._pid = os.getpid()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_budgets_after_fork_in_child)
