"""Tiny wall-clock timing helper used by the experiment harness.

Real (host) wall-clock time is reported alongside the *simulated* cluster
time produced by :mod:`repro.mapreduce.cluster`; the two must never be
confused, so the simulated model lives elsewhere and this module is
deliberately dumb.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Timer"]


@dataclass
class Timer:
    """Context-manager stopwatch accumulating across multiple ``with`` blocks.

    Examples
    --------
    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _started: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started is not None:
            self.elapsed += time.perf_counter() - self._started
            self._started = None
