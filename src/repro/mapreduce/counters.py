"""Hadoop-style counters.

Counters are the standard side-channel MapReduce jobs use for global
aggregates that are too small to deserve a reduce phase — exactly how a
real ``k-means||`` job would track "how many candidates did this round
sample". Grouped, merge-able, and cheap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

__all__ = ["Counters"]


class Counters:
    """A two-level ``group -> name -> integer`` counter map."""

    def __init__(self) -> None:
        self._data: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` (may be negative) to ``group/name``."""
        self._data[group][name] += int(amount)

    def value(self, group: str, name: str) -> int:
        """Current value (0 if never incremented)."""
        return self._data.get(group, {}).get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter map into this one (a map task's, in split order)."""
        for group, names in other._data.items():
            for name, amount in names.items():
                self._data[group][name] += amount

    def groups(self) -> Iterator[str]:
        """Iterate over group names."""
        return iter(self._data)

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Plain-dict snapshot (deep copy) for reports."""
        return {g: dict(names) for g, names in self._data.items()}

    # ------------------------------------------------------------------
    # Counters cross process boundaries under the ``process`` execution
    # backend; the nested defaultdicts (whose factory is a lambda) are
    # not picklable, so serialize a plain-dict snapshot instead.
    def __getstate__(self) -> dict[str, dict[str, int]]:
        return self.as_dict()

    def __setstate__(self, state: dict[str, dict[str, int]]) -> None:
        self.__init__()
        for group, names in state.items():
            for name, amount in names.items():
                self._data[group][name] += amount

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._data.values())
        return f"Counters({len(self._data)} groups, {total} counters)"
