"""Paper-vs-measured comparison reports.

Which qualitative claims of the paper hold in the reproduction is
asserted, artifact by artifact, in ``tests/evaluation/test_experiments.py``
(each experiment at ``bench`` scale). This module makes such claims
*checkable objects*: a :class:`ShapeCheck` is a named predicate over an
experiment's ``data``, and :func:`check_shapes` evaluates a battery of
them into outcomes that :func:`render_checks` prints as a pass/fail
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.evaluation.tables import render_table

__all__ = ["ShapeCheck", "CheckOutcome", "check_shapes", "render_checks"]


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim from the paper, as a predicate.

    Attributes
    ----------
    claim:
        Human-readable statement ("km|| seed cost <= km++ at every k").
    source:
        Where the paper makes it ("Table 2", "Section 5.3", ...).
    predicate:
        Callable over the experiment's ``data`` dict returning bool.
    """

    claim: str
    source: str
    predicate: Callable[[dict], bool]


@dataclass(frozen=True)
class CheckOutcome:
    """Result of evaluating one :class:`ShapeCheck`."""

    claim: str
    source: str
    passed: bool
    error: str | None = None


def check_shapes(data: dict, checks: list[ShapeCheck]) -> list[CheckOutcome]:
    """Evaluate every check; predicate exceptions count as failures."""
    outcomes = []
    for check in checks:
        try:
            passed = bool(check.predicate(data))
            error = None
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            passed = False
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(
            CheckOutcome(claim=check.claim, source=check.source,
                         passed=passed, error=error)
        )
    return outcomes


def render_checks(title: str, outcomes: list[CheckOutcome]) -> str:
    """Render outcomes as a fixed-width pass/fail table."""
    rows = [
        [o.claim, o.source, "PASS" if o.passed else "FAIL",
         o.error if o.error else ""]
        for o in outcomes
    ]
    return render_table(title, ["claim", "source", "verdict", "note"], rows)
