"""Shared fixtures for the benchmark suite.

Every ``bench_table*.py`` / ``bench_figure*.py`` module regenerates one
table or figure of the paper at ``bench`` scale (``bench_ablations.py``
the ablations), times it with pytest-benchmark, prints the rendered
artifact, and archives it under ``benchmarks/results/`` so the output
survives pytest's capture.

Run from the repository root with::

    PYTHONPATH=src pytest benchmarks/ --benchmark-only       # timings + artifacts
    PYTHONPATH=src pytest benchmarks/ --benchmark-only -s    # also print tables live
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Print an ExperimentResult and archive its rendered output."""

    def _record(result):
        text = result.render()
        print()
        print(text)
        (results_dir / f"{result.name}.txt").write_text(text + "\n", encoding="utf-8")
        return result

    return _record


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
