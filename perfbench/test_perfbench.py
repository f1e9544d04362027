"""Tests of the benchmark itself: its gate, its spans, and its fast mode.

The fast mode runs every workload at toy sizes through the same code and
correctness gate as a full run, each in a fresh process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gate, metrics
from perfbench.trace import Span, Tracer, coverage, self_times, union_length
from perfbench.workloads import WHY, FitRecord

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
E2E = [name for name, *_ in metrics.END_TO_END]
LAYERS = [name for name, *_ in metrics.PER_LAYER]


def _run(args, cwd=ROOT):
    """``perfbench/run.py`` of the checkout at ``cwd``, without PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def _reference_labels(X, C):
    return ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def test_gate_counts_a_wrong_label_and_a_perturbed_center():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(5, 3)) * 10
    requests = [rng.normal(size=(8, 3)) * 10 for _ in range(4)]
    responses = [(i, 7, _reference_labels(X, centers)) for i, X in enumerate(requests)]
    assert gate.check_responses(requests, responses, {7: centers}, _reference_labels) == 0

    wrong = responses[2][2].copy()
    wrong[3] = (wrong[3] + 1) % 5
    responses[2] = (2, 7, wrong)
    assert gate.check_responses(requests, responses, {7: centers}, _reference_labels) == 1
    # A response from a version nobody published is wrong too.
    assert gate.check_responses(requests, responses[:1], {8: centers}, _reference_labels) == 1

    reference = FitRecord(1.0, centers, seed_cost=10.0, final_cost=9.0)
    assert gate.check_fit(reference, FitRecord(1.0, centers.copy(), 10.0, 9.0)) == 0
    perturbed = centers.copy()
    perturbed[1, 2] = np.nextafter(perturbed[1, 2], np.inf)
    assert gate.check_fit(reference, FitRecord(1.0, perturbed, 10.0, 9.0)) == 1
    assert gate.check_final_model(perturbed, centers) == 1
    assert gate.check_final_model(centers.copy(), centers) == 0
    # Lloyd must not make the seed worse.
    worse = FitRecord(1.0, centers, seed_cost=9.0, final_cost=10.0)
    assert gate.check_fit(worse, worse) == 1


def test_self_time_and_coverage_from_spans():
    root = Span(1, 0, "bench.fit", "bench", 0.0, 10.0, 1, None)
    spans = [
        root,
        Span(2, 1, "core.seed", "core", 0.0, 6.0, 1, None),
        Span(3, 2, "linalg.min_sq_dists", "linalg", 1.0, 4.0, 1, None),
        Span(4, 2, "linalg.min_sq_dists", "linalg", 3.0, 5.0, 1, None),
        Span(5, 1, "core.lloyd", "core", 7.0, 9.0, 1, None),
        Span(6, 0, "serve.request", "serve", 8.5, 9.5, 2, None),  # another thread
    ]
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    selfs = self_times(spans)
    assert selfs["core"] == pytest.approx((6 - 4) + 2)
    assert selfs["linalg"] == pytest.approx(5)
    assert coverage(spans, root) == pytest.approx(6 + 2.5)


def test_tracer_restores_every_wrapped_function():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.mapreduce.jobs.cost_job as cost_job
    import repro.serve.service as service
    from repro.linalg import distances
    from repro.linalg.engine import Engine
    from repro.serve import assign

    before = (cost_job.update_min_sq_dists_argmin, service.assign_serve,
              Engine.run_slices)
    uninstall = Tracer("test").install()
    assert cost_job.update_min_sq_dists_argmin is not distances.update_min_sq_dists_argmin
    assert service.assign_serve is not assign.assign_serve
    uninstall()
    after = (cost_job.update_min_sq_dists_argmin, service.assign_serve,
             Engine.run_slices)
    assert after == before


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == metrics.spec(WHY)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fast_mode_runs_every_workload_through_the_gate(trace):
    proc = _run(["--fast", "--seconds", "0.1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = E2E if trace == "0" else LAYERS
    for workload in WHY:
        values = {
            key.split("/", 1)[1]: v["value"]
            for key, v in result["metrics"].items() if key.startswith(workload + "/")
        }
        assert sorted(values) == sorted(expected)
        if trace == "0":
            assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "inmem-d128", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
