#!/usr/bin/env python
"""Kernel-performance entry point: run the core benches, emit BENCH_core.json.

Runs ``bench_core_ops.py`` (kernel micro-benchmarks) and
``bench_lloyd_accel.py`` (accelerated vs reference Lloyd at n=100k)
under pytest-benchmark and condenses the results into one
machine-readable file, so successive PRs have a perf trajectory to
regress against::

    PYTHONPATH=src python benchmarks/run_bench.py                 # serial
    PYTHONPATH=src python benchmarks/run_bench.py --workers 4     # threaded engine
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # core ops only

Output (default ``benchmarks/results/BENCH_core.json``)::

    {
      "meta": {"numpy": "...", "engine_workers": 4, ...},
      "benchmarks": {
        "test_assign_labels": {"mean_s": ..., "stddev_s": ..., ...},
        ...
      }
    }

Every run also refreshes ``benchmarks/results/BENCH_summary.json``: one
consolidated file aggregating *all* ``BENCH_*.json`` results (name,
config, headline metrics per bench) so the perf trajectory across the
whole suite is machine-readable in one place.  ``--summary-only``
rebuilds just that file without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
RESULTS = HERE / "results"
DEFAULT_OUT = RESULTS / "BENCH_core.json"
SUMMARY = RESULTS / "BENCH_summary.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count (sets REPRO_EXEC_WORKERS for the run)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="only run the kernel micro-benchmarks (skip the n=100k Lloyd sweep)",
    )
    parser.add_argument(
        "--summary-only", action="store_true",
        help="just rebuild BENCH_summary.json from existing BENCH_*.json files",
    )
    return parser


def condense(raw: dict, *, workers: int | None) -> dict:
    """Strip a pytest-benchmark JSON dump down to the regression signal."""
    import numpy

    benches = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        benches[bench["name"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
            **{k: v for k, v in bench.get("extra_info", {}).items()},
        }
    return {
        "meta": {
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "engine_workers": workers
            or int(os.environ.get("REPRO_EXEC_WORKERS", "0") or 0)
            or 1,
        },
        "benchmarks": benches,
    }


# Preferred headline metric per result row, first match wins; rows with
# none of these fall back to their shallow numeric fields.
_HEADLINE_KEYS = (
    "speedup",
    "rss_ratio",
    "qps",
    "p99_ms",
    "mean_s",
    "wall_s",
    "overhead_vs_faultfree",
    "total_ipc_bytes",
    "broadcast_bytes_sent",
    "peak_over_budget",
)


def _headline(payload: dict) -> dict:
    """Flatten one bench payload to ``section/entry/metric: value`` rows."""
    out: dict[str, float] = {}
    for section, value in payload.items():
        if section == "meta":
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[section] = value
            continue
        if not isinstance(value, dict):
            continue
        for entry, metrics in value.items():
            if isinstance(metrics, (int, float)) and not isinstance(metrics, bool):
                out[f"{section}/{entry}"] = metrics
                continue
            if not isinstance(metrics, dict):
                continue
            for key in _HEADLINE_KEYS:
                if isinstance(metrics.get(key), (int, float)):
                    out[f"{section}/{entry}/{key}"] = metrics[key]
                    break
            else:
                for key, metric in metrics.items():
                    if isinstance(metric, (int, float)) and not isinstance(
                        metric, bool
                    ):
                        out[f"{section}/{entry}/{key}"] = metric
    return out


def summarize(results_dir: pathlib.Path = RESULTS) -> dict:
    """Aggregate every ``BENCH_*.json`` into one machine-readable file."""
    summary: dict[str, dict] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == SUMMARY.name:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            summary[path.stem.removeprefix("BENCH_")] = {"error": str(exc)}
            continue
        summary[path.stem.removeprefix("BENCH_")] = {
            "file": path.name,
            "config": payload.get("meta", {}),
            "headline": _headline(payload),
        }
    return {"benches": summary}


def write_summary() -> int:
    result = summarize()
    SUMMARY.parent.mkdir(parents=True, exist_ok=True)
    SUMMARY.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    n = len(result["benches"])
    print(f"wrote {SUMMARY} ({n} bench files aggregated)")
    return n


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.summary_only:
        write_summary()
        return 0
    if args.workers is not None:
        os.environ["REPRO_EXEC_WORKERS"] = str(args.workers)

    import pytest

    targets = [str(HERE / "bench_core_ops.py")]
    if not args.quick:
        targets.append(str(HERE / "bench_lloyd_accel.py"))

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "bench.json"
        code = pytest.main(
            [
                *targets,
                "--benchmark-only",
                f"--benchmark-json={raw_path}",
                "-q",
                "-p", "no:cacheprovider",
            ]
        )
        if code != 0:
            print(f"benchmark run failed (pytest exit {code})", file=sys.stderr)
            return int(code)
        raw = json.loads(raw_path.read_text(encoding="utf-8"))

    result = condense(raw, workers=args.workers)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out} ({len(result['benchmarks'])} benchmarks)")
    write_summary()
    return 0


if __name__ == "__main__":
    sys.exit(main())
