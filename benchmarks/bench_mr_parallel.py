#!/usr/bin/env python
"""MapReduce execution benchmark: wall clock vs. backend x worker count.

The simulated clock models a 2012 Hadoop grid; this bench measures what
the *process itself* does — map(+combine) and reduce tasks execute
concurrently on the selected execution backend (threads or real worker
processes), so the map-heavy phases get faster in real seconds as
``workers`` grows while every reported number (centers, costs, counters,
simulated minutes) stays bit-identical across every backend x worker
combination.

Two measurements per (backend, workers) cell over a GaussMixture
workload:

* ``lloyd``  — a fixed number of MapReduce Lloyd rounds (pure map-phase
  load: one GEMM-heavy assignment pass per split per round);
* ``pipeline`` — the full ``mr_scalable_kmeans`` run (includes the
  sequential driver sections, so speedup is sub-linear by Amdahl).

Results land in ``benchmarks/results/BENCH_exec.json`` (the full
backend x workers matrix) and, for continuity with earlier PRs,
``benchmarks/results/BENCH_mr.json`` (the thread-backend rows)::

    PYTHONPATH=src python benchmarks/bench_mr_parallel.py              # n=100k
    PYTHONPATH=src python benchmarks/bench_mr_parallel.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_mr_parallel.py --backends thread,process
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

HERE = pathlib.Path(__file__).parent
DEFAULT_OUT = HERE / "results" / "BENCH_mr.json"
DEFAULT_EXEC_OUT = HERE / "results" / "BENCH_exec.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="rows (default 100k)")
    parser.add_argument("--d", type=int, default=16, help="dimensions")
    parser.add_argument("--k", type=int, default=64, help="clusters")
    parser.add_argument("--splits", type=int, default=8, help="input splits per job")
    parser.add_argument(
        "--workers", type=str, default="1,2,4",
        help="comma-separated worker counts to sweep (default: 1,2,4)",
    )
    parser.add_argument(
        "--backends", type=str, default="serial,thread,process",
        help="comma-separated execution backends to sweep "
             "(default: serial,thread,process)",
    )
    parser.add_argument(
        "--lloyd-rounds", type=int, default=5,
        help="MR Lloyd rounds for the map-phase measurement (default: 5)",
    )
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--out-exec", type=pathlib.Path, default=DEFAULT_EXEC_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: n=20k, workers 1,2, 2 Lloyd rounds, 1 repetition",
    )
    return parser


def _time_best_of(fn, repeat: int) -> tuple[float, object]:
    """Best wall-clock of ``repeat`` runs plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _lloyd_case(X, centers, *, n_splits: int, workers: int, rounds: int, backend):
    """Fixed-round MR Lloyd: the map-phase-dominated measurement."""
    from repro.mapreduce.jobs.lloyd_job import collect_new_centers, make_lloyd_job
    from repro.mapreduce.runtime import LocalMapReduceRuntime

    with LocalMapReduceRuntime(
        X, n_splits=n_splits, seed=0, workers=workers, backend=backend
    ) as runtime:
        # Exactly ``rounds`` jobs, never an early stop.
        for _ in range(rounds):
            result = runtime.run_job(make_lloyd_job(centers))
            centers, phi = collect_new_centers(result.output, centers)
        return {
            "phi": phi,
            "n_iter": rounds,
            "simulated_minutes": runtime.simulated_minutes,
            "centers": centers,
        }


def _pipeline_case(X, *, k: int, n_splits: int, workers: int, seed: int, backend):
    from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

    report = mr_scalable_kmeans(
        X, k, l=2.0 * k, r=3, n_splits=n_splits, seed=seed,
        lloyd_max_iter=5, workers=workers, backend=backend,
    )
    return {
        "final_cost": report.final_cost,
        "seed_cost": report.seed_cost,
        "simulated_minutes": report.simulated_minutes,
        "centers": report.centers,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.n, args.workers = min(args.n, 20_000), "1,2"
        args.lloyd_rounds, args.repeat = 2, 1
    worker_counts = sorted({int(w) for w in args.workers.split(",")})
    backend_names = [b.strip() for b in args.backends.split(",") if b.strip()]

    import numpy as np

    from repro.data.gauss_mixture import make_gauss_mixture
    from repro.exec import BACKENDS, WorkerBudget

    for name in backend_names:
        if name not in BACKENDS:
            print(f"ERROR: unknown backend {name!r} (expected {sorted(BACKENDS)})",
                  file=sys.stderr)
            return 2

    print(f"generating GaussMixture n={args.n} d={args.d} k={args.k} ...",
          flush=True)
    X = make_gauss_mixture(n=args.n, d=args.d, k=args.k, seed=args.seed).X
    rng = np.random.default_rng(args.seed)
    centers0 = X[rng.choice(args.n, size=args.k, replace=False)].copy()

    # The identical-output contract spans the whole matrix: every
    # (backend, workers) cell is compared against the very first cell.
    results: dict[str, dict] = {}
    reference: dict[str, dict] = {}
    all_identical = True
    for backend_name in backend_names:
        # One backend instance per sweep leg, with a budget big enough
        # that requested workers actually fan out on small CI machines.
        budget = WorkerBudget(max(worker_counts) + 1)
        with BACKENDS[backend_name](budget=budget) as backend:
            for workers in worker_counts:
                entry: dict[str, dict] = {}
                for case, fn in (
                    ("lloyd", lambda w=workers: _lloyd_case(
                        X, centers0, n_splits=args.splits, workers=w,
                        rounds=args.lloyd_rounds, backend=backend)),
                    ("pipeline", lambda w=workers: _pipeline_case(
                        X, k=args.k, n_splits=args.splits, workers=w,
                        seed=args.seed, backend=backend)),
                ):
                    wall_s, value = _time_best_of(fn, args.repeat)
                    centers = value.pop("centers")
                    if case not in reference:
                        reference[case] = {"value": value, "centers": centers}
                        identical = True
                    else:
                        identical = bool(
                            np.array_equal(reference[case]["centers"], centers)
                            and reference[case]["value"] == value
                        )
                    all_identical = all_identical and identical
                    entry[case] = {
                        "wall_s": wall_s,
                        "identical_to_baseline": identical,
                        **value,
                    }
                    print(f"  backend={backend_name:<8} workers={workers} "
                          f"{case:<8} {wall_s:7.3f}s  identical={identical}",
                          flush=True)
                results[f"backend={backend_name}/workers={workers}"] = entry

    first_key = f"backend={backend_names[0]}/workers={worker_counts[0]}"
    base = results[first_key]
    speedup = {
        key: {
            case: base[case]["wall_s"] / cell[case]["wall_s"]
            for case in ("lloyd", "pipeline")
        }
        for key, cell in results.items()
    }
    meta = {
        "n": args.n, "d": args.d, "k": args.k, "n_splits": args.splits,
        "lloyd_rounds": args.lloyd_rounds, "repeat": args.repeat,
        "backends": backend_names,
        "worker_counts": worker_counts,
        "baseline": first_key,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    payload = {
        "meta": meta,
        "results": results,
        "speedup_vs_baseline": speedup,
    }
    args.out_exec.parent.mkdir(parents=True, exist_ok=True)
    args.out_exec.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {args.out_exec}")

    # Continuity file: the thread-backend slice in the pre-exec shape.
    legacy_backend = "thread" if "thread" in backend_names else backend_names[0]
    legacy = {
        f"workers={w}": results[f"backend={legacy_backend}/workers={w}"]
        for w in worker_counts
    }
    legacy_base = legacy[f"workers={worker_counts[0]}"]
    legacy_payload = {
        "meta": {**meta, "backend": legacy_backend,
                 "baseline_workers": worker_counts[0]},
        "results": legacy,
        "speedup_vs_baseline": {
            f"workers={w}": {
                case: legacy_base[case]["wall_s"]
                / legacy[f"workers={w}"][case]["wall_s"]
                for case in ("lloyd", "pipeline")
            }
            for w in worker_counts
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(legacy_payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")

    if (os.cpu_count() or 1) < max(worker_counts):
        print(
            f"note: only {os.cpu_count()} CPU core(s) visible — workers cannot "
            "overlap, so expect speedup <= 1 here; the map phase scales on "
            "multicore hardware (thread backend: GIL-releasing BLAS blocks; "
            "process backend: separate interpreters).",
            flush=True,
        )

    if not all_identical:
        print("ERROR: output varied with backend or worker count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
