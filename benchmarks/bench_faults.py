#!/usr/bin/env python
"""Fault-tolerance benchmark: recovery overhead vs kill rate.

Runs the full ``mr_scalable_kmeans`` + MR-Lloyd pipeline on the real
process backend (shared broadcasts) under a deterministic
:class:`~repro.exec.ChaosInjector` and measures what surviving random
worker deaths costs: wall clock and fault telemetry (retries, pool
rebuilds, lineage bytes recomputed) at kill rates 0 / 0.05 / 0.20,
against the fault-free run of the same configuration.

Every configuration is checked bit-identical to the serial reference
(the run fails otherwise).  Results land in
``benchmarks/results/BENCH_faults.json``::

    PYTHONPATH=src python benchmarks/bench_faults.py          # n=50k
    PYTHONPATH=src python benchmarks/bench_faults.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import tempfile
import time

HERE = pathlib.Path(__file__).parent
DEFAULT_OUT = HERE / "results" / "BENCH_faults.json"

KILL_RATES = (0.0, 0.05, 0.20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000, help="rows (default 50k)")
    parser.add_argument("--d", type=int, default=8, help="dimensions")
    parser.add_argument("--k", type=int, default=16, help="clusters")
    parser.add_argument("--splits", type=int, default=8, help="input splits")
    parser.add_argument("--rounds", type=int, default=3, help="k-means|| rounds")
    parser.add_argument("--lloyd", type=int, default=4, help="MR Lloyd iterations")
    parser.add_argument("--workers", type=int, default=4, help="MR worker request")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos-seed", type=int, default=11,
                        help="ChaosInjector seed (same seed = same kills)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: n=10k, k=8, 2 Lloyd iterations, 1 repetition",
    )
    return parser


def _pipeline(path, args, *, backend, retry_policy=None):
    from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

    return mr_scalable_kmeans(
        path, args.k, l=2.0 * args.k, r=args.rounds, n_splits=args.splits,
        seed=args.seed, lloyd_max_iter=args.lloyd, workers=args.workers,
        backend=backend, shared_broadcast=True, retry_policy=retry_policy,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.n, args.k, args.lloyd, args.repeat = 10_000, 8, 2, 1

    import numpy as np

    from repro.data.gauss_mixture import make_gauss_mixture
    from repro.exec import (
        ChaosInjector,
        ProcessBackend,
        RetryPolicy,
        SerialBackend,
        WorkerBudget,
        reset_region_ids,
        set_fault_injector,
    )

    # The bench owns injection: a REPRO_FAULTS_CHAOS environment (the CI
    # chaos leg) must not leak into the fault-free baseline legs.
    os.environ.pop("REPRO_FAULTS_CHAOS", None)

    print(f"generating GaussMixture n={args.n} d={args.d} k={args.k} ...",
          flush=True)
    X = make_gauss_mixture(n=args.n, d=args.d, k=args.k, seed=args.seed).X
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-faults-")
    path = os.path.join(tmpdir, "data.npy")
    np.save(path, X)

    reference = _pipeline(path, args, backend=SerialBackend())

    def check(report) -> bool:
        return bool(
            np.array_equal(report.centers, reference.centers)
            and report.final_cost == reference.final_cost
        )

    def timed(injector, retry_policy=None):
        """Best-of-``repeat`` wall clock for one chaos configuration."""
        best, report = float("inf"), None
        for _ in range(args.repeat):
            reset_region_ids()  # same chaos schedule for every repetition
            set_fault_injector(injector)
            backend = ProcessBackend(budget=WorkerBudget(args.workers))
            try:
                start = time.perf_counter()
                report = _pipeline(path, args, backend=backend,
                                   retry_policy=retry_policy)
                best = min(best, time.perf_counter() - start)
            finally:
                backend.shutdown()
                set_fault_injector(None)
        return best, report

    all_identical = True

    # ---- recovery overhead vs kill rate ------------------------------
    policy = RetryPolicy(max_task_retries=3, backoff_s=0.0)
    recovery: dict[str, dict] = {}
    baseline_s = None
    for rate in KILL_RATES:
        injector = (ChaosInjector(rate=rate, seed=args.chaos_seed)
                    if rate > 0 else None)
        wall, report = timed(injector, retry_policy=policy)
        identical = check(report)
        all_identical = all_identical and identical
        if rate == 0.0:
            baseline_s = wall
        overhead = wall / baseline_s - 1.0 if baseline_s else 0.0
        recovery[f"{rate:.2f}"] = {
            "wall_s": wall,
            "overhead_vs_faultfree": overhead,
            "identical_to_serial": identical,
            "faults": report.faults,
        }
        print(f"  kill_rate={rate:.2f}  {wall:7.3f}s  "
              f"overhead={overhead:+6.1%}  retries={report.faults['retries']} "
              f"rebuilds={report.faults['pool_rebuilds']} "
              f"recomputed={report.faults['state_recomputed_bytes']:,}B  "
              f"identical={identical}", flush=True)

    payload = {
        "meta": {
            "n": args.n, "d": args.d, "k": args.k, "n_splits": args.splits,
            "rounds": args.rounds, "lloyd_max_iter": args.lloyd,
            "workers": args.workers, "repeat": args.repeat,
            "chaos_seed": args.chaos_seed,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "recovery": recovery,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", flush=True)
    if not all_identical:
        print("ERROR: some configuration diverged from the serial reference",
              flush=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
