#!/usr/bin/env python
"""Data-plane benchmark: per-round IPC bytes + wall clock, shared vs pickle.

Runs the full ``mr_scalable_kmeans`` + MR-Lloyd pipeline over a
memory-mapped dataset and measures the driver↔worker traffic the zero-
copy plane removes, two ways:

* **exact IPC volume** — a metering backend that round-trips every map/
  reduce call and result through ``pickle`` (the faithful stand-in for
  the process boundary) and counts the bytes, per job; the plane's own
  telemetry (publish-once broadcast bytes, shipped vs resident state
  bytes) is recorded alongside;
* **wall clock** — the same pipeline on the real process backend with
  the plane off (legacy pickle path) and on (shared broadcasts +
  resident state).  On a 1-core CI container the
  wall numbers mostly show dispatch overhead; the IPC volumes are
  machine-independent.

Every configuration is checked bit-identical to the serial reference
(the run fails otherwise).  Results land in
``benchmarks/results/BENCH_plane.json``::

    PYTHONPATH=src python benchmarks/bench_plane.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_plane.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import pickle
import platform
import tempfile
import time

HERE = pathlib.Path(__file__).parent
DEFAULT_OUT = HERE / "results" / "BENCH_plane.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="rows (default 100k)")
    parser.add_argument("--d", type=int, default=8, help="dimensions")
    parser.add_argument("--k", type=int, default=32, help="clusters")
    parser.add_argument("--splits", type=int, default=8, help="input splits")
    parser.add_argument("--rounds", type=int, default=3, help="k-means|| rounds")
    parser.add_argument("--lloyd", type=int, default=5, help="MR Lloyd iterations")
    parser.add_argument("--workers", type=int, default=4, help="MR worker request")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: n=20k, k=8, 2 Lloyd iterations, 1 repetition",
    )
    return parser


class _MeteringBackend:
    """Serial backend that pickles every call/result and counts bytes."""

    def __new__(cls):
        from repro.exec import SerialBackend, WorkerBudget

        class Meter(SerialBackend):
            name = "pickle-meter"
            crosses_processes = True

            def __init__(self):
                super().__init__(budget=WorkerBudget(1))
                self.job_bytes: list[int] = []  # one entry per region
                self.total_bytes = 0

            def run_calls(self, fn, calls, *, parallelism=None, **kwargs):
                region = 0
                results = []
                for args in calls:
                    blob = pickle.dumps((fn, tuple(args)), pickle.HIGHEST_PROTOCOL)
                    fn2, args2 = pickle.loads(blob)
                    out = pickle.dumps(fn2(*args2), pickle.HIGHEST_PROTOCOL)
                    region += len(blob) + len(out)
                    results.append(pickle.loads(out))
                self.job_bytes.append(region)
                self.total_bytes += region
                return results

        return Meter()


def _pipeline(path, args, *, backend, shared):
    from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

    return mr_scalable_kmeans(
        path, args.k, l=2.0 * args.k, r=args.rounds, n_splits=args.splits,
        seed=args.seed, lloyd_max_iter=args.lloyd, workers=args.workers,
        backend=backend, shared_broadcast=shared,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.n, args.k, args.lloyd, args.repeat = 20_000, 8, 2, 1

    import numpy as np

    from repro.data.gauss_mixture import make_gauss_mixture
    from repro.exec import ProcessBackend, SerialBackend, WorkerBudget

    print(f"generating GaussMixture n={args.n} d={args.d} k={args.k} ...",
          flush=True)
    X = make_gauss_mixture(n=args.n, d=args.d, k=args.k, seed=args.seed).X
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-plane-")
    path = os.path.join(tmpdir, "data.npy")
    np.save(path, X)

    reference = _pipeline(path, args, backend=SerialBackend(), shared=False)

    def check(report) -> bool:
        return bool(
            np.array_equal(report.centers, reference.centers)
            and report.final_cost == reference.final_cost
        )

    # ---- exact IPC volume, per mode ----------------------------------
    ipc: dict[str, dict] = {}
    for label, shared in (("pickle", False), ("shared", True)):
        meter = _MeteringBackend()
        report = _pipeline(path, args, backend=meter, shared=shared)
        assert check(report), f"IPC run ({label}) diverged from reference"
        per_job = meter.job_bytes
        ipc[label] = {
            "total_ipc_bytes": meter.total_bytes,
            "regions": len(per_job),
            "max_region_bytes": max(per_job),
            "mean_region_bytes": sum(per_job) / len(per_job),
            "plane": report.plane,
        }
        print(f"  ipc[{label:7}] total={meter.total_bytes:>12,}B "
              f"max_region={max(per_job):,}B", flush=True)
    ratio = ipc["pickle"]["total_ipc_bytes"] / max(1, ipc["shared"]["total_ipc_bytes"])
    print(f"  -> plane cuts pipeline IPC by {ratio:.1f}x", flush=True)

    # ---- wall clock on the real process backend ----------------------
    walls: dict[str, dict] = {}
    configs = [
        ("process+pickle", False),
        ("process+shared", True),
    ]
    all_identical = True
    for label, shared in configs:
        best = float("inf")
        report = None
        for _ in range(args.repeat):
            backend = ProcessBackend(budget=WorkerBudget(args.workers))
            try:
                start = time.perf_counter()
                report = _pipeline(path, args, backend=backend, shared=shared)
                best = min(best, time.perf_counter() - start)
            finally:
                backend.shutdown()
        identical = check(report)
        all_identical = all_identical and identical
        walls[label] = {
            "wall_s": best,
            "identical_to_serial": identical,
            "plane": report.plane,
            "simulated_minutes": report.simulated_minutes,
        }
        print(f"  {label:24} {best:7.3f}s  identical={identical}", flush=True)

    payload = {
        "meta": {
            "n": args.n, "d": args.d, "k": args.k, "n_splits": args.splits,
            "rounds": args.rounds, "lloyd_max_iter": args.lloyd,
            "workers": args.workers, "repeat": args.repeat,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "ipc": ipc,
        "ipc_reduction_x": ratio,
        "wall": walls,
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
