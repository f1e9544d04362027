"""End-to-end benchmark of the k-means|| reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py                         # every workload, one after another
    python3 perfbench/run.py --workload mr-process --seed 3 --seconds 15
    python3 perfbench/run.py --workload serve-mixed --trace 1
    python3 perfbench/run.py --fast --seconds 1      # toy sizes, same code and gate
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json

One run of one workload is ``PARTS`` fresh processes, one after another.
Each sets the workload up once, warms it up, and repeats its operation
for its share of ``--seconds``, checking every output; the run pools
their samples.  A process's set-up time is its age at its first timed
repetition, and ``setup_s`` is the median over the parts.  Pooling over
processes matters on a shared host: a process tends to keep one speed
for its whole life, and that speed differs from process to process.

The run prints each metric with its unit and sample count, the
environment, and, as its last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  With ``--trace 1`` every second
repetition runs with spans around each layer's public functions and the
metrics are the per-layer ones; the spans are written as Chrome
trace-event JSON under ``.perfbench-out/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Worker budget and process/thread count: the container's cores.
NPROC = 2
#: Fresh processes per run, each set up once; ``setup_s`` is their median.
PARTS = 3
#: Threading knobs pinned before NumPy loads: one BLAS thread per process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: glibc ``mallopt`` parameter number and the value pinned (see pin_malloc).
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
WORKLOAD_NAMES = ("inmem-d128", "mr-process", "serve-mixed")


def process_age() -> float:
    """Seconds since this process started (kernel clock, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed repetition seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="toy sizes through the same code and gate")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_malloc() -> None:
    """Fix glibc's mmap threshold at its 32 MiB ceiling.

    By default glibc raises the threshold after the first large free, so
    whether a ~32 MiB engine block comes from the heap or from mmap - and
    with it the peak RSS - depends on allocation history; fixed at the
    ceiling the default reaches anyway, peak RSS depends on the sizes
    alone.  Forked workers inherit the setting.
    """
    import ctypes

    libc = ctypes.CDLL(None)
    if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        raise RuntimeError("mallopt(M_MMAP_THRESHOLD) was refused")


def pin_environment(workdir: str) -> None:
    os.environ.update(PINNED_ENV)
    # Program defaults only: no inherited REPRO_* knob changes what runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = workdir  # spill files etc. stay in the checkout


def check_program() -> None:
    """Exit 2 unless the program's source is next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)


def import_program() -> None:
    """Import ``repro`` from ``src/`` next to the benchmark, or exit 2."""
    check_program()
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# Environment capture.

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import platform

    import numpy as np
    from repro.exec import get_worker_budget

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "fast": args.fast,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "worker_budget": get_worker_budget().limit,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# One part: one fresh process, set up once.

def run_part(args) -> int:
    """Set up, warm up, then timed repetitions; print the samples as JSON."""
    from perfbench import metrics
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS
    from repro.exec import set_worker_budget

    set_worker_budget(NPROC)
    wl = WORKLOADS[args.workload](
        args.workload, args.seed, args.fast, os.environ["TMPDIR"]
    )
    wl.setup()
    attempted, failed = wl.check(wl.rep())
    setup_s = process_age()  # process start to the first timed repetition

    tracer = Tracer(args.workload) if args.trace else None
    plain, traced, layers = [], [], []
    elapsed = 0.0
    i = 0
    try:
        while elapsed < args.seconds or (tracer is not None and i < 2):
            gc.collect()
            is_traced = tracer is not None and i % 2 == 1
            i += 1
            t0 = time.perf_counter()
            try:
                if is_traced:
                    uninstall = tracer.install()
                    first = len(tracer.spans), len(tracer.kernel_calls)
                    try:
                        record = wl.rep(tracer)
                    finally:
                        uninstall()
                    spans = tracer.spans[first[0]:]
                    root = next(s for s in reversed(spans) if s.layer == "bench")
                    layers.append(metrics.layer_metrics(
                        spans, tracer.kernel_calls[first[1]:], root,
                        getattr(record, "facts", {}), getattr(record, "stats", None),
                    ))
                else:
                    record = wl.rep()
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                traceback.print_exc()
                attempted, failed = attempted + 1, failed + 1
                elapsed += time.perf_counter() - t0  # a run always ends
                continue
            elapsed += record.wall
            counts = wl.check(record)
            attempted, failed = attempted + counts[0], failed + counts[1]
            sample = {"wall": record.wall, "latencies": getattr(record, "latencies", None)}
            (traced if is_traced else plain).append(sample)
    finally:
        wl.teardown()
    if tracer is not None:
        tracer.write_chrome_trace(os.path.join(
            ROOT, ".perfbench-out",
            f"trace-{args.workload}-seed{args.seed}-part{args.part}.json",
        ))
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": wl.outputs(),
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "env": environment(args),
    }), flush=True)
    return 0


# ----------------------------------------------------------------------
# One run of one workload: PARTS fresh processes, samples pooled.

def run_workload(args) -> int:
    from perfbench import metrics

    parts = []
    for part in range(PARTS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
               "--trace", str(args.trace), "--part", str(part)]
        proc = subprocess.run(cmd + (["--fast"] if args.fast else []),
                              stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: part {part} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        parts.append(json.loads(lines[-1]))
        print(f"part {part}: set-up {parts[-1]['setup_s']:.3f} s, "
              f"reps {[round(x['wall'], 4) for x in parts[-1]['plain']]}", flush=True)

    # Gate across processes: each must reproduce the first one's outputs.
    attempted = sum(p["attempted"] for p in parts) + len(parts)
    failed = sum(p["failed"] for p in parts) + sum(
        p["outputs"] != parts[0]["outputs"] for p in parts
    )
    outputs = parts[0]["outputs"]
    plain = [x for p in parts for x in p["plain"]]
    traced = [x for p in parts for x in p["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    batch = plain[0]["latencies"] is None

    def primary(samples):
        """Median fit wall (s), or pooled median request latency (s)."""
        if batch:
            return statistics.median(x["wall"] for x in samples)
        return metrics.percentile([t for x in samples for t in x["latencies"]], 50)

    setup_times = [p["setup_s"] for p in parts]
    lines = []  # (name, value, unit, samples, note)
    if batch:
        lines.append(("latency_p50_ms", primary(plain) * 1e3, "ms", len(plain),
                      f"fit_s = {primary(plain):.4f} s, median of {len(plain)} fits"))
    else:
        lat = [t for x in plain for t in x["latencies"]]
        seconds = sum(x["wall"] for x in plain)
        lines.append(("latency_p50_ms", primary(plain) * 1e3, "ms", len(lat),
                      "requests pooled over the timed repetitions"))
    lines.append(("seed_cost", outputs["seed_cost"], "cost", len(parts),
                  "identical in every part"))
    lines.append(("final_cost", outputs["final_cost"], "cost", len(parts),
                  "identical in every part"))
    if not batch:
        lines.append(("qps", len(lat) / seconds, "1/s", len(plain),
                      f"{len(lat)} requests in {seconds:.2f} s of closed loop"))
        lines.append(("latency_p99_ms", metrics.percentile(lat, 99) * 1e3, "ms",
                      len(lat), f"{len(lat) // 100} samples beyond p99"))
    lines.append(("setup_s", statistics.median(setup_times), "s", len(parts),
                  "process start to first timed repetition, median over parts"))
    lines.append(("peak_rss_mb", max(p["peak_rss_mb"] for p in parts), "MB", len(parts),
                  "largest high-water mark of the parts' processes"))
    lines.append(("error_rate", failed / attempted, "fraction", attempted,
                  f"{failed} failed of {attempted} operations"))

    print("env " + json.dumps(dict(parts[0]["env"], seconds=args.seconds, parts=PARTS)), flush=True)
    if args.trace:
        layer_samples = [d for p in parts for d in p["layers"]]
        result_metrics = metrics.median_of(layer_samples)
        result_metrics["trace_overhead"] = primary(traced) / primary(plain) - 1.0
        for name, *_ in metrics.PER_LAYER:
            print(f"layer {name:28s} {result_metrics[name]:>16.6g} "
                  f"{metrics.UNITS[name]:9s} n={len(layer_samples)}")
    else:
        end_to_end = {name for name, *_ in metrics.END_TO_END}
        result_metrics = {name: value for name, value, *_ in lines if name in end_to_end}
    for name, value, unit, samples, note in lines:
        print(f"metric {name:16s} {value:>16.6f} {unit:9s} n={samples:<7d} {note}")
    print("samples " + json.dumps({name: samples for name, _, _, samples, _ in lines}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": metrics.UNITS[name]}
            for name, value in result_metrics.items()
        },
    }), flush=True)
    return 0


# ----------------------------------------------------------------------
# Every workload, each in a fresh process.

def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--fast"] if args.fast else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in results.items():
        rate = res["failed"] / res["attempted"]
        print(f"{name:12s} correct={res['correct']} error_rate={rate:.6f} "
              + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                         for k, v in res["metrics"].items()))
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{k}": v
            for name, res in results.items() for k, v in res["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)  # the perfbench package
    if args.write_spec:
        from perfbench.metrics import spec
        from perfbench.workloads import WHY

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(WHY), fh, indent=2)
            fh.write("\n")
        return 0
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pin_environment(workdir)
        if args.workload == "all":
            return run_all(args)
        if args.part is None:
            check_program()
            return run_workload(args)
        pin_malloc()
        import_program()
        return run_part(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
