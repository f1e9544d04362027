"""What the benchmark reports: the metric catalogue and how each is computed.

``END_TO_END`` metrics come from untraced runs (``--trace 0``) and are
reported by every workload.  ``PER_LAYER`` metrics come from the traced
run (``--trace 1``), one value per traced repetition, reported as the
median over the run's traced repetitions; a layer a workload never
enters reads 0.  ``BENCHMARK.json`` is generated from these tables
(``run.py --write-spec``).
"""

from __future__ import annotations

import statistics

from perfbench.trace import coverage, outermost, self_times

#: (name, unit, better, bound, definition).  Every workload reports each.
END_TO_END = [
    ("latency_p50_ms", "ms", "lower", 0.2,
     "median latency of one operation: a full seeding + Lloyd fit "
     "(inmem-d128, mr-process) or one 64-point request (serve-mixed)"),
    ("seed_cost", "cost", "lower", 0.2,
     "potential of the k-means|| seed on its training data (serve-mixed: "
     "the served model's training fit)"),
    ("final_cost", "cost", "lower", 0.2,
     "potential after Lloyd; serve-mixed: the served model's potential "
     "after the last write, on a fixed evaluation set"),
    ("setup_s", "s", "lower", 0.25,
     "imports plus the median of the run's set-ups: inputs, backend "
     "start, model training and publish, and the warm-up repetition"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "high-water resident memory of the run's driver process"),
]

#: (name, unit, better, definition); values are per traced repetition.
PER_LAYER = [
    ("linalg.calls", "count", "lower", "public kernel calls where callers bind them"),
    ("linalg.busy_s", "s", "lower", "time in engine slice runs (run/map/reduce_slices)"),
    ("linalg.self_s", "s", "lower", "engine span time not covered by child spans"),
    ("linalg.dist_evals", "count", "lower", "rows x centers over the kernel calls"),
    ("linalg.flops", "flop", "lower", "computed from shapes: (2d + 3) per distance, d per summed row"),
    ("linalg.bytes", "B", "lower", "computed from shapes: operands read plus results written"),
    ("linalg.gflop_s", "GFLOP/s", "higher", "linalg.flops / linalg.busy_s"),
    ("core.seed_s", "s", "lower", "Initializer.run outside the MR driver's Step 8"),
    ("core.lloyd_s", "s", "lower", "lloyd as KMeans binds it"),
    ("core.recluster_s", "s", "lower", "Step 8 on the MR driver: k-means++ and Lloyd on the candidates"),
    ("core.self_s", "s", "lower", "core span time not covered by child spans"),
    ("core.candidates", "count", "lower", "k-means|| candidates before reclustering"),
    ("core.rounds", "count", "lower", "k-means|| sampling rounds"),
    ("core.lloyd_iters", "count", "lower", "Lloyd iterations of the fit"),
    ("mapreduce.jobs", "count", "lower", "MR jobs run"),
    ("mapreduce.job_s", "s", "lower", "time in run_job/submit_job"),
    ("mapreduce.seed_jobs_s", "s", "lower", "job time of the seeding jobs (sample, cost, weight)"),
    ("mapreduce.lloyd_jobs_s", "s", "lower", "job time of the Lloyd jobs"),
    ("mapreduce.self_s", "s", "lower", "job time outside backend regions and shuffle accounting"),
    ("mapreduce.driver_s", "s", "lower", "fit time outside jobs: seed-cost scan, recluster, top-up"),
    ("exec.regions", "count", "lower", "backend run_calls regions"),
    ("exec.tasks", "count", "lower", "tasks over those regions"),
    ("exec.region_s", "s", "lower", "time in backend regions"),
    ("exec.self_s", "s", "lower", "region time not covered by driver-side child spans"),
    ("exec.retries", "count", "lower", "retries + crashes + timeouts in the fit's fault telemetry"),
    ("plane.broadcast_bytes", "B", "lower", "broadcast bytes published (MR) or model bytes published (serve)"),
    ("plane.state_bytes_shipped", "B", "lower", "split-state bytes that crossed by value"),
    ("plane.state_bytes_resident", "B", "lower", "split-state bytes referenced in shared memory"),
    ("shuffle.records", "count", "lower", "shuffle records over the jobs"),
    ("shuffle.bytes", "B", "lower", "shuffle bytes over the jobs"),
    ("shuffle.spill_bytes", "B", "lower", "bytes spilled to disk"),
    ("shuffle.accounting_s", "s", "lower", "time in estimate_nbytes/record_nbytes"),
    ("shuffle.accounting_calls", "count", "lower", "estimate_nbytes/record_nbytes calls"),
    ("serve.batches", "count", "lower", "micro-batches served"),
    ("serve.mean_batch_points", "points", "higher", "points per micro-batch"),
    ("serve.fast_path_frac", "fraction", "higher", "batches served on the idle fast path"),
    ("serve.assign_s", "s", "lower", "assign_serve time on the request path"),
    ("serve.wait_s", "s", "lower", "request time outside assign_serve"),
    ("serve.dist_evals_per_point", "count", "lower", "distance evaluations per served point"),
    ("serve.prune_frac", "fraction", "higher", "points decided by bounds / points"),
    ("serve.publishes", "count", "lower", "ModelRegistry.publish calls by the refresher"),
    ("serve.publish_s", "s", "lower", "time in ModelRegistry.publish"),
    ("serve.observe_s", "s", "lower", "time in StreamingRefresher.observe"),
    ("serve.self_s", "s", "lower", "serve span time not covered by child spans"),
    ("trace_overhead", "fraction", "lower", "traced / untraced primary timing - 1"),
    ("trace.uncovered_s", "s", "lower", "repetition wall time no span covers"),
    ("trace.uncovered_frac", "fraction", "lower", "trace.uncovered_s / repetition wall time"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def spec(workloads: dict[str, str]) -> dict:
    """The ``BENCHMARK.json`` document for these tables."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": name, "why": why} for name, why in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation (NumPy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _sum(spans, name=None, prefix=None) -> float:
    return sum(
        s.t1 - s.t0 for s in spans
        if (name is None or s.name == name)
        and (prefix is None or s.name.startswith(prefix))
    )


def _attr(spans, key) -> float:
    return sum((s.attrs or {}).get(key, 0) for s in spans)


def layer_metrics(spans, kernel_calls, root, facts: dict,
                  serve_stats: dict | None) -> dict:
    """Per-layer values of one traced repetition.

    ``spans`` are every span recorded during the repetition (all
    threads), ``kernel_calls`` its ``kernel_work`` tuples, ``root`` the
    benchmark's span around it, ``facts`` what the operation reported
    about itself (candidates, fault and plane telemetry) and
    ``serve_stats`` the service's counter deltas.
    """
    m = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    del m["trace_overhead"]  # a run-level comparison, see run.py
    wall = root.t1 - root.t0
    selfs = self_times(spans)

    m["linalg.calls"] = len(kernel_calls)
    m["linalg.dist_evals"] = sum(rows * centers for rows, centers, _, _ in kernel_calls)
    m["linalg.flops"] = sum(call[2] for call in kernel_calls)
    m["linalg.bytes"] = sum(call[3] for call in kernel_calls)
    busy = _sum(outermost(spans, "linalg"))
    m["linalg.busy_s"] = busy
    m["linalg.self_s"] = selfs.get("linalg", 0.0)
    m["linalg.gflop_s"] = m["linalg.flops"] / busy / 1e9 if busy else 0.0

    core = outermost(spans, "core")
    m["core.seed_s"] = _sum(core, name="core.seed")
    m["core.lloyd_s"] = _sum(core, name="core.lloyd")
    m["core.recluster_s"] = _sum(core, prefix="core.recluster")
    m["core.self_s"] = selfs.get("core", 0.0)
    m["core.candidates"] = facts.get("candidates", 0)
    m["core.rounds"] = facts.get("rounds", 0)
    m["core.lloyd_iters"] = facts.get("lloyd_iters", 0)

    jobs = outermost(spans, "mapreduce")
    if jobs:
        job_s = _sum(jobs)
        lloyd_s = sum(
            s.t1 - s.t0 for s in jobs if "lloyd" in (s.attrs or {}).get("job", "")
        )
        m["mapreduce.jobs"] = len(jobs)
        m["mapreduce.job_s"] = job_s
        m["mapreduce.lloyd_jobs_s"] = lloyd_s
        m["mapreduce.seed_jobs_s"] = job_s - lloyd_s
        m["mapreduce.self_s"] = selfs.get("mapreduce", 0.0)
        m["mapreduce.driver_s"] = wall - job_s
        m["shuffle.records"] = _attr(jobs, "shuffle_records")
        m["shuffle.bytes"] = _attr(jobs, "shuffle_bytes")

    regions = outermost(spans, "exec")
    m["exec.regions"] = len(regions)
    m["exec.tasks"] = _attr(regions, "tasks")
    m["exec.region_s"] = _sum(regions)
    m["exec.self_s"] = selfs.get("exec", 0.0)
    m["exec.retries"] = facts.get("retries", 0)

    m["plane.state_bytes_shipped"] = facts.get("state_bytes_shipped", 0)
    m["plane.state_bytes_resident"] = facts.get("state_bytes_resident", 0)
    m["shuffle.spill_bytes"] = facts.get("spill_bytes", 0)
    accounting = outermost(spans, "shuffle")
    m["shuffle.accounting_s"] = _sum(accounting)
    m["shuffle.accounting_calls"] = len([s for s in spans if s.layer == "shuffle"])

    publishes = [s for s in spans if s.name == "serve.publish"]
    m["plane.broadcast_bytes"] = (
        _attr(publishes, "bytes") if publishes else facts.get("broadcast_bytes", 0)
    )
    if serve_stats is not None:
        requests = {s.sid for s in spans if s.name == "serve.request"}
        assigns = [
            s for s in spans if s.name == "serve.assign_serve" and s.parent in requests
        ]
        st = serve_stats
        m["serve.batches"] = st["n_batches"]
        m["serve.mean_batch_points"] = st["n_points"] / max(st["n_batches"], 1)
        m["serve.fast_path_frac"] = st["n_fast_path"] / max(st["n_batches"], 1)
        m["serve.dist_evals_per_point"] = st["n_dist_evals"] / max(st["n_points"], 1)
        m["serve.prune_frac"] = st["n_pruned"] / max(st["n_points"], 1)
        m["serve.assign_s"] = _sum(assigns)
        m["serve.wait_s"] = _sum(spans, name="serve.request") - m["serve.assign_s"]
        m["serve.publishes"] = len(publishes)
        m["serve.publish_s"] = _sum(publishes)
        m["serve.observe_s"] = _sum(spans, name="serve.observe")
        m["serve.self_s"] = selfs.get("serve", 0.0)

    uncovered = max(wall - coverage(spans, root), 0.0)
    m["trace.uncovered_s"] = uncovered
    m["trace.uncovered_frac"] = uncovered / wall if wall else 0.0
    return m


def median_of(dicts: list[dict]) -> dict:
    """Key-wise median of per-repetition metric dicts."""
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}
