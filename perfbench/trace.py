"""In-memory spans around each layer's public functions, set from outside.

The traced run wraps the program's layer boundaries *from the benchmark's
own files*: it replaces functions and methods on the program's modules
and classes with thin wrappers that record a span (name, layer, start,
end, parent, thread) or, for the distance kernels, work counts computed
from argument shapes.  Nothing under ``src/`` changes; ``Tracer.install``
returns an uninstall callable that restores every original object.

Where a wrapper goes:

* ``linalg`` - spans on the engine's ``run_slices``/``map_slices``/
  ``reduce_slices`` (every kernel region passes through them), and counts
  without spans on the public kernels where a caller outside
  ``repro.linalg`` binds them (``block_sq_dists``, ``sq_dists_to_point``,
  ``min_sq_dists``, ``update_min_sq_dists[_argmin]``, ``assign_labels``,
  ``cluster_sums``), so calls inside the linalg package are not counted
  twice;
* ``core`` - ``Initializer.run`` (every seeding method), ``lloyd`` where
  ``KMeans`` binds it, and the MapReduce driver's Step 8 reclustering
  (``KMeansPlusPlus`` and ``sequential_lloyd`` as
  ``repro.mapreduce.kmeans_mr`` binds them);
* ``mapreduce`` - ``LocalMapReduceRuntime.run_job``/``submit_job``;
* ``exec`` - each backend class's own ``run_calls``;
* ``shuffle`` - ``estimate_nbytes``/``record_nbytes`` where the runtime,
  the stores and the plane bind them;
* ``serve`` - ``assign_serve`` where the service and the refresher bind
  it, ``ModelRegistry.publish`` and ``StreamingRefresher.observe``.

Spans are kept in memory and written once, at the end, as Chrome
trace-event JSON (opens in Perfetto).  :func:`self_times` and
:func:`coverage` compute a layer's self time and the share of a
repetition no span covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import namedtuple

#: One finished span.  ``attrs`` is a dict or ``None``.
Span = namedtuple("Span", "sid parent name layer t0 t1 tid attrs")

#: Public kernels counted where callers outside ``repro.linalg`` bind them.
KERNELS = (
    "block_sq_dists",
    "sq_dists_to_point",
    "min_sq_dists",
    "update_min_sq_dists",
    "update_min_sq_dists_argmin",
    "assign_labels",
    "cluster_sums",
)


def kernel_work(name, args):
    """(rows, centers, flops, bytes) of one kernel call, from shapes.

    Distance kernels evaluate ``rows x centers`` squared distances by the
    expansion ``|x|^2 - 2 x.c + |c|^2``: ``2 d + 3`` flops each, reading
    the row block and the centers and writing one value per pair (or,
    for the reducing kernels, one per row).  ``cluster_sums`` adds each
    row into its cluster's sum: ``d`` flops per row.  The counts are
    computed, not measured - cache misses are not in ``bytes``.
    """
    try:
        n, d = args[0].shape
        item = args[0].dtype.itemsize
    except (AttributeError, ValueError, IndexError):
        return 0, 0, 0.0, 0.0
    if name == "cluster_sums":
        k = int(args[2]) if len(args) > 2 else 0
        return 0, 0, float(n * d), float(item * (n * d + k * d) + 8 * n)
    try:
        cshape = args[1].shape
    except (AttributeError, IndexError):
        return n, 0, 0.0, 0.0
    k = 1 if len(cshape) == 1 else cshape[0]
    out = n * k if name in ("block_sq_dists", "sq_dists_to_point") else n
    return n, k, float(n * k * (2 * d + 3)), float(item * (n * d + k * d + out))


class Tracer:
    """Records spans from wrapped layer functions; one per traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        #: One ``kernel_work`` tuple per counted kernel call.
        self.kernel_calls: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, layer, **attrs):
        """Context manager recording one span from the benchmark itself."""
        return _SpanContext(self, name, layer, attrs or None)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, name, layer, *, attrs_of=None, result_attrs=None):
        """``fn`` recording one span per call (hot path kept flat)."""
        spans, ids, local = self.spans, self._ids, self._local
        perf, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            attrs = attrs_of(args) if attrs_of is not None else None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            if result_attrs is not None:
                attrs = dict(attrs or {}, **result_attrs(out))
            spans.append(Span(sid, parent, name, layer, t0, t1, get_ident(), attrs))
            return out

        return traced

    def count(self, fn, kernel):
        """``fn`` logging its computed work, without a span (kernels are hot)."""
        log = self.kernel_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            log.append(kernel_work(kernel, args))
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every layer boundary; returns the callable that undoes it."""
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        def rebind(original, replacement, skip_prefix):
            """Replace ``original`` wherever a ``repro`` module binds it."""
            for mod_name, module in list(sys.modules.items()):
                if (
                    module is None
                    or not mod_name.startswith("repro.")
                    or mod_name.startswith(skip_prefix)
                ):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, replacement)

        from repro.core import kmeans as core_kmeans
        from repro.core.init_base import Initializer
        from repro.exec import backends
        from repro.linalg import centroids, distances
        from repro.linalg.engine import Engine
        from repro.mapreduce import kmeans_mr
        from repro.mapreduce.runtime import LocalMapReduceRuntime
        from repro.serve import assign as serve_assign
        from repro.serve.refresh import StreamingRefresher
        from repro.serve.registry import ModelRegistry
        from repro.shuffle import accounting

        # linalg: engine slice runs (time) and caller-bound kernels (counts).
        for method in ("run_slices", "map_slices", "reduce_slices"):
            patch(Engine, method, self.wrap(
                Engine.__dict__[method], f"linalg.engine.{method}", "linalg"
            ))
        for kernel in KERNELS:
            module = centroids if kernel == "cluster_sums" else distances
            original = getattr(module, kernel)
            rebind(original, self.count(original, kernel), "repro.linalg")

        # core: seeding (every initializer goes through Initializer.run),
        # Lloyd where KMeans binds it, and the MR driver's Step 8.
        patch(Initializer, "run", self.wrap(
            Initializer.__dict__["run"], "core.seed", "core",
            attrs_of=lambda args: {"method": type(args[0]).__name__},
        ))
        patch(core_kmeans, "lloyd", self.wrap(core_kmeans.lloyd, "core.lloyd", "core"))
        patch(kmeans_mr, "sequential_lloyd", self.wrap(
            kmeans_mr.sequential_lloyd, "core.recluster.lloyd", "core"
        ))
        pp_cls = kmeans_mr.KMeansPlusPlus

        def traced_kmeanspp(*args, **kwargs):
            initializer = pp_cls(*args, **kwargs)
            initializer.run = self.wrap(
                initializer.run, "core.recluster.kmeanspp", "core"
            )
            return initializer

        patch(kmeans_mr, "KMeansPlusPlus", traced_kmeanspp)

        # mapreduce: one span per job, with its shuffle counts.
        def job_attrs(args):
            return {"job": getattr(args[1], "name", "?")}

        def stats_attrs(result):
            stats = getattr(result, "stats", None)
            if stats is None:
                return {}
            return {
                "shuffle_records": stats.shuffle_records,
                "shuffle_bytes": stats.shuffle_bytes,
                "spill_bytes": stats.spill_bytes,
            }

        patch(LocalMapReduceRuntime, "run_job", self.wrap(
            LocalMapReduceRuntime.__dict__["run_job"], "mapreduce.job", "mapreduce",
            attrs_of=job_attrs, result_attrs=stats_attrs,
        ))
        patch(LocalMapReduceRuntime, "submit_job", self.wrap(
            LocalMapReduceRuntime.__dict__["submit_job"], "mapreduce.submit",
            "mapreduce", attrs_of=job_attrs,
        ))

        # exec: every backend class's own run_calls.
        for cls in (backends.ExecBackend, *backends.BACKENDS.values()):
            if "run_calls" in cls.__dict__:
                patch(cls, "run_calls", self.wrap(
                    cls.__dict__["run_calls"], f"exec.{cls.__name__}.run_calls",
                    "exec", attrs_of=lambda args: {"tasks": len(args[2])},
                ))

        # shuffle: byte accounting where the runtime, stores and plane bind it.
        for name in ("estimate_nbytes", "record_nbytes"):
            original = getattr(accounting, name)
            rebind(original, self.wrap(
                original, f"shuffle.{name}", "shuffle"
            ), "repro.shuffle.accounting")

        # serve: pruned assignment, publishes, refresher folds.
        original = serve_assign.assign_serve
        rebind(original, self.wrap(
            original, "serve.assign_serve", "serve"
        ), "repro.serve.assign")
        patch(ModelRegistry, "publish", self.wrap(
            ModelRegistry.__dict__["publish"], "serve.publish", "serve",
            attrs_of=lambda args: {"bytes": int(args[1].nbytes)},
        ))
        patch(StreamingRefresher, "observe", self.wrap(
            StreamingRefresher.__dict__["observe"], "serve.observe", "serve"
        ))

        def uninstall():
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            patches.clear()

        return uninstall

    # -- export -----------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round((s.t0 - self.origin) * 1e6, 3),
                "dur": round((s.t1 - s.t0) * 1e6, 3),
                "pid": pid,
                "tid": s.tid,
                "args": dict(
                    s.attrs or {}, span=s.sid, parent=s.parent,
                    workload=self.workload,
                ),
            }
            for s in sorted(self.spans, key=lambda s: s.t0)
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _SpanContext:
    __slots__ = ("tracer", "name", "layer", "attrs", "sid", "parent", "t0")

    def __init__(self, tracer, name, layer, attrs):
        self.tracer, self.name, self.layer, self.attrs = tracer, name, layer, attrs

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(Span(
            self.sid, self.parent, self.name, self.layer, self.t0, t1,
            threading.get_ident(), self.attrs,
        ))
        return False


# ----------------------------------------------------------------------
# Span arithmetic.

def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's union."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out: dict[str, float] = {}
    for s in spans:
        covered = union_length(
            (max(a, s.t0), min(b, s.t1))
            for a, b in children.get(s.sid, ())
            if b > s.t0 and a < s.t1
        )
        out[s.layer] = out.get(s.layer, 0.0) + (s.t1 - s.t0) - covered
    return out


def outermost(spans, layer) -> list[Span]:
    """Spans of ``layer`` whose parent is not itself a ``layer`` span."""
    by_id = {s.sid: s for s in spans}
    return [
        s for s in spans
        if s.layer == layer
        and not (s.parent in by_id and by_id[s.parent].layer == layer)
    ]


def coverage(spans, root) -> float:
    """Seconds of ``root``'s interval covered by the spans under it.

    ``spans`` are the repetition's spans on every thread; a span counts
    when it is a child of ``root`` or a thread's top-level span, so
    client threads' spans cover the main thread's wait in ``join``.
    """
    return union_length(
        (max(s.t0, root.t0), min(s.t1, root.t1))
        for s in spans
        if s.sid != root.sid
        and (s.parent == root.sid or s.parent == 0)
        and s.t1 > root.t0 and s.t0 < root.t1
    )
