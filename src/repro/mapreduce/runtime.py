"""The local MapReduce execution engine.

Executes :class:`~repro.mapreduce.job.MapReduceJob` specifications over
real input splits, with the full map → combine → shuffle → reduce data
path, Hadoop-style counters, per-split persistent state, and a simulated
clock driven by :class:`~repro.mapreduce.cluster.ClusterModel`.

Parallelism: map(+combine) tasks *and* per-key reduce tasks fan out
through the process-wide execution backend (:mod:`repro.exec`) — serial,
threads, or real worker processes, selected via
:func:`repro.exec.set_backend` / ``REPRO_EXEC_BACKEND`` / the CLI's
``--backend``.  The backend draws workers from the same global budget as
the linalg engine, so an engine call inside a mapper body can never
oversubscribe the machine.  Map tasks are shipped as picklable *split
descriptors* (for a file-backed source: just ``(path, start, stop)``,
re-opened as a memory map inside the worker process), so the process
backend stays out-of-core end to end.  The worker count is the
``workers`` argument, else the ``exec_workers`` setting of
:mod:`repro.config`, else the linalg engine's worker count.

Determinism: every (job, split) pair gets its own RNG pre-spawned from
the runtime seed *before* dispatch, results and counters are collected
in split order, reduce keys are processed in one deterministic sorted
order (and :attr:`JobResult.output` preserves it), and the simulated
clock is computed from measured work — so output, counters, and
simulated time are bit-identical for any backend, any worker count, and
between in-memory and memory-mapped split sources (the property tests
rely on this).

Out-of-core input: the dataset is accessed through a
:class:`~repro.data.splits.SplitSource`; pass a path (or
:class:`~repro.data.splits.MmapSplitSource` /
:class:`~repro.data.splits.ShardedSplitSource` for a directory of
shards) to stream splits from memory-mapped files instead of RAM.

Data plane: on a backend whose tasks run in other processes, the driver
publishes each job's broadcast ndarray *once* into
``multiprocessing.shared_memory`` and per-split state arrays stay
resident in driver-owned segments, so map tasks carry only O(1)-sized
descriptors across the process boundary (:mod:`repro.plane`).  Serial
and thread backends pass the broadcast and the state dicts by
reference.  Either way the simulated clock charges the broadcast once
per job.

Out-of-core shuffle: emissions flow through a
:class:`~repro.shuffle.store.ShuffleStore`.  By default that is the
in-memory store (the historical zero-copy path); give the runtime a
``shuffle_budget`` (bytes; or set ``REPRO_SHUFFLE_BUDGET_MB`` / the
CLI's ``--shuffle-budget-mib``) and the shuffle spills to disk past the
budget instead — map tasks spill fat output locally and ship back only
file manifests, the driver pre-aggregates / hash-partitions / spills the
rest, and the reduce phase streams groups from a deterministic sorted
external merge in budget-bounded windows.  Centers, costs, counters, and
output key order stay bit-identical between stores (the property tests
pin this); only the spill telemetry and the simulated spill time differ.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable

import numpy as np

from repro.config import get_config
from repro.data.splits import SplitDescriptor, SplitSource, as_split_source
from repro.exceptions import MapReduceError, ValidationError
from repro.exec import (
    ExecBackend,
    FaultStats,
    RetryPolicy,
    default_retry_policy,
    get_backend,
    resolve_backend,
)
from repro.linalg.engine import get_engine
from repro.mapreduce.cluster import ClusterModel, PhaseTime
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import KeyValue, MapReduceJob, SplitContext
from repro.plane.broadcast import publish_broadcast, resolve_broadcast
from repro.plane.state import (
    SplitStateManager,
    SplitStateSpec,
    SplitStateUpdate,
    collect_state_update,
)
from repro.shuffle.accounting import estimate_nbytes, record_nbytes
from repro.shuffle.spill import SpillManifest
from repro.shuffle.store import (
    MapSpillSpec,
    ShuffleStore,
    SpillingShuffleStore,
    make_shuffle_store,
    reduce_key_order as _reduce_key_order,
    sorted_reduce_keys as _sorted_reduce_keys,
    spill_map_emissions,
)
from repro.types import SeedLike
from repro.utils.rng import ensure_generator, spawn_generators

__all__ = [
    "JobStats",
    "JobResult",
    "JobFuture",
    "LocalMapReduceRuntime",
    "estimate_nbytes",
    "record_nbytes",
]


@dataclass
class JobStats:
    """Everything measured while executing one job.

    ``shuffle_records`` / ``shuffle_bytes`` are store-independent (both
    shuffle stores account them on the same scale); the ``spill_*`` and
    ``shuffle_peak_bytes`` fields are the out-of-core telemetry — zero
    whenever the shuffle stayed in memory... except ``shuffle_peak_bytes``,
    which for the in-memory store simply equals the whole shuffle.
    """

    name: str
    n_splits: int
    map_records: int
    map_emitted: int
    combine_emitted: int
    shuffle_records: int
    shuffle_bytes: int
    reduce_emitted: int
    map_flops_per_split: list[float] = field(default_factory=list)
    reduce_flops: float = 0.0
    broadcast_bytes: int = 0  #: the job's broadcast payload, charged once
    spill_bytes: int = 0  #: real bytes written to shuffle spill files
    spill_files: int = 0
    shuffle_peak_bytes: int = 0  #: peak driver-held shuffle residency
    #: Split-state telemetry: bytes that crossed driver<->worker by
    #: value in this job (first-time publishes + inline fallbacks), and
    #: the split-state bytes held in shared segments when it ended.
    #: Both zero when the backend never crosses a process boundary.
    state_bytes_shipped: int = 0
    state_bytes_resident: int = 0
    #: Fault-tolerance telemetry (:class:`repro.exec.FaultStats` counters:
    #: retries, crashes, timeouts, pool rebuilds, lineage-recomputed
    #: state bytes).  All zero on a fault-free run.
    faults: dict[str, int] = field(default_factory=dict)
    time: PhaseTime | None = None


@dataclass
class JobResult:
    """Output of one job: reduced records grouped by key, plus telemetry.

    ``output`` key order is deterministic: keys appear in the order their
    emitting reduce tasks ran, which is the sorted reduce-key order — not
    the (split-emission-dependent) shuffle order.
    """

    output: dict[Hashable, list[Any]]
    counters: Counters
    stats: JobStats

    def single(self, key: Hashable) -> Any:
        """The unique value of ``key`` (raises if absent or non-unique)."""
        values = self.output.get(key)
        if not values:
            raise MapReduceError(f"job produced no output for key {key!r}")
        if len(values) != 1:
            raise MapReduceError(
                f"expected exactly one value for key {key!r}, got {len(values)}"
            )
        return values[0]


@dataclass
class _MapTaskResult:
    """What one map(+combine) task hands back to the driver.

    Exactly one of ``state`` / ``state_update`` reports the split's
    persistent state after the task ran.  On an in-process backend
    ``state`` is the dict itself, the same object the driver holds.  A
    backend that crosses processes sends a
    :class:`~repro.plane.state.SplitStateSpec` instead of a dict and
    gets back a :class:`~repro.plane.state.SplitStateUpdate` of markers:
    resident entries stay in their shared segments (no bytes move) and
    only new or re-shaped values ride the result pickle.

    Exactly one of ``emissions`` / ``manifest`` carries the task's
    output: under a spilling shuffle, a task whose post-combine output
    exceeds the spill spec's threshold writes it to a local spill file
    and ships back only the :class:`~repro.shuffle.spill.SpillManifest`
    — for the process backend, a few hundred bytes of IPC instead of the
    whole pickled emission list.
    """

    emissions: list[tuple[Hashable, Any]]
    map_emitted: int
    flops: float
    counters: Counters
    state: dict[str, Any] | None = None
    state_update: SplitStateUpdate | None = None
    manifest: SpillManifest | None = None


def _execute_map_task(
    job: MapReduceJob,
    descriptor: SplitDescriptor,
    split_id: int,
    n_splits: int,
    rng: np.random.Generator,
    state_arg: "dict[str, Any] | SplitStateSpec",
    spill_spec: MapSpillSpec | None = None,
) -> _MapTaskResult:
    """One map task (plus its combine, which is split-local).

    Module-level and driven entirely by picklable arguments, so the
    execution backend may run it on the calling thread, a pool thread, or
    a worker process; everything it touches is split-private (descriptor,
    state spec/dict, RNG, fresh counters), so tasks never share mutable
    state.  The job's broadcast arrives as the value itself or, across
    processes, as a :class:`~repro.plane.broadcast.BroadcastRef` (an
    O(1) descriptor), and is resolved here, in the executing process.
    """
    block = descriptor.load()
    counters = Counters()
    spec = state_arg if isinstance(state_arg, SplitStateSpec) else None
    state = spec.materialize() if spec is not None else state_arg
    ctx = SplitContext(
        split_id=split_id,
        n_splits=n_splits,
        rng=rng,
        state=state,
        counters=counters,
        broadcast=resolve_broadcast(job.broadcast),
    )
    mapper = job.mapper_factory()
    try:
        mapper.setup(ctx)
        emissions = list(mapper.map_block(block))
        emissions.extend(mapper.cleanup())
    except Exception as exc:  # surface user-code failures with context
        raise MapReduceError(
            f"mapper failed in job {job.name!r} on split {split_id}: {exc}"
        ) from exc
    map_emitted = len(emissions)
    flops = float(mapper.work)

    if job.combiner_factory is not None:
        grouped = _group(emissions)
        combiner = job.combiner_factory()
        combined: list[tuple[Hashable, Any]] = []
        for key, values in grouped.items():
            try:
                combined.extend(combiner.reduce(key, values))
            except Exception as exc:
                raise MapReduceError(
                    f"combiner failed in job {job.name!r} on split "
                    f"{split_id}, key {key!r}: {exc}"
                ) from exc
        flops += float(combiner.work)
        emissions = combined

    manifest = None
    if spill_spec is not None:
        manifest = spill_map_emissions(spill_spec, split_id, emissions)
        if manifest is not None:
            emissions = []

    return _MapTaskResult(
        emissions=emissions,
        map_emitted=map_emitted,
        flops=flops,
        counters=counters,
        state=None if spec is not None else state,
        state_update=collect_state_update(spec, state) if spec is not None else None,
        manifest=manifest,
    )


def _execute_reduce_task(
    reducer_factory: Callable,
    job_name: str,
    key: Hashable,
    values: list[Any],
) -> tuple[list[KeyValue], float]:
    """One reduce task: all values of one key. Returns (emissions, work).

    Per-key reduces are independent (no shared state), which is what lets
    the runtime fan them out across the backend.
    """
    reducer = reducer_factory()
    try:
        results = list(reducer.reduce(key, values))
    except Exception as exc:
        raise MapReduceError(
            f"reducer failed in job {job_name!r} for key {key!r}: {exc}"
        ) from exc
    return results, float(reducer.work)


class LocalMapReduceRuntime:
    """Executes jobs over a dataset partitioned into row splits.

    Parameters
    ----------
    X:
        The dataset: an in-memory 2-d array, a
        :class:`~repro.data.splits.SplitSource`, or a path to a
        ``.npy``/``.npz`` file (memory-mapped — splits then stream from
        disk and the dataset may exceed RAM). Partitioned row-wise into
        ``n_splits`` equal splits (Hadoop's input splits; Spark's
        partitions).
    n_splits:
        Number of splits / map tasks per job.
    cluster:
        Cost model for the simulated clock (default: a 64-worker cluster).
    seed:
        Master seed; per-(job, split) generators are derived from it.
    workers:
        Parallelism *requested* for map and reduce task fan-out (capped
        by the global worker budget at run time). ``None`` takes
        ``exec_workers`` from :func:`repro.config.get_config`, else the
        linalg engine's worker count. ``1`` runs tasks inline on the
        calling thread. Output is bit-identical either way.
    backend:
        Execution backend for this runtime: an
        :class:`~repro.exec.ExecBackend`, a name (``"serial"`` /
        ``"thread"`` / ``"process"``), or ``None`` to follow the
        process-wide backend (:func:`repro.exec.get_backend`) at each
        job — which is what the CLI's ``--backend`` flag configures.
    shuffle_budget:
        Driver-held shuffle residency budget in *bytes*. ``None`` takes
        ``shuffle_budget`` from :func:`repro.config.get_config`; if
        nothing is configured the shuffle is held in memory (the
        historical zero-copy path). Any value ``<= 0`` forces the
        in-memory store regardless of the configuration. Results are
        bit-identical either way; only where the bytes live (and the
        spill telemetry) changes.
    retry_policy:
        Fault-tolerance policy for this runtime's parallel regions
        (:class:`repro.exec.RetryPolicy`). ``None`` means
        :func:`repro.exec.default_retry_policy`, built from the
        configuration. Crashed map tasks are retried with
        their split state recomputed from lineage; outputs stay
        bit-identical to a fault-free run.

    Attributes
    ----------
    job_log:
        :class:`JobStats` of every executed job, in order.
    simulated_seconds:
        Total simulated wall-clock so far, including any sequential
        driver sections charged via :meth:`charge_sequential`.
    shuffle_counters:
        Runtime-lifetime spill telemetry (``shuffle/spill_bytes``,
        ``shuffle/spill_files``, ``shuffle/spilled_jobs``), kept apart
        from job counters so job output stays bit-identical between
        shuffle stores.
    """

    def __init__(
        self,
        X: np.ndarray | SplitSource | str | os.PathLike,
        *,
        n_splits: int = 8,
        cluster: ClusterModel | None = None,
        seed: SeedLike = None,
        workers: int | None = None,
        backend: ExecBackend | str | None = None,
        shuffle_budget: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        try:
            self.source = as_split_source(X)
        except ValidationError as exc:
            raise MapReduceError(str(exc)) from exc
        n_rows = self.source.shape[0]
        if n_splits < 1:
            raise MapReduceError(f"n_splits must be >= 1, got {n_splits}")
        n_splits = min(n_splits, n_rows)
        self.n_splits = n_splits
        self.cluster = cluster if cluster is not None else ClusterModel()
        self._seed_root = ensure_generator(seed)
        self._bounds = np.linspace(0, n_rows, n_splits + 1).astype(int)
        try:
            config = get_config()
            self._backend = None if backend is None else resolve_backend(backend)
        except ValidationError as exc:
            raise MapReduceError(str(exc)) from exc
        if workers is None:
            workers = config.exec_workers or get_engine().workers
        if workers < 1:
            raise MapReduceError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if shuffle_budget is None:
            shuffle_budget = config.shuffle_budget
        self.shuffle_budget = (
            int(shuffle_budget) if shuffle_budget and shuffle_budget > 0 else None
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else default_retry_policy()
        )
        #: Runtime-lifetime spill telemetry (see class docstring).
        self.shuffle_counters = Counters()
        self._active_store: ShuffleStore | None = None
        # A backend this runtime constructed (from a name) is this
        # runtime's to shut down; a shared instance (or the process-wide
        # default) is not.
        self._owns_backend = backend is not None and not isinstance(
            backend, ExecBackend
        )
        #: Driver-side owner of the per-split state dicts persisting
        #: across jobs (models RDD caching) and, on a backend that
        #: crosses processes, of their shared-memory segments.
        self._state = SplitStateManager(n_splits)
        #: Lineage: every successfully completed job (with its pre-dispatch
        #: per-split RNG pickles), in order.  When a worker dies holding a
        #: split's only copy of some state, the retry replays these jobs
        #: for that split — from the immutable input and recorded RNG
        #: streams — instead of restoring a checkpoint (there is none).
        self._lineage: list[tuple[MapReduceJob, list[bytes]]] = []
        # Recovery replays jobs and *installs shm state from lane
        # threads*; the backend's fork lock serializes that against
        # worker forks, whose children would otherwise inherit a held
        # resource-tracker lock and deadlock (see exec.backends).
        from repro.exec.backends import _FORK_LOCK

        self._recover_lock = _FORK_LOCK
        self.job_log: list[JobStats] = []
        self.simulated_seconds: float = 0.0
        self._job_counter = 0

    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecBackend:
        """The execution backend jobs are scheduled through."""
        return self._backend if self._backend is not None else get_backend()

    @property
    def split_states(self) -> list[dict[str, Any]]:
        """Per-split state dicts, in split order (the RDD-cache model).

        Entries kept resident in shared memory by the data plane appear
        here as segment-backed views — in-place worker writes are
        visible without any transfer — so callers read (and tests poke)
        these dicts exactly as before.
        """
        return self._state.states

    @property
    def X(self) -> np.ndarray:
        """The full dataset (a memmap for file-backed sources)."""
        return self.source.as_array()

    @property
    def splits(self) -> list[np.ndarray]:
        """Views of the input splits, in split order."""
        return [
            self.source.block(self._bounds[i], self._bounds[i + 1])
            for i in range(self.n_splits)
        ]

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release pools of a backend this runtime constructed. Idempotent.

        Scheduling goes through the execution backend, whose pools are
        keyed to the creating process and rebuilt lazily (see
        :mod:`repro.exec.backends`), so a forked child never inherits a
        dead pool through this object, and calling this twice is a no-op.
        A backend built from a *name* passed to the constructor (e.g.
        ``backend="process"``) is owned by this runtime and shut down
        here; the process-wide default or a caller-provided instance is
        left running.  Any in-flight shuffle store (an interrupted job's)
        is closed too, deleting its spill files, and this process's cached
        maps of the source's files are dropped, so a driver that fits many
        files does not keep them all mapped.
        """
        if self._active_store is not None:
            self._active_store.close()
            self._active_store = None
        # Free the data plane's shared-memory segments (state residency
        # ends with the runtime; ``split_states`` keeps plain copies).
        self._state.release()
        self.source.drop_cached_maps()
        if self._owns_backend and self._backend is not None:
            self._backend.shutdown()

    def __enter__(self) -> "LocalMapReduceRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def run_job(self, job: MapReduceJob) -> JobResult:
        """Execute one job over all splits; advance the simulated clock."""
        self._job_counter += 1
        backend = self.backend
        # Pre-spawn every split's RNG on the driver thread, before any
        # dispatch: stream identity depends only on (seed, job index,
        # split index), never on execution interleaving.
        split_rngs = spawn_generators(self._seed_root, self.n_splits)
        # Snapshot each RNG's pre-dispatch state: a retried map task must
        # see the exact stream the lost attempt saw, not a mutated one.
        rng_blobs = [pickle.dumps(rng) for rng in split_rngs]
        fault_stats = FaultStats()
        broadcast_bytes = estimate_nbytes(job.broadcast) if job.broadcast is not None else 0

        # ---- data plane: how values reach the tasks ----
        # A backend that can put a task in another process gets the
        # shared-memory transport: the broadcast is published once per
        # job and freed in the ``finally`` below, and split state goes
        # out as specs and comes back as resident markers.  In-process
        # backends pass the broadcast and the state dicts by reference.
        transport_shared = backend.crosses_processes

        # One shuffle store per job: in-memory unless a budget is set.
        # Spill files (the driver's and the map tasks') all live in the
        # store's managed temp dir, deleted in the ``finally`` below —
        # so an interrupt mid-job leaves nothing behind.
        store = make_shuffle_store(
            self.shuffle_budget, combiner_factory=job.combiner_factory
        )
        self._active_store = store
        spill_spec = (
            store.map_spill_spec(self.n_splits)
            if isinstance(store, SpillingShuffleStore)
            else None
        )
        published = None
        try:
            # Telemetry hygiene: a failed previous job may have left
            # half-accounted state counters behind; this job starts clean.
            self._state.drain_shipped()
            # Publish inside the guarded region: whatever fails between
            # here and the reduce, the ``finally`` frees the segment.
            published = publish_broadcast(job.broadcast, shared=transport_shared)
            ship_job = job if published.inline else replace(
                job, broadcast=published.ref
            )
            # ---- map (+ per-split combine) phase: fan out via the backend ----
            # Tasks are shipped as picklable split descriptors (path +
            # range for file-backed sources), so a process backend
            # re-opens the memory map in the child instead of serializing
            # the rows.  Under a spilling shuffle, tasks with fat output
            # spill locally and ship back only a manifest.  Across
            # processes, state ships as descriptors too — the only
            # per-task payload left is O(1)-sized.
            state_args: list[Any] = (
                [self._state.spec(i) for i in range(self.n_splits)]
                if transport_shared
                else self._state.states
            )
            calls = [
                (
                    ship_job,
                    self.source.descriptor(self._bounds[i], self._bounds[i + 1]),
                    i,
                    self.n_splits,
                    split_rngs[i],
                    state_args[i],
                    spill_spec,
                )
                for i in range(self.n_splits)
            ]
            def _retry_map_args(index: int, attempt: int, exc: Exception) -> tuple:
                # Lineage recovery: the worker that died may have held the
                # only live copy of the split's resident state arrays (and
                # its spill never made it back) — rebuild everything for
                # this split, then re-issue the task with a fresh RNG.
                return self._recover_map_call(
                    index, ship_job, rng_blobs[index], spill_spec,
                    transport_shared, fault_stats,
                )

            task_results: list[_MapTaskResult] = backend.run_calls(
                _execute_map_task,
                calls,
                parallelism=self.workers,
                retry=self.retry_policy,
                faults=fault_stats,
                retry_args=_retry_map_args,
            )
            # Re-install per-split state by index.  Tasks in other
            # processes hand back marker updates (resident entries never
            # moved); in-process backends hand back the same dicts.
            for i, result in enumerate(task_results):
                if result.state_update is not None:
                    self._state.apply(result.state_update)
                else:
                    self._state.install(i, result.state)

            counters = Counters()
            for result in task_results:  # merged in split order: deterministic
                counters.merge(result.counters)
            map_flops = [r.flops for r in task_results]
            map_records = int(self._bounds[-1] - self._bounds[0])
            map_emitted = sum(r.map_emitted for r in task_results)

            # ---- shuffle: ingest into the store, in split order (the
            # emission sequence numbers and any pre-aggregation fold
            # depend on this order — it is what makes results identical
            # across backends and worker counts) ----
            for i, result in enumerate(task_results):
                if result.manifest is not None and not os.path.exists(
                    result.manifest.path
                ):
                    # The worker that spilled this split died between
                    # settling its result and ingest, and its spill file
                    # went with it: recover the map output via lineage,
                    # inline and unspilled.
                    result = self._recover_lost_manifest(
                        i, ship_job, rng_blobs[i], transport_shared,
                        fault_stats,
                    )
                if result.manifest is not None:
                    store.add_manifest(result.manifest)
                else:
                    store.add_split(i, result.emissions)
                result.emissions = []  # drop driver references promptly
            shuffle_records = store.stats.records
            shuffle_bytes = store.stats.nbytes
            combine_emitted = (
                shuffle_records if job.combiner_factory is not None else 0
            )

            # ---- reduce phase: independent per key, streamed from the
            # store in budget-bounded windows (the in-memory store serves
            # everything as one window, in sorted key order — the
            # historical behavior).  Output and work are re-ordered by
            # the sorted reduce-key rule afterwards, so both are
            # bit-identical whichever store (and window shape) ran. ----
            window: list[tuple[Hashable, list[Any], int]] = []
            window_bytes = 0
            window_cap = store.reduce_window_bytes
            reduced: dict[Hashable, tuple[list[KeyValue], float]] = {}

            def _flush_window() -> None:
                nonlocal window_bytes
                if not window:
                    return
                results = backend.run_calls(
                    _execute_reduce_task,
                    [
                        (job.reducer_factory, job.name, key, values)
                        for key, values, _ in window
                    ],
                    parallelism=self.workers,
                    # Reduce tasks are pure functions of driver-held
                    # groups: a crashed attempt retries with the same
                    # arguments, no lineage needed.
                    retry=self.retry_policy,
                    faults=fault_stats,
                )
                for (key, _values, _nb), result in zip(window, results):
                    reduced[key] = result
                window.clear()
                store.discharge(window_bytes)
                window_bytes = 0

            for key, values, group_nbytes in store.groups():
                window.append((key, values, group_nbytes))
                window_bytes += group_nbytes
                if window_cap is not None and window_bytes >= window_cap:
                    _flush_window()
            _flush_window()

            output: dict[Hashable, list[Any]] = {}
            # Pre-aggregation folds are reduce work done early; 0.0 for
            # the in-memory store. All work terms are integer-valued, so
            # this sum is exact and grouping-independent.
            reduce_flops = store.stats.combine_flops
            reduce_emitted = 0
            for key in _sorted_reduce_keys(reduced):  # deterministic order
                results, work = reduced[key]
                reduce_flops += work
                for out_key, out_value in results:
                    output.setdefault(out_key, []).append(out_value)
                    reduce_emitted += 1

            # ---- simulated clock ----
            # The broadcast crosses the simulated network once per job
            # on every backend (``job_time``'s ``broadcast_bytes``); a
            # map task's scan bytes are its split's alone.
            bytes_per_split = [
                float(self.source.block_nbytes(self._bounds[i], self._bounds[i + 1]))
                for i in range(self.n_splits)
            ]
            stats = JobStats(
                name=job.name,
                n_splits=self.n_splits,
                map_records=map_records,
                map_emitted=map_emitted,
                combine_emitted=combine_emitted,
                shuffle_records=shuffle_records,
                shuffle_bytes=shuffle_bytes,
                reduce_emitted=reduce_emitted,
                map_flops_per_split=map_flops,
                reduce_flops=reduce_flops,
                broadcast_bytes=broadcast_bytes,
                state_bytes_shipped=self._state.drain_shipped(),
                state_bytes_resident=self._state.held_bytes,
                faults=fault_stats.as_dict(),
                spill_bytes=store.stats.spill_bytes,
                spill_files=store.stats.spill_files,
                shuffle_peak_bytes=store.stats.peak_bytes,
            )
            stats.time = self.cluster.job_time(
                map_flops_per_split=map_flops,
                map_bytes_per_split=bytes_per_split,
                shuffle_bytes=shuffle_bytes,
                reduce_flops=reduce_flops,
                spill_bytes=float(stats.spill_bytes),
                broadcast_bytes=float(broadcast_bytes),
            )
            if stats.spill_files:
                self.shuffle_counters.increment("shuffle", "spilled_jobs", 1)
                self.shuffle_counters.increment(
                    "shuffle", "spill_files", stats.spill_files
                )
                self.shuffle_counters.increment(
                    "shuffle", "spill_bytes", stats.spill_bytes
                )
            self.shuffle_counters.record_max(
                "shuffle", "peak_bytes", stats.shuffle_peak_bytes
            )
            self.simulated_seconds += stats.time.total
            self.job_log.append(stats)
            # The job is now part of history: record its lineage so a
            # later worker loss can replay it for the affected split.
            self._lineage.append((job, rng_blobs))
            return JobResult(output=output, counters=counters, stats=stats)
        finally:
            # Normal completion, failure, or interrupt: the job's spill
            # files and its published broadcast segment are gone before
            # the caller sees the JobResult (broadcasts are job-scoped,
            # like a Spark broadcast destroyed at the end of the round).
            # Nested so a release() blown up by a dead worker (e.g. a
            # BrokenProcessPool unraveling mid-release) can never leak
            # the spill tempdir behind it.
            try:
                if published is not None:
                    published.release()
            finally:
                try:
                    store.close()
                finally:
                    self._active_store = None

    # ------------------------------------------------------------------
    def _recover_map_call(
        self,
        split_id: int,
        ship_job: MapReduceJob,
        rng_blob: bytes,
        spill_spec: MapSpillSpec | None,
        transport_shared: bool,
        fault_stats: FaultStats,
    ) -> tuple:
        """Rebuild a crashed map task's argument tuple via lineage replay.

        A dead worker may have held the split's only live copy of its
        resident state segments mid-mutation, and any spill file it wrote
        died with its tempdir lease — so nothing the lost attempt
        produced is trusted.  Recovery recomputes the split's state from
        first principles: replay every previously *completed* job for
        this split (immutable input + the recorded pre-dispatch RNG
        streams — deterministic, so the replayed state is bit-identical
        to what the lost worker saw), reinstall it, and hand back a
        fresh argument tuple for the retry.

        Replay runs inline on the driver; the engine's results are
        worker-count-invariant, so inline replay is bit-identical to
        worker execution.  The recomputed bytes are charged to
        ``state_recomputed_bytes`` — and the plane's shipped counter is
        restored afterwards, so ``state_bytes_*`` telemetry stays
        bit-identical to a fault-free run.
        """
        descriptor = self.source.descriptor(
            self._bounds[split_id], self._bounds[split_id + 1]
        )
        with self._recover_lock:
            shipped0 = self._state.shipped_bytes
            state: dict[str, Any] = {}
            for past_job, past_blobs in self._lineage:
                replay = _execute_map_task(
                    past_job,
                    descriptor,
                    split_id,
                    self.n_splits,
                    pickle.loads(past_blobs[split_id]),
                    state,
                    None,  # replayed emissions are discarded; never spill
                )
                if replay.state is not None:
                    state = replay.state
            recomputed = sum(
                int(v.nbytes) for v in state.values() if isinstance(v, np.ndarray)
            )
            self._state.install(split_id, state)
            state_arg: Any = (
                self._state.spec(split_id)
                if transport_shared
                else self._state.states[split_id]
            )
            self._state.shipped_bytes = shipped0
        fault_stats.bump("state_recomputed_bytes", recomputed)
        return (
            ship_job,
            descriptor,
            split_id,
            self.n_splits,
            pickle.loads(rng_blob),
            state_arg,
            spill_spec,
        )

    def _recover_lost_manifest(
        self,
        split_id: int,
        ship_job: MapReduceJob,
        rng_blob: bytes,
        transport_shared: bool,
        fault_stats: FaultStats,
    ) -> _MapTaskResult:
        """Re-run a map task whose spill manifest vanished before ingest.

        The map phase settled successfully, but by ingest time the
        split's spill file is gone — the worker that wrote it died
        holding the directory.  The fix is the same lineage discipline as a task
        crash, applied one phase later: rebuild the split's pre-job
        state, replay the owning map task inline on the driver with
        ``spill_spec=None`` (so the recovered emissions stay in memory),
        and re-install the resulting post-job state.  Everything is
        deterministic, so the replayed emissions and state are
        bit-identical to what the lost manifest froze.
        """
        fault_stats.bump("manifests_recovered")
        args = self._recover_map_call(
            split_id, ship_job, rng_blob, None, transport_shared, fault_stats
        )
        replay = _execute_map_task(*args)
        # ``_recover_map_call`` installed the *pre*-job state; the map
        # phase's settle loop already installed the post-job state this
        # replay reproduces — put it back (the shipped counter
        # snapshot/restored so ``state_bytes_*`` telemetry stays
        # bit-identical).
        with self._recover_lock:
            shipped0 = self._state.shipped_bytes
            if replay.state_update is not None:
                self._state.apply(replay.state_update)
            else:
                self._state.install(split_id, replay.state)
            self._state.shipped_bytes = shipped0
        return replay

    def submit_job(self, job: MapReduceJob) -> "JobFuture":
        """Run ``job`` (exactly :meth:`run_job`); return a resolved future."""
        return JobFuture(self.run_job(job))

    # ------------------------------------------------------------------
    def charge_sequential(self, flops: float, label: str = "driver") -> float:
        """Charge a single-machine section (e.g. reclustering) to the clock.

        Returns the seconds charged; also appended to ``job_log`` as a
        pseudo-job so reports show where the time went.
        """
        seconds = self.cluster.sequential_seconds(flops)
        self.simulated_seconds += seconds
        stats = JobStats(
            name=f"[sequential] {label}",
            n_splits=1,
            map_records=0,
            map_emitted=0,
            combine_emitted=0,
            shuffle_records=0,
            shuffle_bytes=0,
            reduce_emitted=0,
            map_flops_per_split=[flops],
            time=PhaseTime(overhead=0.0, map=seconds, shuffle=0.0, reduce=0.0),
        )
        self.job_log.append(stats)
        return seconds

    @property
    def simulated_minutes(self) -> float:
        """Simulated wall-clock in minutes (Table 4's unit)."""
        return self.simulated_seconds / 60.0

    @property
    def peak_shuffle_bytes(self) -> int:
        """Largest driver-held shuffle residency of any job so far."""
        return max((s.shuffle_peak_bytes for s in self.job_log), default=0)


class JobFuture:
    """An already-resolved job handle (:meth:`LocalMapReduceRuntime.submit_job`).

    Jobs run synchronously, so every accessor returns at once: ``result()``
    is the full :class:`JobResult`; ``output()``, ``key()`` and
    ``single()`` read its reduced output.
    """

    def __init__(self, result: JobResult):
        self._result = result

    def done(self) -> bool:
        return True

    def result(self) -> JobResult:
        return self._result

    def output(self) -> dict[Hashable, list[Any]]:
        """The reduced output dict."""
        return self._result.output

    def key(self, key: Hashable) -> list[Any]:
        """Values of one output key (empty if absent)."""
        return list(self._result.output.get(key) or ())

    def single(self, key: Hashable) -> Any:
        """The unique value of ``key`` (raises if absent or non-unique)."""
        return self._result.single(key)


def _group(emissions) -> dict[Hashable, list[Any]]:
    """Group key-value pairs by key, preserving emission order per key."""
    grouped: dict[Hashable, list[Any]] = {}
    for key, value in emissions:
        grouped.setdefault(key, []).append(value)
    return grouped
