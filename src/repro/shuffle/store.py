"""Shuffle stores: where map emissions live between map and reduce.

The MapReduce runtime routes every emission through a
:class:`ShuffleStore`; two implementations ship:

:class:`MemoryShuffleStore`
    The classic path and the zero-copy fast path: records are grouped in
    a driver-side dict, values are the very objects the mappers emitted
    (never copied, never serialized).  Residency is the whole shuffle.

:class:`SpillingShuffleStore`
    Out-of-core: records are hash-partitioned and buffered; when driver
    residency exceeds a byte budget, each partition's buffer is sorted
    by ``(canonical key, emission seq)`` and appended to a spill file as
    one run.  A job with a *fold-safe* combiner gets combiner-aware
    pre-aggregation first: each key's values fold into one running
    accumulator in strict emission order, so most combiner jobs never
    spill at all.  At reduce time a deterministic sorted-key external
    merge (:func:`~repro.shuffle.spill.iter_merged_groups`) streams one
    group at a time; peak driver-held shuffle bytes stay around the
    budget instead of the shuffle volume.

Bit-identity contract
---------------------
Both stores hand the reduce phase the same groups with values in the
same (global emission) order, so reducers fold the same floats in the
same sequence and results are bit-identical between stores, across
execution backends, worker counts, and budgets.  Pre-aggregation
preserves this because a running accumulator folded in emission order
*is* the reducer's left fold of a prefix: the reducer continues exactly
where the accumulator stopped.  It is only attempted for combiners that
declare ``fold_safe`` (fold one value at a time, emit exactly one
same-key record, charge work per addition), and any key whose fold
misbehaves at runtime is demoted to the raw-spill path — which is
bit-exact unconditionally, since it merely moves untouched records
through disk.

Residency accounting is conservative (a group being reduced is charged
even while its source buffer is still referenced), so ``peak_bytes`` is
an upper bound on real driver-held shuffle bytes.
"""

from __future__ import annotations

import abc
import os
import pathlib
import secrets
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.exceptions import MapReduceError
from repro.shuffle.accounting import record_nbytes
from repro.shuffle.spill import (
    SpillManifest,
    SpillRecord,
    SpillRun,
    canonical_order_key,
    iter_merged_groups,
    key_partition,
    write_run,
)

__all__ = [
    "ShuffleStats",
    "ShuffleStore",
    "MemoryShuffleStore",
    "SpillingShuffleStore",
    "MapSpillSpec",
    "spill_map_emissions",
    "make_shuffle_store",
    "reduce_key_order",
    "sorted_reduce_keys",
    "DEFAULT_SHUFFLE_PARTITIONS",
]

#: Hash partitions a spilling store fans records into (spill files hold
#: one sorted run per partition; the merge processes partitions in order).
DEFAULT_SHUFFLE_PARTITIONS = 8


def reduce_key_order(key: Hashable) -> tuple[str, Any]:
    """Total-order sort key over heterogeneous reduce keys.

    Keys of different Python types (the Lloyd job mixes a string phi key
    with ``(prefix, cluster)`` tuples) are ordered by type name first, so
    any hashable mix sorts without cross-type comparisons.
    """
    return (type(key).__name__, key)


def sorted_reduce_keys(grouped: Iterable[Hashable]) -> list[Hashable]:
    """Deterministic reduce-key order, independent of emission order."""
    try:
        return sorted(grouped, key=reduce_key_order)
    except TypeError:
        # Same-type but unorderable keys: fall back to their repr, which
        # is still content-derived (never id-based for sane key types).
        return sorted(grouped, key=lambda k: (type(k).__name__, repr(k)))


@dataclass
class ShuffleStats:
    """Telemetry of one job's shuffle, whichever store ran it.

    ``records`` / ``nbytes`` are accounted identically by both stores
    (same :func:`~repro.shuffle.accounting.record_nbytes` scale), so the
    simulated cluster's shuffle term never depends on the store choice;
    the spill fields are zero for the in-memory store by construction.
    """

    records: int = 0
    nbytes: int = 0
    spill_bytes: int = 0  #: real bytes written to spill files
    spill_files: int = 0
    peak_bytes: int = 0  #: peak driver-held shuffle residency (accounted)
    combine_flops: float = 0.0  #: pre-aggregation fold work (reduce-phase work)


class ShuffleStore(abc.ABC):
    """One job's shuffle: ingest emissions split by split, serve groups.

    Lifecycle: ``add_split`` / ``add_manifest`` once per split, *in split
    order* (the runtime guarantees this; emission ``seq`` numbers and
    pre-aggregation folds rely on it), then one pass over :meth:`groups`,
    then :meth:`close` (idempotent; also runs on garbage collection for
    the spilling store, so interrupted jobs leak no files).
    """

    def __init__(self) -> None:
        self.stats = ShuffleStats()
        self._held = 0

    # -- residency accounting ------------------------------------------
    def _charge(self, nbytes: int) -> None:
        self._held += nbytes
        if self._held > self.stats.peak_bytes:
            self.stats.peak_bytes = self._held

    def discharge(self, nbytes: int) -> None:
        """Return residency the caller borrowed (a reduced group's bytes)."""
        self._held -= nbytes

    @property
    def held_bytes(self) -> int:
        """Currently-accounted driver-held shuffle bytes."""
        return self._held

    # -- ingestion ------------------------------------------------------
    @abc.abstractmethod
    def add_split(self, split_id: int, emissions: list[tuple[Hashable, Any]]) -> None:
        """Ingest one split's (post-combine) emissions."""

    def add_manifest(self, manifest: SpillManifest) -> None:
        """Ingest a map task's locally-spilled output (spilling store only)."""
        raise MapReduceError(
            f"{type(self).__name__} cannot ingest spill manifests; "
            "map-side spill requires the spilling shuffle store"
        )

    # -- consumption ----------------------------------------------------
    @abc.abstractmethod
    def groups(self) -> Iterator[tuple[Hashable, list[Any], int]]:
        """Yield ``(key, values, nbytes)`` groups, one key at a time.

        Values are in global emission order.  Each yielded group is
        charged to residency; the caller calls :meth:`discharge` with the
        group bytes once it is done with them.
        """

    @property
    def reduce_window_bytes(self) -> int | None:
        """Caller hint: flush reduce windows past this many group bytes.

        ``None`` means unbounded (the in-memory store: everything is
        resident anyway, so windowing would only add latency).
        """
        return None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release buffers and delete any spill files. Idempotent."""

    def __enter__(self) -> "ShuffleStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryShuffleStore(ShuffleStore):
    """Group everything in driver memory — the zero-copy fast path.

    Values are stored by reference (the mappers' own objects); groups
    come out in the runtime's sorted reduce-key order directly, so this
    store reproduces the historical shuffle behavior exactly.
    """

    def __init__(self) -> None:
        super().__init__()
        self._grouped: dict[Hashable, list[Any]] = {}
        self._group_bytes: dict[Hashable, int] = {}

    def add_split(self, split_id: int, emissions: list[tuple[Hashable, Any]]) -> None:
        for key, value in emissions:
            nb = record_nbytes(key, value)
            self.stats.records += 1
            self.stats.nbytes += nb
            self._charge(nb)
            self._grouped.setdefault(key, []).append(value)
            self._group_bytes[key] = self._group_bytes.get(key, 0) + nb

    def groups(self) -> Iterator[tuple[Hashable, list[Any], int]]:
        for key in sorted_reduce_keys(self._grouped):
            yield key, self._grouped[key], self._group_bytes[key]

    def close(self) -> None:
        self._grouped = {}
        self._group_bytes = {}
        self._held = 0


@dataclass(frozen=True)
class MapSpillSpec:
    """Picklable instruction for map tasks: spill fat output locally.

    Shipped to map tasks (like a :class:`~repro.data.splits.SplitDescriptor`)
    when the runtime runs a spilling shuffle.  A task whose post-combine
    emissions weigh more than ``threshold_bytes`` writes them to one spill
    file under ``dir`` and returns only the manifest, cutting backend IPC
    for fat shuffles; small outputs still return inline.
    """

    dir: str
    threshold_bytes: int
    n_partitions: int


def spill_map_emissions(
    spec: MapSpillSpec, split_id: int, emissions: list[tuple[Hashable, Any]]
) -> SpillManifest | None:
    """Spill one map task's emissions if they exceed the spec's threshold.

    Runs inside the map task (worker thread or process — the spill dir is
    on the shared local filesystem either way).  Returns ``None`` when the
    output is small enough to ship inline.
    """
    sizes = [record_nbytes(k, v) for k, v in emissions]
    total = sum(sizes)
    if total <= spec.threshold_bytes:
        return None
    by_partition: dict[int, list[SpillRecord]] = {}
    for index, ((key, value), nb) in enumerate(zip(emissions, sizes)):
        rec: SpillRecord = (
            canonical_order_key(key), (split_id, index), nb, key, value,
        )
        by_partition.setdefault(key_partition(key, spec.n_partitions), []).append(rec)
    # Attempt-unique filename: a retried task must never truncate or
    # interleave with an earlier attempt's file (a timed-out worker may
    # still be writing while it is killed) — the driver only ever reads
    # the one path named in the manifest it actually received.
    token = f"{os.getpid()}-{secrets.token_hex(4)}"
    path = os.path.join(spec.dir, f"map-{split_id:06d}-{token}.spill")
    runs: list[tuple[int, SpillRun]] = []
    with open(path, "wb") as fh:
        for p in sorted(by_partition):
            by_partition[p].sort(key=lambda r: (r[0], r[1]))
            runs.append((p, write_run(fh, by_partition[p])))
        file_bytes = fh.tell()
    return SpillManifest(
        path=path,
        runs=tuple(runs),
        n_records=len(emissions),
        nbytes=total,
        file_bytes=file_bytes,
    )


class SpillingShuffleStore(ShuffleStore):
    """Memory-budgeted shuffle: buffer, pre-aggregate, spill, merge.

    Parameters
    ----------
    budget_bytes:
        Driver-held shuffle residency to aim for.  Buffered records are
        spilled once accounted residency exceeds it; the reduce phase
        windows groups against it too, so peak residency stays around
        ``2 x budget`` (ingest buffer + reduce window) plus one group.
    combiner_factory:
        The job's combiner, if any.  Used for pre-aggregation only when
        the built instance declares ``fold_safe`` (see module docstring).
    n_partitions:
        Hash partitions for spill-file runs.
    spill_dir:
        Parent directory for the managed temp dir (default: the system
        temp dir).  Everything this store writes lives in one
        ``repro-shuffle-*`` directory removed by :meth:`close` — which a
        ``weakref.finalize`` also fires on garbage collection, so even a
        ``KeyboardInterrupt`` mid-job leaves no orphaned files.
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        combiner_factory: Callable[[], Any] | None = None,
        n_partitions: int = DEFAULT_SHUFFLE_PARTITIONS,
        spill_dir: str | os.PathLike | None = None,
    ) -> None:
        super().__init__()
        if budget_bytes < 1:
            raise MapReduceError(
                f"shuffle budget must be >= 1 byte, got {budget_bytes}"
            )
        if n_partitions < 1:
            raise MapReduceError(
                f"n_partitions must be >= 1, got {n_partitions}"
            )
        self.budget_bytes = int(budget_bytes)
        self.n_partitions = int(n_partitions)
        self._spill_parent = None if spill_dir is None else str(spill_dir)
        self._tmpdir: str | None = None
        self._finalizer: weakref.finalize | None = None
        self._buffers: list[list[SpillRecord]] = [[] for _ in range(n_partitions)]
        self._buffer_bytes = [0] * n_partitions
        self._buffered_total = 0
        self._runs: list[list[SpillRun]] = [[] for _ in range(n_partitions)]
        self._spill_count = 0
        # Pre-aggregation state: one running accumulator per key, capped
        # at half the budget (accumulators are never spilled — spilling
        # one would split the fold and break bit-identity).
        self._combiner = None
        if combiner_factory is not None:
            combiner = combiner_factory()
            if getattr(combiner, "fold_safe", False):
                self._combiner = combiner
        self._acc: dict[Hashable, list] = {}  # key -> [seq, nbytes, value]
        self._acc_bytes = 0
        self._acc_cap = max(1, self.budget_bytes // 2)
        self._demoted: set[Hashable] = set()
        self._frozen = False  # set once a manifest arrives (see add_manifest)
        self._closed = False

    # -- managed temp dir ----------------------------------------------
    def spill_directory(self) -> str:
        """The managed temp dir spill files live in (created on demand)."""
        if self._tmpdir is None:
            self._tmpdir = tempfile.mkdtemp(
                prefix="repro-shuffle-", dir=self._spill_parent
            )
            # GC / interpreter-exit safety net: close() is the normal
            # path, but an abandoned store must still delete its files.
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._tmpdir, True
            )
        return self._tmpdir

    def map_spill_spec(self, n_splits: int) -> MapSpillSpec:
        """The spec the runtime ships to this job's map tasks.

        The per-task threshold is ``budget / n_splits``: if every task
        ships inline output at the threshold, the driver holds at most
        one budget's worth of un-ingested emissions.
        """
        return MapSpillSpec(
            dir=self.spill_directory(),
            threshold_bytes=max(1, self.budget_bytes // max(1, n_splits)),
            n_partitions=self.n_partitions,
        )

    # -- ingestion ------------------------------------------------------
    def add_split(self, split_id: int, emissions: list[tuple[Hashable, Any]]) -> None:
        if self._closed:
            raise MapReduceError("shuffle store is closed")
        fold = self._combiner is not None and not self._frozen
        for index, (key, value) in enumerate(emissions):
            nb = record_nbytes(key, value)
            self.stats.records += 1
            self.stats.nbytes += nb
            if fold and key not in self._demoted:
                acc = self._acc.get(key)
                if acc is None:
                    if self._acc_bytes + nb <= self._acc_cap:
                        self._acc[key] = [(split_id, index), nb, value]
                        self._acc_bytes += nb
                        self._charge(nb)
                        continue
                    self._demoted.add(key)
                elif self._fold_into(key, acc, value):
                    continue
                # fold failed: acc was demoted to the buffer; fall through
            self._buffer_record(
                (canonical_order_key(key), (split_id, index), nb, key, value)
            )
            if self._held > self.budget_bytes:
                self._spill_buffers()

    def add_manifest(self, manifest: SpillManifest) -> None:
        if self._closed:
            raise MapReduceError("shuffle store is closed")
        # Freeze pre-aggregation: records on disk now sit *between* any
        # accumulator's folded prefix and future inline emissions, so
        # further folding would reorder the reducer's fold. Frozen
        # accumulators stay bit-exact: they cover a strict emission-order
        # prefix of their key, and the merge replays the rest after them.
        self._frozen = True
        self.stats.records += manifest.n_records
        self.stats.nbytes += manifest.nbytes
        self.stats.spill_bytes += manifest.file_bytes
        self.stats.spill_files += 1
        for partition, run in manifest.runs:
            self._runs[partition].append(run)

    def _fold_into(self, key: Hashable, acc: list, value: Any) -> bool:
        """Fold ``value`` into ``acc`` via the combiner; demote on surprise."""
        out = None
        work_before = self._combiner.work
        try:
            out = list(self._combiner.reduce(key, [acc[2], value]))
        except Exception:  # noqa: BLE001 - any misbehavior demotes the key
            pass
        if out is not None and len(out) == 1 and out[0][0] == key:
            new_nb = record_nbytes(key, out[0][1])
            self._charge(new_nb - acc[1])
            self._acc_bytes += new_nb - acc[1]
            acc[1] = new_nb
            acc[2] = out[0][1]
            return True
        # Demote: the accumulator (a bit-exact prefix fold) becomes a
        # regular buffered record at its first emission's position; the
        # incoming value is buffered by the caller.  The discarded fold's
        # work is rolled back so combine_flops only counts folds that
        # actually replaced reducer additions.
        self._combiner.work = work_before
        seq, nb, partial = self._acc.pop(key)
        self._acc_bytes -= nb
        self._demoted.add(key)
        self._buffer_record((canonical_order_key(key), seq, nb, key, partial))
        self.discharge(nb)  # re-charged by _buffer_record
        return False

    def _buffer_record(self, rec: SpillRecord) -> None:
        partition = key_partition(rec[3], self.n_partitions)
        self._buffers[partition].append(rec)
        self._buffer_bytes[partition] += rec[2]
        self._buffered_total += rec[2]
        self._charge(rec[2])

    def _spill_buffers(self) -> None:
        if self._buffered_total == 0:
            return  # only accumulators are resident; they never spill
        path = os.path.join(
            self.spill_directory(), f"spill-{self._spill_count:06d}.run"
        )
        self._spill_count += 1
        with open(path, "wb") as fh:
            for partition in range(self.n_partitions):
                records = self._buffers[partition]
                if not records:
                    continue
                records.sort(key=lambda r: (r[0], r[1]))
                self._runs[partition].append(write_run(fh, records))
                self.discharge(self._buffer_bytes[partition])
                self._buffered_total -= self._buffer_bytes[partition]
                self._buffers[partition] = []
                self._buffer_bytes[partition] = 0
            self.stats.spill_bytes += fh.tell()
        self.stats.spill_files += 1

    # -- consumption ----------------------------------------------------
    @property
    def reduce_window_bytes(self) -> int | None:
        return self.budget_bytes

    def groups(self) -> Iterator[tuple[Hashable, list[Any], int]]:
        if self._combiner is not None:
            self.stats.combine_flops = float(self._combiner.work)
        acc_by_partition: dict[int, list[SpillRecord]] = {}
        for key, (seq, nb, value) in self._acc.items():
            rec: SpillRecord = (canonical_order_key(key), seq, nb, key, value)
            acc_by_partition.setdefault(
                key_partition(key, self.n_partitions), []
            ).append(rec)
        for partition in range(self.n_partitions):
            resident = self._buffers[partition] + acc_by_partition.get(partition, [])
            resident.sort(key=lambda r: (r[0], r[1]))
            resident_bytes = sum(r[2] for r in resident)
            streams = [run.iter_records() for run in self._runs[partition]]
            streams.append(iter(resident))
            for key, values, nbytes in iter_merged_groups(streams):
                self._charge(nbytes)
                yield key, values, nbytes
            # This partition is drained: release its in-memory residue.
            self._buffers[partition] = []
            self._buffer_bytes[partition] = 0
            self.discharge(resident_bytes)
        self._buffered_total = 0
        self._acc = {}
        self._acc_bytes = 0

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffers = [[] for _ in range(self.n_partitions)]
        self._buffer_bytes = [0] * self.n_partitions
        self._buffered_total = 0
        self._acc = {}
        self._acc_bytes = 0
        self._runs = [[] for _ in range(self.n_partitions)]
        self._held = 0
        if self._finalizer is not None:
            self._finalizer()  # rmtree now; detaches the GC hook
            self._finalizer = None
        self._tmpdir = None


def make_shuffle_store(
    budget_bytes: int | None,
    *,
    combiner_factory: Callable[[], Any] | None = None,
    n_partitions: int = DEFAULT_SHUFFLE_PARTITIONS,
    spill_dir: str | os.PathLike | None = None,
) -> ShuffleStore:
    """Build the store for one job: in-memory unless a budget is set."""
    if budget_bytes is None:
        return MemoryShuffleStore()
    return SpillingShuffleStore(
        budget_bytes,
        combiner_factory=combiner_factory,
        n_partitions=n_partitions,
        spill_dir=spill_dir,
    )
