"""Tests for repro.mapreduce.runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import use_config
from repro.exceptions import MapReduceError
from repro.mapreduce.job import BlockMapper, MapReduceJob, Reducer
from repro.mapreduce.runtime import LocalMapReduceRuntime, estimate_nbytes, record_nbytes


class RowSumMapper(BlockMapper):
    """Emit the sum of each split's rows under one key."""

    def map_block(self, block):
        self.work += block.size
        yield "sum", block.sum()


class CountMapper(BlockMapper):
    def map_block(self, block):
        # Also exercise per-split state persistence across jobs.
        self.ctx.state["rows_seen"] = self.ctx.state.get("rows_seen", 0) + block.shape[0]
        yield "count", block.shape[0]
        yield "state", self.ctx.state["rows_seen"]


class SumReducer(Reducer):
    def reduce(self, key, values):
        self.work += len(values)
        yield key, sum(values)


class FailingMapper(BlockMapper):
    def map_block(self, block):
        raise RuntimeError("kaboom")
        yield  # pragma: no cover


class FailingReducer(Reducer):
    def reduce(self, key, values):
        raise RuntimeError("reduce-kaboom")
        yield  # pragma: no cover


def make_job(mapper=RowSumMapper, reducer=SumReducer):
    return MapReduceJob(name="test", mapper_factory=mapper, reducer_factory=reducer)


class TestEstimateNbytes:
    def test_ndarray(self):
        assert estimate_nbytes(np.zeros(10)) == 80

    def test_scalar(self):
        assert estimate_nbytes(3.14) == 8

    def test_string(self):
        assert estimate_nbytes("abcd") == 4

    def test_tuple_framed(self):
        # 8 container header + 8 per slot + elements.
        assert estimate_nbytes((1.0, 2.0)) == 8 + 8 * 2 + 16

    def test_dict_counts_key_bytes(self):
        # 8 container header + per entry: 8 framing + key + value.
        assert estimate_nbytes({"a": 1.0}) == 8 + 8 + 1 + 8
        assert estimate_nbytes({"abcd": 1.0}) == 8 + 8 + 4 + 8

    def test_bytes(self):
        assert estimate_nbytes(b"xyz") == 3

    # -- regression: containers and wide scalars weigh what they hold ---
    def test_empty_containers_are_not_free(self):
        # Used to weigh 0 bytes; a container always costs its header.
        assert estimate_nbytes(()) == 8
        assert estimate_nbytes([]) == 8
        assert estimate_nbytes({}) == 8

    def test_sets_counted_like_other_containers(self):
        # Used to fall through to the 8-byte scalar default.
        assert estimate_nbytes(frozenset({1.0})) == 8 + 8 + 8
        assert estimate_nbytes({1.0, 2.0}) == 8 + 8 * 2 + 16

    def test_numpy_scalars_charge_their_itemsize(self):
        # np.complex128 used to be charged 8 bytes like a Python float.
        assert estimate_nbytes(np.complex128(1 + 2j)) == 16
        assert estimate_nbytes(np.float64(1.0)) == 8
        assert estimate_nbytes(np.float32(1.0)) == 4

    def test_nested_dict_in_container_framed(self):
        # A nested dict used to contribute only its entries (an empty one
        # nothing at all); now every nesting level pays its header.
        inner = {"a": 1.0}
        assert estimate_nbytes([inner]) == 8 + 8 + estimate_nbytes(inner)

    def test_numpy_scalar_keys_consistent_between_stores(self):
        # The same scale prices the record whether the key is a Python
        # or a NumPy scalar of the same width.
        assert record_nbytes(np.int64(3), 1.0) == record_nbytes(3, 1.0)

    # -- regression: scipy sparse used to weigh 8 bytes ----------------
    def test_csr_charges_stored_triple(self):
        sparse = pytest.importorskip("scipy.sparse")
        m = sparse.random(50, 40, density=0.1, format="csr", dtype=np.float64)
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        # Used to fall through to the 8-byte scalar default.
        assert estimate_nbytes(m) == expected
        # And must charge nnz-proportional bytes, not the rectangle.
        assert estimate_nbytes(m) < m.shape[0] * m.shape[1] * 8

    def test_csc_and_coo_charge_like_their_csr_form(self):
        sparse = pytest.importorskip("scipy.sparse")
        m = sparse.random(50, 40, density=0.1, format="csr", dtype=np.float64)
        assert estimate_nbytes(m.tocsc()) == (
            m.tocsc().data.nbytes
            + m.tocsc().indices.nbytes
            + m.tocsc().indptr.nbytes
        )
        assert estimate_nbytes(m.tocoo()) == estimate_nbytes(m)


class TestShuffleKeyAccounting:
    """Shuffle volume must charge key payload, not a flat per-record rate."""

    def test_record_nbytes_scalar_key_unchanged(self):
        # Scalar keys estimate at 8 bytes: 8 framing + 8 key + value, the
        # same 16-byte overhead the old flat accounting charged.
        assert record_nbytes(3, 1.0) == 24

    def test_record_nbytes_string_and_tuple_keys(self):
        assert record_nbytes("a" * 32, 1.0) == 8 + 32 + 8
        assert record_nbytes(("agg", 7), 1.0) == 8 + (8 + 8 * 2 + 3 + 8) + 8

    def _shuffle_bytes_for_key(self, rng, key):
        class KeyedMapper(BlockMapper):
            def map_block(self, block):
                yield key, float(block.sum())

        X = rng.normal(size=(40, 2))
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        return rt.run_job(make_job(mapper=KeyedMapper)).stats.shuffle_bytes

    def test_long_keys_grow_shuffle_volume(self, rng):
        short = self._shuffle_bytes_for_key(rng, "k")
        long = self._shuffle_bytes_for_key(rng, "k" * 100)
        assert long - short == 4 * 99  # 4 splits x 99 extra key bytes

    def test_array_key_counted(self, rng):
        key = (1, 2, 3, 4, 5, 6, 7, 8)
        flat = self._shuffle_bytes_for_key(rng, "ab")
        tupled = self._shuffle_bytes_for_key(rng, key)
        assert tupled - flat == 4 * (estimate_nbytes(key) - estimate_nbytes("ab"))

    def test_job_shuffle_bytes_match_record_nbytes(self, rng):
        class MultiMapper(BlockMapper):
            def map_block(self, block):
                yield ("agg", self.ctx.split_id), block.sum(axis=0)
                yield "phi", float(block.shape[0])

        X = rng.normal(size=(30, 3))
        rt = LocalMapReduceRuntime(X, n_splits=3, seed=0)
        stats = rt.run_job(make_job(mapper=MultiMapper)).stats
        expected = sum(
            record_nbytes(("agg", i), np.zeros(3)) + record_nbytes("phi", 0.0)
            for i in range(3)
        )
        assert stats.shuffle_bytes == expected


class TestParallelExecution:
    """The map phase fans out over threads without changing any output."""

    def _run(self, X, workers, mapper=RowSumMapper, seed=0):
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=seed, workers=workers)
        with rt:
            return rt.run_job(make_job(mapper=mapper))

    def test_output_identical_across_worker_counts(self, rng):
        X = rng.normal(size=(83, 3))
        serial = self._run(X, 1)
        threaded = self._run(X, 4)
        assert serial.output == threaded.output
        assert serial.stats.shuffle_bytes == threaded.stats.shuffle_bytes
        assert serial.stats.map_flops_per_split == threaded.stats.map_flops_per_split
        assert serial.stats.time == threaded.stats.time

    def test_rng_draws_identical_across_worker_counts(self, rng):
        class RngMapper(BlockMapper):
            def map_block(self, block):
                yield ("draw", self.ctx.split_id), float(self.ctx.rng.random())

        X = rng.normal(size=(50, 2))
        a = self._run(X, 1, mapper=RngMapper, seed=3)
        b = self._run(X, 4, mapper=RngMapper, seed=3)
        assert a.output == b.output

    def test_counters_identical_across_worker_counts(self, rng):
        class CountingMapper(BlockMapper):
            def map_block(self, block):
                self.ctx.counters.increment("g", "rows", block.shape[0])
                self.ctx.counters.increment("g", f"split{self.ctx.split_id}", 1)
                yield "n", block.shape[0]

        X = rng.normal(size=(64, 2))
        a = self._run(X, 1, mapper=CountingMapper)
        b = self._run(X, 4, mapper=CountingMapper)
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_split_state_persists_with_threads(self, rng):
        X = rng.normal(size=(40, 2))
        with LocalMapReduceRuntime(X, n_splits=4, seed=0, workers=4) as rt:
            rt.run_job(make_job(mapper=CountMapper))
            second = rt.run_job(make_job(mapper=CountMapper))
        assert second.single("state") == 2 * 40

    def test_mapper_error_wrapped_in_parallel_mode(self, rng):
        X = rng.normal(size=(10, 2))
        with LocalMapReduceRuntime(X, n_splits=2, workers=2) as rt:
            with pytest.raises(MapReduceError, match="mapper failed.*split 0"):
                rt.run_job(make_job(mapper=FailingMapper))

    def test_failed_job_drains_stragglers_before_raising(self, rng):
        # Split 0 fails fast while the others are still running; run_job
        # must not raise until every in-flight task has finished, so a
        # retry on the same runtime never races stragglers on split state.
        # Pins the thread backend: this asserts the *parallel* drain
        # semantics (inline/serial execution legitimately fails fast).
        import time

        from repro.exec import use_backend

        class SlowStatefulMapper(BlockMapper):
            def map_block(self, block):
                if self.ctx.split_id == 0:
                    raise RuntimeError("kaboom")
                time.sleep(0.05)
                self.ctx.state["touched"] = self.ctx.state.get("touched", 0) + 1
                yield "ok", 1

        X = rng.normal(size=(40, 2))
        with use_backend("thread", budget=4):
            with LocalMapReduceRuntime(X, n_splits=4, seed=0, workers=4) as rt:
                with pytest.raises(MapReduceError, match="split 0"):
                    rt.run_job(make_job(mapper=SlowStatefulMapper))
                # All stragglers completed before the raise above.
                assert [s.get("touched") for s in rt.split_states] == [None, 1, 1, 1]
                retry = rt.run_job(make_job(mapper=CountMapper))
                assert retry.single("count") == 40

    def test_invalid_workers_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(MapReduceError, match="workers"):
            LocalMapReduceRuntime(X, n_splits=2, workers=0)

    def test_runtime_shuts_down_backend_it_constructed(self, rng):
        # backend="thread" builds a private backend; leaving the context
        # must release its pool (idempotently), not leak it per runtime.
        X = rng.normal(size=(20, 2))
        with LocalMapReduceRuntime(X, n_splits=2, workers=2,
                                   backend="thread") as rt:
            rt.run_job(make_job())
            owned = rt.backend
            # Async maps run inline on scheduler lanes, so the job alone
            # may never build the pool; force it so exit has a pool to
            # release in either scheduler mode.
            owned.run_calls(int, [("1",), ("2",)], parallelism=2)
            assert owned._pool is not None
        assert owned._pool is None
        rt.shutdown()  # idempotent

    def test_runtime_leaves_shared_backend_running(self, rng):
        from repro.exec import ThreadBackend, WorkerBudget

        X = rng.normal(size=(20, 2))
        shared = ThreadBackend(budget=WorkerBudget(3))
        try:
            with LocalMapReduceRuntime(X, n_splits=2, workers=2,
                                       backend=shared) as rt:
                rt.run_job(make_job())
                shared.run_calls(int, [("1",), ("2",)], parallelism=2)
            assert shared._pool is not None  # caller's instance untouched
        finally:
            shared.shutdown()

    def test_invalid_backend_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(MapReduceError, match="backend"):
            LocalMapReduceRuntime(X, n_splits=2, backend="gpu")


class TestWorkerResolution:
    """argument > installed config > REPRO_EXEC_WORKERS > engine count."""

    @staticmethod
    def _workers(**kwargs) -> int:
        X = np.zeros((8, 2))
        with LocalMapReduceRuntime(X, n_splits=2, **kwargs) as rt:
            return rt.workers

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "7")
        assert self._workers(workers=3) == 3

    def test_default_install_and_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "7")
        with use_config(exec_workers=5):
            assert self._workers() == 5
        assert self._workers() == 7

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "7")
        assert self._workers() == 7

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
        with pytest.raises(MapReduceError, match="REPRO_EXEC_WORKERS"):
            self._workers()

    def test_falls_back_to_engine_workers(self, monkeypatch):
        from repro.linalg.engine import Engine, use_engine

        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        with use_engine(Engine(workers=6)):
            assert self._workers() == 6


class TestRuntimeBasics:
    def test_sum_matches_sequential(self, rng):
        X = rng.normal(size=(100, 3))
        rt = LocalMapReduceRuntime(X, n_splits=7, seed=0)
        result = rt.run_job(make_job())
        assert result.single("sum") == pytest.approx(X.sum())

    def test_split_count_capped_by_rows(self):
        X = np.ones((3, 2))
        rt = LocalMapReduceRuntime(X, n_splits=10)
        assert rt.n_splits == 3

    def test_splits_cover_data(self, rng):
        X = rng.normal(size=(53, 2))
        rt = LocalMapReduceRuntime(X, n_splits=8)
        np.testing.assert_array_equal(np.vstack(rt.splits), X)

    def test_empty_input_rejected(self):
        with pytest.raises(MapReduceError):
            LocalMapReduceRuntime(np.empty((0, 2)))

    def test_state_persists_across_jobs(self, rng):
        X = rng.normal(size=(40, 2))
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        rt.run_job(make_job(mapper=CountMapper))
        second = rt.run_job(make_job(mapper=CountMapper))
        # Second job sees rows_seen doubled in every split.
        assert second.single("state") == 2 * 40

    def test_mapper_error_wrapped(self, rng):
        X = rng.normal(size=(10, 2))
        rt = LocalMapReduceRuntime(X, n_splits=2)
        with pytest.raises(MapReduceError, match="mapper failed.*split 0"):
            rt.run_job(make_job(mapper=FailingMapper))

    def test_reducer_error_wrapped(self, rng):
        X = rng.normal(size=(10, 2))
        rt = LocalMapReduceRuntime(X, n_splits=2)
        with pytest.raises(MapReduceError, match="reducer failed"):
            rt.run_job(make_job(reducer=FailingReducer))

    def test_single_raises_on_missing_key(self, rng):
        X = rng.normal(size=(10, 2))
        rt = LocalMapReduceRuntime(X, n_splits=2)
        result = rt.run_job(make_job())
        with pytest.raises(MapReduceError, match="no output"):
            result.single("nope")

    def test_per_split_rngs_differ(self, rng):
        class RngMapper(BlockMapper):
            def map_block(self, block):
                yield "draw", float(self.ctx.rng.random())

        X = rng.normal(size=(40, 2))
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        draws = rt.run_job(
            MapReduceJob(name="rng", mapper_factory=RngMapper, reducer_factory=SumReducer)
        )
        # SumReducer sums 4 distinct uniforms; with identical streams the
        # sum would be 4x one value — astronomically unlikely otherwise.
        class CollectReducer(Reducer):
            def reduce(self, key, values):
                yield key, values

        rt2 = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        collected = rt2.run_job(
            MapReduceJob(name="rng", mapper_factory=RngMapper,
                         reducer_factory=CollectReducer)
        ).single("draw")
        assert len(set(collected)) == 4

    def test_deterministic_across_replays(self, rng):
        class RngMapper(BlockMapper):
            def map_block(self, block):
                yield "draw", float(self.ctx.rng.random())

        X = rng.normal(size=(40, 2))
        a = LocalMapReduceRuntime(X, n_splits=4, seed=7).run_job(
            MapReduceJob(name="rng", mapper_factory=RngMapper, reducer_factory=SumReducer)
        )
        b = LocalMapReduceRuntime(X, n_splits=4, seed=7).run_job(
            MapReduceJob(name="rng", mapper_factory=RngMapper, reducer_factory=SumReducer)
        )
        assert a.single("draw") == b.single("draw")

    def test_submit_job_matches_run_job(self, rng):
        class DrawMapper(BlockMapper):
            def map_block(self, block):
                yield "draw", float(self.ctx.rng.random())
                yield "colsum", block.sum(axis=0)

        class StackReducer(Reducer):
            def reduce(self, key, values):
                yield key, np.asarray(values)

        job = MapReduceJob(
            name="draws", mapper_factory=DrawMapper, reducer_factory=StackReducer
        )
        X = rng.normal(size=(60, 3))
        ran = LocalMapReduceRuntime(X, n_splits=4, seed=5).run_job(job)
        future = LocalMapReduceRuntime(X, n_splits=4, seed=5).submit_job(job)
        assert future.done()
        submitted = future.result()
        assert list(submitted.output) == list(ran.output) == ["colsum", "draw"]
        assert list(future.output()) == list(ran.output)
        for key, values in ran.output.items():
            expected = [v.tobytes() for v in values]
            assert [v.tobytes() for v in submitted.output[key]] == expected
            assert [v.tobytes() for v in future.output()[key]] == expected
            assert [v.tobytes() for v in future.key(key)] == expected
            assert future.single(key).tobytes() == ran.single(key).tobytes()
        assert submitted.counters.as_dict() == ran.counters.as_dict()


class TestDeterministicOutputOrder:
    """JobResult.output key order must not depend on split emission order.

    Before the exec refactor the output dict used grouped-dict insertion
    order — whatever key split 0 happened to emit first — which is not a
    deterministic function of the job. Reduce keys are now folded (and
    the output assembled) in sorted order.
    """

    class RotatingKeyMapper(BlockMapper):
        """Each split emits the same keys in a different order."""

        KEYS = ["delta", "alpha", "charlie", "bravo"]

        def map_block(self, block):
            r = self.ctx.split_id % len(self.KEYS)
            for key in self.KEYS[r:] + self.KEYS[:r]:
                yield key, 1

    class MixedKeyMapper(BlockMapper):
        """Tuple and string keys together."""

        def map_block(self, block):
            keys = [("agg", 2), "phi", ("agg", 0), ("agg", 1)]
            r = self.ctx.split_id % len(keys)
            for key in keys[r:] + keys[:r]:
                yield key, 1

    def test_output_keys_sorted(self, rng):
        X = rng.normal(size=(40, 2))
        result = LocalMapReduceRuntime(X, n_splits=4, seed=0).run_job(
            make_job(mapper=self.RotatingKeyMapper)
        )
        assert list(result.output) == ["alpha", "bravo", "charlie", "delta"]

    def test_output_key_order_invariant_to_split_count(self, rng):
        X = rng.normal(size=(48, 2))
        orders = {
            n_splits: tuple(
                LocalMapReduceRuntime(X, n_splits=n_splits, seed=0)
                .run_job(make_job(mapper=self.RotatingKeyMapper))
                .output
            )
            for n_splits in (1, 2, 3, 4, 6)
        }
        assert len(set(orders.values())) == 1

    def test_mixed_type_keys_have_one_total_order(self, rng):
        X = rng.normal(size=(30, 2))
        result = LocalMapReduceRuntime(X, n_splits=3, seed=0).run_job(
            make_job(mapper=self.MixedKeyMapper)
        )
        # Type-name first (str < tuple), then within-type order.
        assert list(result.output) == ["phi", ("agg", 0), ("agg", 1), ("agg", 2)]

    def test_reduce_flops_deterministic_across_split_orders(self, rng):
        X = rng.normal(size=(40, 2))
        a = LocalMapReduceRuntime(X, n_splits=4, seed=0).run_job(
            make_job(mapper=self.RotatingKeyMapper)
        )
        b = LocalMapReduceRuntime(X, n_splits=4, seed=0, workers=4).run_job(
            make_job(mapper=self.RotatingKeyMapper)
        )
        assert a.stats.reduce_flops == b.stats.reduce_flops
        assert list(a.output) == list(b.output)


class TestSimulatedClock:
    def test_clock_advances(self, rng):
        X = rng.normal(size=(30, 2))
        rt = LocalMapReduceRuntime(X, n_splits=3, seed=0)
        assert rt.simulated_seconds == 0.0
        rt.run_job(make_job())
        after_one = rt.simulated_seconds
        assert after_one > 0.0
        rt.run_job(make_job())
        assert rt.simulated_seconds > after_one

    def test_charge_sequential(self, rng):
        X = rng.normal(size=(10, 2))
        rt = LocalMapReduceRuntime(X, n_splits=2, seed=0)
        seconds = rt.charge_sequential(rt.cluster.sequential_flops * 3, label="recluster")
        assert seconds == pytest.approx(3.0)
        assert rt.job_log[-1].name == "[sequential] recluster"

    def test_job_log_records(self, rng):
        X = rng.normal(size=(30, 2))
        rt = LocalMapReduceRuntime(X, n_splits=3, seed=0)
        rt.run_job(make_job())
        stats = rt.job_log[0]
        assert stats.map_records == 30
        assert stats.n_splits == 3
        assert stats.time is not None
        assert rt.simulated_minutes == pytest.approx(rt.simulated_seconds / 60.0)
