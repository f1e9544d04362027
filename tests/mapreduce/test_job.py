"""Tests for the MapReduce job-definition layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import JobSpecError
from repro.mapreduce.job import BlockMapper, MapReduceJob, Reducer, SplitContext


class NoopMapper(BlockMapper):
    def map_block(self, block):
        return ()


class NoopReducer(Reducer):
    def reduce(self, key, values):
        return ()


class TestMapReduceJobSpec:
    def test_valid(self):
        job = MapReduceJob(name="j", mapper_factory=NoopMapper,
                           reducer_factory=NoopReducer)
        assert job.broadcast is None

    def test_non_callable_mapper(self):
        with pytest.raises(JobSpecError, match="callable"):
            MapReduceJob(name="j", mapper_factory="nope",
                         reducer_factory=NoopReducer)

    def test_empty_name(self):
        with pytest.raises(JobSpecError, match="name"):
            MapReduceJob(name="", mapper_factory=NoopMapper,
                         reducer_factory=NoopReducer)


class TestLifecycle:
    def test_setup_stores_context(self):
        mapper = NoopMapper()
        ctx = SplitContext(
            split_id=0, n_splits=1, rng=np.random.default_rng(0), state={},
        )
        mapper.setup(ctx)
        assert mapper.ctx is ctx
        assert mapper.work == 0.0

    def test_cleanup_default_empty(self):
        assert list(NoopMapper().cleanup()) == []

    def test_reducer_work_starts_zero(self):
        assert NoopReducer().work == 0.0
