"""Tests for the closed-form timing model (Table 4 inputs)."""

from __future__ import annotations

import math

import pytest

from repro.mapreduce.cluster import ClusterModel
from repro.mapreduce.timing import (
    time_lloyd_iters,
    time_mr_job,
    time_partition,
    time_random,
    time_scalable,
)

PAPER_N, PAPER_D = 4_800_000, 42


@pytest.fixture
def cluster() -> ClusterModel:
    return ClusterModel.paper_2012()


class TestJobPrimitives:
    def test_job_time_includes_overhead(self, cluster):
        t = time_mr_job(cluster, n=1000, d=10, map_flops_per_record=1.0)
        assert t >= cluster.job_overhead_s

    def test_lloyd_linear_in_iters(self, cluster):
        one = time_lloyd_iters(cluster, n=10**6, d=42, k=100, iters=1)
        ten = time_lloyd_iters(cluster, n=10**6, d=42, k=100, iters=10)
        assert ten == pytest.approx(10 * one)


class TestPaperShape:
    """The Table 4 orderings the model must reproduce at paper scale."""

    @staticmethod
    def _times(cluster, k):
        random = time_random(cluster, n=PAPER_N, d=PAPER_D, k=k, lloyd_iters=20)
        km_2k = time_scalable(
            cluster, n=PAPER_N, d=PAPER_D, k=k, l=2 * k, r=5,
            n_candidates=1 + 5 * 2 * k, recluster_iters=30, lloyd_iters=5,
        )
        km_01k = time_scalable(
            cluster, n=PAPER_N, d=PAPER_D, k=k, l=0.1 * k, r=15,
            n_candidates=int(1 + 15 * 0.1 * k), recluster_iters=30, lloyd_iters=5,
        )
        m = int(round(math.sqrt(PAPER_N / k)))
        part = time_partition(
            cluster, n=PAPER_N, d=PAPER_D, k=k, m=m,
            n_intermediate=int(3 * math.sqrt(PAPER_N * k) * math.log(k)),
            lloyd_iters=5,
        )
        return random, km_2k, km_01k, part

    def test_partition_slowest(self, cluster):
        for k in (500, 1000):
            random, km_2k, _, part = self._times(cluster, k)
            assert part["total"] > random["total"]
            assert part["total"] > km_2k["total"]

    def test_partition_degrades_with_k(self, cluster):
        _, _, _, p500 = self._times(cluster, 500)
        _, _, _, p1000 = self._times(cluster, 1000)
        assert p1000["total"] > 2 * p500["total"]

    def test_partition_dominated_by_sequential_phase(self, cluster):
        _, _, _, part = self._times(cluster, 500)
        assert part["phase2_sequential"] > 0.5 * part["total"]

    def test_low_l_pays_for_rounds(self, cluster):
        _, km_2k, km_01k, _ = self._times(cluster, 500)
        assert km_01k["init_rounds"] > km_2k["init_rounds"]

    def test_kmeans_parallel_init_beats_partition_init(self, cluster):
        _, km_2k, _, part = self._times(cluster, 500)
        km_init = km_2k["total"] - km_2k["lloyd"]
        part_init = part["total"] - part["lloyd"]
        assert km_init < part_init / 3

    def test_random_init_trivial(self, cluster):
        random, km_2k, _, _ = self._times(cluster, 500)
        km_init = km_2k["total"] - km_2k["lloyd"]
        assert random["init"] < km_init

    def test_breakdowns_sum_to_total(self, cluster):
        random, km_2k, km_01k, part = self._times(cluster, 500)
        for breakdown in (random, km_2k, km_01k, part):
            parts = sum(v for key, v in breakdown.items() if key != "total")
            assert parts == pytest.approx(breakdown["total"], rel=1e-9)


class TestOneRuler:
    """Partition's Lloyd rounds are charged as every method's are."""

    @pytest.mark.parametrize("k", [500, 1000])
    def test_partition_lloyd_is_time_lloyd_iters(self, cluster, k):
        part = time_partition(
            cluster, n=PAPER_N, d=PAPER_D, k=k, m=int(round(math.sqrt(PAPER_N / k))),
            n_intermediate=int(3 * math.sqrt(PAPER_N * k) * math.log(k)),
            lloyd_iters=20,
        )
        lloyd_s = time_lloyd_iters(cluster, n=PAPER_N, d=PAPER_D, k=k, iters=20)
        assert part["lloyd"] == lloyd_s / 60.0
