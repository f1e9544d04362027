"""Bench-scale runs of every experiment + shape assertions.

These are the paper's claims as executable assertions: each experiment
runs at ``bench`` scale and the result data must show the qualitative
relationships of the corresponding table/figure.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.exceptions import ExperimentError

# Experiment runs are expensive; run each once per session and share.
_CACHE: dict = {}


def _run(name: str):
    if name not in _CACHE:
        _CACHE[name] = run_experiment(name, scale="bench", seed=0)
    return _CACHE[name]


class TestRegistry:
    def test_all_ten_registered(self):
        assert len(EXPERIMENTS) == 10
        for expected in (
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure51", "figure52", "figure53", "ablations",
        ):
            assert expected in EXPERIMENTS

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("table7")

    def test_bad_scale_rejected(self):
        with pytest.raises(ExperimentError, match="scale"):
            run_experiment("table1", scale="huge")


class TestTable1Shape:
    def test_runs_and_renders(self):
        result = _run("table1")
        assert "Table 1" in result.render()

    def test_random_final_explodes_with_separation(self):
        cells = _run("table1").data["cells"]
        assert cells[("Random", 100.0)]["final"] > 3 * cells[("Random", 1.0)]["final"]

    def test_careful_seedings_beat_random_at_high_separation(self):
        cells = _run("table1").data["cells"]
        for method in ("k-means++", "k-means|| l=2k r=5"):
            assert cells[(method, 100.0)]["final"] < cells[("Random", 100.0)]["final"]

    def test_kmeans_parallel_seed_competitive(self):
        cells = _run("table1").data["cells"]
        for R in (1.0, 10.0, 100.0):
            pp = cells[("k-means++", R)]["seed"]
            scal = cells[("k-means|| l=2k r=5", R)]["seed"]
            assert scal < 2.5 * pp


class TestTable2Shape:
    def test_random_worse_throughout(self):
        cells = _run("table2").data["cells"]
        for k in (20, 50):
            assert cells[("Random", k)]["final"] > 1.2 * cells[("k-means++", k)]["final"]
        # The gap widens with k (paper: 6x at k=20, 22x at k=50, 58x at k=100).
        assert cells[("Random", 50)]["final"] > 3 * cells[("k-means++", 50)]["final"]

    def test_scalable_seed_beats_kmeanspp(self):
        cells = _run("table2").data["cells"]
        wins = sum(
            cells[("k-means|| l=2k r=5", k)]["seed"] < cells[("k-means++", k)]["seed"]
            for k in (20, 50)
        )
        assert wins >= 1  # at bench repeats, at least one k shows the paper's win


class TestTable3Shape:
    def test_random_orders_of_magnitude_worse(self):
        # "Both k-means|| and Partition outperform Random by orders of
        # magnitude."  Random's Lloyd is capped at 20 iterations, and its
        # cost is the one of the centers those return: about 80x that of
        # every other row at bench scale.
        cells = _run("table3").data["cells"]
        k = 50
        for method, _ in cells:
            if method != "Random":
                assert cells[("Random", k)] > 50 * cells[(method, k)]

    def test_all_methods_present(self):
        cells = _run("table3").data["cells"]
        methods = {m for (m, _) in cells}
        assert methods == {
            "Random", "Partition", "k-means|| l=0.1k", "k-means|| l=0.5k",
            "k-means|| l=1k", "k-means|| l=2k", "k-means|| l=10k",
        }


class TestTable4Shape:
    def test_partition_slowest_total(self):
        data = _run("table4").data
        for pk in (500, 1000):
            part = data["cells"][("Partition", pk)]
            assert part > data["cells"][("Random", pk)]
            assert part > data["cells"][("k-means|| l=2k", pk)]

    def test_init_ordering(self):
        init = _run("table4").data["init"]
        for pk in (500, 1000):
            assert init[("Random", pk)] < init[("k-means|| l=2k", pk)]
            assert init[("k-means|| l=2k", pk)] < init[("Partition", pk)]

    def test_low_l_pays_for_extra_rounds(self):
        init = _run("table4").data["init"]
        assert init[("k-means|| l=0.1k", 500)] > init[("k-means|| l=0.5k", 500)]


class TestTable5Shape:
    def test_partition_much_larger(self):
        cells = _run("table5").data["cells"]
        # Paper at full scale: 3 orders of magnitude; the gap shrinks with
        # n (Partition ~ sqrt(nk) ln k vs km|| ~ r*l) but stays wide.
        assert cells[("Partition", 50)] > 2 * cells[("k-means|| l=10k", 50)]
        assert cells[("Partition", 50)] > 30 * cells[("k-means|| l=0.5k", 50)]

    def test_candidates_grow_with_l(self):
        cells = _run("table5").data["cells"]
        assert cells[("k-means|| l=10k", 50)] > cells[("k-means|| l=0.5k", 50)]


class TestTable6Shape:
    def test_random_needs_most_iterations(self):
        cells = _run("table6").data["cells"]
        for k in (20, 50):
            assert cells[("Random", k)] > cells[("k-means++", k)]
            assert cells[("Random", k)] > cells[("k-means|| l=2k r=5", k)]

    def test_scalable_no_worse_than_kmeanspp(self):
        cells = _run("table6").data["cells"]
        wins = sum(
            cells[("k-means|| l=2k r=5", k)] <= cells[("k-means++", k)] * 1.2
            for k in (20, 50)
        )
        assert wins >= 1


class TestFigure51Shape:
    def test_more_rounds_help(self):
        series = _run("figure51").data["series"]
        for k, by_label in series.items():
            for label, values in by_label.items():
                assert values[-1] < values[0] * 1.5  # no blow-up; usually decreasing

    def test_r1_worst_or_close(self):
        series = _run("figure51").data["series"]
        for k, by_label in series.items():
            vals = by_label["l/k=2"]
            assert min(vals[1:]) <= vals[0]


class TestFigure52Shape:
    def test_small_rl_much_worse_than_kmeanspp(self):
        data = _run("figure52").data
        # l=0.1k, r=1 -> r*l = 0.1k*1 << k: substantially worse final cost.
        for R in (1.0, 10.0):
            series = data["series"][(R, "final")]
            kmpp = data["kmpp"][R]["final"]
            assert series["l/k=0.1"][0] > 1.5 * kmpp

    def test_large_rl_comparable_to_kmeanspp(self):
        data = _run("figure52").data
        for R in (1.0, 10.0, 100.0):
            series = data["series"][(R, "final")]
            kmpp = data["kmpp"][R]["final"]
            # l=2k, r=8: r*l = 16k >> k.
            assert series["l/k=2"][-1] < 2.5 * kmpp


class TestFigure53Shape:
    def test_knee_at_rl_equals_k(self):
        data = _run("figure53").data
        k = 20
        series = data["series"][(k, "final")]
        kmpp = data["kmpp"][k]["final"]
        assert series["l/k=0.1"][0] > 1.2 * kmpp  # r*l = 2 << k
        assert series["l/k=10"][-1] < 2.5 * kmpp  # r*l = 1600 >> k


class TestAblationsShape:
    def test_random_reclusterer_degrades_seed(self):
        data = _run("ablations").data
        paper = data["bernoulli + weighted km++ (paper)"]["seed"]
        dumb = data["bernoulli + random reclusterer"]["seed"]
        assert dumb > paper

    def test_combiner_cuts_shuffle(self):
        data = _run("ablations").data
        assert (
            data["shuffle/per-point, no combiner"]
            > 5 * data["shuffle/per-point + combiner (Hadoop-style)"]
        )

    def test_split_blocks_shuffle_least(self):
        # One (k, d+1) block and one phi per split: fewer records and
        # bytes than either per-point row.
        data = _run("ablations").data
        split = "split-aggregated (Spark-style)"
        for point in ("per-point + combiner (Hadoop-style)", "per-point, no combiner"):
            assert data[f"shuffle/{point}"] > data[f"shuffle/{split}"]
            assert data[f"shuffle_records/{point}"] > data[f"shuffle_records/{split}"]
        assert data[f"shuffle_records/{split}"] == 2 * 8

    def test_renders(self):
        assert "Ablation" in _run("ablations").render()
