"""The in-memory doors score a seed once: with Lloyd's first assignment.

``KMeans.fit`` and the evaluation harness seed and then run Lloyd on the
same points.  A seed that only a ``potential`` pass would score takes its
cost from Lloyd's first assignment of the same centers instead, which
with float64 kernels gives the same bits on both Lloyd paths, so
``seed_cost`` is what a standalone ``Initializer.run`` reports, bit for
bit.  The doors also check ``X`` once and compute its row norms once.
A narrower working dtype makes Lloyd round differently, so there the
seed still pays its own pass; k-means++ keeps its incrementally
maintained cost.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np
import pytest

from repro import KMeans, lloyd
from repro.baselines.partition import PartitionInit
from repro.core import costs, init_base
from repro.core.costs import potential
from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.core.init_random import RandomInit
from repro.core.init_scalable import ScalableKMeans, scalable_init
from repro.data import make_gauss_mixture
from repro.evaluation.experiments.common import kmeanspp_spec, random_spec, scalable_spec
from repro.evaluation.harness import run_method
from repro.utils import validation

core_lloyd = import_module("repro.core.lloyd")

K = 10


@pytest.fixture(scope="module")
def X():
    return make_gauss_mixture(seed=2, n=6000, d=8, k=K, R=1.0).X


#: The seeding methods of Tables 1-3, as initializers.
INITIALIZERS = {
    "random": RandomInit,
    "k-means++": KMeansPlusPlus,
    "k-means|| l=0.5k": lambda: ScalableKMeans(oversampling_factor=0.5),
    "k-means|| l=2k": lambda: ScalableKMeans(oversampling_factor=2.0),
    "k-means|| exact": lambda: ScalableKMeans(oversampling_factor=2.0, sampling="exact"),
    "partition": PartitionInit,
}


def standalone_seed_cost(make, X, seed, **kwargs):
    """What ``Initializer.run`` on its own reports: the seed's cost as
    every door reported it before it was taken from Lloyd."""
    return make().run(X, K, seed=np.random.default_rng(seed), **kwargs).seed_cost


@pytest.mark.parametrize("accelerate", ["none", "hamerly"])
@pytest.mark.parametrize("method", list(INITIALIZERS))
def test_kmeans_seed_cost_is_the_standalone_one(X, method, accelerate):
    make = INITIALIZERS[method]
    model = KMeans(
        n_clusters=K, init=make(), max_iter=5, seed=np.random.default_rng(4),
        accelerate=accelerate,
    ).fit(X)
    assert model.init_result_.seed_cost == standalone_seed_cost(make, X, 4)


def test_weighted_kmeans_seed_cost_is_the_standalone_one(X):
    w = np.random.default_rng(5).random(X.shape[0]) + 0.5
    model = KMeans(n_clusters=K, max_iter=5, seed=np.random.default_rng(6)).fit(X, weights=w)
    make = lambda: ScalableKMeans(oversampling_factor=2.0)  # noqa: E731
    assert model.init_result_.seed_cost == standalone_seed_cost(make, X, 6, weights=w)
    assert model.init_result_.seed_cost == potential(X, model.init_result_.centers, weights=w)


@pytest.mark.parametrize(
    "spec",
    [random_spec(), kmeanspp_spec(), scalable_spec(0.5), scalable_spec(2.0),
     scalable_spec(2.0, sampling="exact")],
    ids=lambda spec: spec.name,
)
def test_harness_seed_cost_is_the_standalone_one(X, spec):
    record = run_method(X, K, spec, seed=7)
    assert record.seed_cost == standalone_seed_cost(lambda: spec.make(K), X, 7)


@pytest.mark.parametrize("make", [ScalableKMeans, RandomInit], ids=["k-means||", "random"])
def test_standalone_initializers_are_still_scored(X, make):
    w = np.random.default_rng(8).random(X.shape[0]) + 0.5
    for weights in (None, w):
        result = make().run(X, K, weights=weights, seed=9)
        ones = np.ones(X.shape[0]) if weights is None else weights
        assert result.seed_cost == potential(X, result.centers, weights=ones)
    assert scalable_init(X, K, seed=9).shape == (K, X.shape[1])


def test_float32_kernels_keep_the_seeds_own_pass(X):
    make = lambda: ScalableKMeans(working_dtype="float32")  # noqa: E731
    model = KMeans(
        n_clusters=K, max_iter=5, seed=np.random.default_rng(10), working_dtype="float32",
    ).fit(X)
    # The float64 potential, not Lloyd's float32 first pass.
    assert model.init_result_.seed_cost == standalone_seed_cost(make, X, 10)
    ones = np.ones(X.shape[0])
    assert model.init_result_.seed_cost == potential(X, model.init_result_.centers, weights=ones)


def test_kmeanspp_keeps_its_incremental_seed_cost(X, monkeypatch):
    calls = []
    real = costs.min_sq_dists
    monkeypatch.setattr(costs, "min_sq_dists", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    model = KMeans(n_clusters=K, init="k-means++", max_iter=5, seed=np.random.default_rng(11)).fit(X)
    assert calls == []
    assert model.init_result_.seed_cost == standalone_seed_cost(KMeansPlusPlus, X, 11)


class _Passes:
    """Counts ``(n, k)`` distance passes, X checks and X row-norm passes."""

    def __init__(self, monkeypatch, n):
        self.passes = self.checks = self.norms = 0
        assign, min_d2 = core_lloyd.assign_labels, costs.min_sq_dists
        check_finite, norms = validation.check_finite, init_base.row_norms_sq

        def full(X, C):
            return X.shape[0] == n and C.shape[0] == K

        def assign_spy(X, C, **kw):
            self.passes += full(X, C)
            return assign(X, C, **kw)

        def min_d2_spy(X, C, **kw):
            self.passes += full(X, C)
            return min_d2(X, C, **kw)

        def check_spy(values, **kw):
            self.checks += values.shape[0] == n
            return check_finite(values, **kw)

        def norms_spy(X):
            self.norms += X.shape[0] == n
            return norms(X)

        monkeypatch.setattr(core_lloyd, "assign_labels", assign_spy)
        monkeypatch.setattr(costs, "min_sq_dists", min_d2_spy)
        monkeypatch.setattr(validation, "check_finite", check_spy)
        monkeypatch.setattr(init_base, "row_norms_sq", norms_spy)


def test_a_kmeans_fit_makes_one_pass_fewer(X, monkeypatch):
    spy = _Passes(monkeypatch, X.shape[0])
    # The same fit from the public pieces: the seed scores itself.
    rng = np.random.default_rng(12)
    init = ScalableKMeans().run(X, K, seed=rng)
    pieces = lloyd(X, init.centers, max_iter=5, seed=rng)
    by_pieces = (spy.passes, spy.checks, spy.norms)
    spy.passes = spy.checks = spy.norms = 0
    model = KMeans(n_clusters=K, max_iter=5, seed=np.random.default_rng(12)).fit(X)
    assert model.cluster_centers_.tobytes() == pieces.centers.tobytes()
    assert model.init_result_.seed_cost == init.seed_cost
    assert spy.passes == by_pieces[0] - 1
    # X is checked once and its row norms are computed once, not per step.
    assert (spy.checks, spy.norms) == (1, 1)
    assert by_pieces[1:] == (2, 2)
