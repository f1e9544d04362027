"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import ensure_generator, spawn_generators


class TestEnsureGenerator:
    def test_none_gives_generator(self):
        assert isinstance(ensure_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_generator(42).integers(0, 1_000_000, size=10)
        b = ensure_generator(42).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_generator(1).integers(0, 1_000_000, size=10)
        b = ensure_generator(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough_is_identity(self):
        g = np.random.default_rng(0)
        assert ensure_generator(g) is g

    def test_seed_sequence_accepted(self):
        g = ensure_generator(np.random.SeedSequence(5))
        assert isinstance(g, np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError, match="seed must be"):
            ensure_generator("not-a-seed")

    def test_numpy_integer_accepted(self):
        g = ensure_generator(np.int64(7))
        assert isinstance(g, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5

    def test_zero_is_fine(self):
        assert spawn_generators(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            spawn_generators(0, -1)

    def test_children_are_independent_streams(self):
        gens = spawn_generators(42, 3)
        draws = [g.integers(0, 10**9, size=4).tolist() for g in gens]
        assert draws[0] != draws[1] != draws[2]

    def test_deterministic_from_int_seed(self):
        a = [g.integers(0, 10**9) for g in spawn_generators(9, 4)]
        b = [g.integers(0, 10**9) for g in spawn_generators(9, 4)]
        assert a == b

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(3)
        gens = spawn_generators(parent, 2)
        assert len(gens) == 2
        assert all(isinstance(g, np.random.Generator) for g in gens)

    def test_spawn_from_seed_sequence(self):
        gens = spawn_generators(np.random.SeedSequence(11), 2)
        assert len(gens) == 2
