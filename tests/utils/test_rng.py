"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=5)
        b = ensure_rng(42).integers(0, 1_000_000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        gen = ensure_rng(ss)
        assert isinstance(gen, np.random.Generator)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1_000_000, size=10)
        b = ensure_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_children(self):
        assert len(spawn_rngs(0, 0)) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(123, 3)
        draws = [c.integers(0, 2**30, size=8) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_children_deterministic_from_seed(self):
        a = [c.integers(0, 2**30, size=4) for c in spawn_rngs(9, 2)]
        b = [c.integers(0, 2**30, size=4) for c in spawn_rngs(9, 2)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_spawning_from_generator(self):
        gen = np.random.default_rng(5)
        children = spawn_rngs(gen, 4)
        assert len(children) == 4
