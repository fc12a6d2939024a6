"""Tests for repro.core.rng."""

import numpy as np
import pytest

from repro.core.rng import (
    RandomSource,
    SeedWords,
    derive_seed,
    generator_from_words,
    seed_words,
)

#: Seeds at the edges of one and two 32-bit entropy words.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)

    def test_sensitive_to_path(self):
        assert derive_seed(5, "a") != derive_seed(5, "b")
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)

    def test_sensitive_to_base(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_children_are_independent_of_sibling_consumption(self):
        root_a = RandomSource(7)
        root_b = RandomSource(7)
        # Consuming one child's stream must not shift a differently named child.
        child_a1 = root_a.child("x")
        _ = [child_a1.random() for _ in range(10)]
        value_a = root_a.child("y").random()
        value_b = root_b.child("y").random()
        assert value_a == value_b

    def test_child_streams_differ(self):
        root = RandomSource(3)
        assert root.child("a").random() != root.child("b").random()

    def test_integers_bounds(self):
        rng = RandomSource(1)
        values = [rng.integers(2, 6) for _ in range(200)]
        assert min(values) >= 2
        assert max(values) <= 5

    def test_choice_weighted(self):
        rng = RandomSource(0)
        picks = [rng.choice(["a", "b"], p=[0.99, 0.01]) for _ in range(200)]
        assert picks.count("a") > 150

    def test_shuffle_in_place_preserves_elements(self):
        rng = RandomSource(5)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))

    def test_wrapping_generator(self):
        generator = np.random.default_rng(0)
        source = RandomSource(generator, name="wrapped")
        assert source.seed is None
        assert 0.0 <= source.random() < 1.0

    def test_spawn_deterministic(self):
        assert RandomSource(13).spawn(2).random() == RandomSource(13).spawn(2).random()
        assert RandomSource(13).spawn_seed(2) == RandomSource(13).spawn_seed(2)

    def test_spawn_streams_differ_by_key(self):
        root = RandomSource(13)
        assert root.spawn(0).random() != root.spawn(1).random()

    def test_spawn_independent_of_consumption_and_order(self):
        root_a = RandomSource(21)
        root_b = RandomSource(21)
        # Draining the root and sibling spawns must not shift spawn(5).
        _ = [root_a.random() for _ in range(7)]
        _ = [root_a.spawn(0).random() for _ in range(3)]
        assert root_a.spawn(5).random() == root_b.spawn(5).random()

    def test_spawn_namespace_distinct_from_child(self):
        root = RandomSource(3)
        assert root.spawn("x").random() != root.child("x").random()
        assert root.spawn_seed("x") != derive_seed(3, root.name, "x")

    def test_copy_constructor_shares_stream(self):
        original = RandomSource(9, name="orig")
        alias = RandomSource(original)
        assert alias.name == "orig"
        # The alias shares the generator object.
        assert alias.generator is original.generator


class TestSeedWords:
    def test_matches_numpy_seed_sequence(self):
        words = seed_words(EDGE_SEEDS)
        assert words.shape == (len(EDGE_SEEDS), 4)
        assert words.dtype == np.uint64
        for seed, row in zip(EDGE_SEEDS, words):
            expected = np.random.SeedSequence(seed).generate_state(
                4, np.uint64)
            assert row.tolist() == expected.tolist(), seed

    def test_one_word_seed_mixes_like_a_zero_high_word(self):
        for seed in (0, 1, 2 ** 32 - 1):
            padded = np.random.SeedSequence([seed, 0]).generate_state(
                4, np.uint64)
            assert seed_words([seed])[0].tolist() == padded.tolist()

    def test_generator_draws_like_the_random_source(self):
        for seed in EDGE_SEEDS:
            words = seed_words([seed])[0]
            source = RandomSource(seed).generator
            generator = generator_from_words(words)
            assert generator.normal(size=8).tolist() \
                == source.normal(size=8).tolist()
            assert generator.random(8).tolist() == source.random(8).tolist()

    def test_child_seed_is_the_child_stream_seed(self):
        root = RandomSource(11).spawn(3)
        assert root.child_seed("circuit", 5) \
            == root.child("circuit", 5).seed
        assert RandomSource(11).child_seed("x") \
            == derive_seed(11, "root", "x")

    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
    def test_shim_serves_only_four_uint64_words(self, n_words, dtype):
        shim = SeedWords(seed_words([7])[0])
        with pytest.raises(ValueError):
            shim.generate_state(n_words, dtype)
        assert shim.generate_state(4, np.uint64).tolist() \
            == seed_words([7])[0].tolist()

    def test_shim_holds_exactly_four_words(self):
        with pytest.raises(ValueError):
            SeedWords(seed_words([7, 8]))
