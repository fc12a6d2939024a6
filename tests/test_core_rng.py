"""Tests for repro.core.rng."""

import numpy as np
import pytest

from repro.core.rng import (
    WEIGHT_CDF_MEMO,
    RandomSource,
    SeedWords,
    _weight_cdf,
    derive_seed,
    derive_seeds,
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

    def test_many_keys_hash_the_shared_prefix_once(self):
        for base in EDGE_SEEDS:
            for names in ((), ("trace_generator", "#spawn"),
                          ("trace_generator#12", "circuit")):
                keys = [0, 7, 15, "x", 1024]
                assert derive_seeds(base, names, keys) \
                    == [derive_seed(base, *names, key) for key in keys]
        assert derive_seeds(3, ("a",), []) == []


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


def _numpy_choice(seed, size, p=None):
    """NumPy's own pick and the next draw of the same stream."""
    generator = np.random.default_rng(seed)
    index = int(generator.choice(size, p=p))
    return index, generator.random()


def _source_choice(seed, size, p=None):
    """RandomSource's pick and the next draw of the same stream."""
    source = RandomSource(seed)
    index = source.choice(list(range(size)), p=p)
    return index, source.random()


#: Weight vectors that fail NumPy's checks in ``Generator.choice(2, p=p)``.
INVALID_WEIGHTS = [
    [-0.1, 1.1],                    # negative
    [float("nan"), 1.0],            # NaN
    [float("inf"), 0.0],            # an infinite Kahan sum reads as NaN
    [0.5, 0.5, 0.0],                # wrong length
    [0.5, 0.5 + 1e-6],              # off 1 by 1e-6
    [0.5, 0.5 - 1e-6],
    [0.0, 0.0],
]


class TestChoice:
    """RandomSource.choice picks, and leaves its stream, exactly as
    ``Generator.choice(len(options), p=p)`` does."""

    def test_unweighted_pick_is_numpys(self):
        for seed in range(300):
            for size in (1, 2, 3, 5, 7, 10, 27, 100, 2 ** 33 + 5):
                generator = np.random.default_rng(seed)
                source = RandomSource(seed)
                assert source.choice(range(size)) \
                    == int(generator.choice(size))
                assert source.random() == generator.random()

    def test_weighted_pick_is_numpys(self):
        weights = [0.02, 0.04, 0.07, 0.20, 0.16, 0.15, 0.36]
        for seed in range(200):
            assert _source_choice(seed, 7, weights) \
                == _numpy_choice(seed, 7, weights)

    def test_a_draw_on_a_cdf_step_searches_right(self):
        # Weights whose CDF steps exactly at the stream's first draw: NumPy
        # searches side="right", past the zero weight.
        for seed in range(20):
            draw = np.random.default_rng(seed).random()
            for weights in ([draw, 1 - draw], [draw, 0.0, 1 - draw]):
                assert _weight_cdf(tuple(weights))[0] == draw
                assert _source_choice(seed, len(weights), weights) \
                    == _numpy_choice(seed, len(weights), weights)
                assert _source_choice(seed, len(weights), weights)[0] \
                    == len(weights) - 1

    def test_a_zero_weight_is_never_picked(self):
        source = RandomSource(4)
        picks = {source.choice("abc", p=[0.5, 0.0, 0.5]) for _ in range(500)}
        assert picks == {"a", "c"}

    @pytest.mark.parametrize("weights", INVALID_WEIGHTS)
    def test_invalid_weights_raise_numpys_error(self, weights):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(0).choice(2, p=weights)
        for _ in range(2):  # a rejected vector is not memoised
            with pytest.raises(ValueError) as error:
                RandomSource(0).choice(["a", "b"], p=weights)
            assert str(error.value) == str(numpy_error.value)

    def test_empty_options_raise(self):
        for weights in (None, []):
            with pytest.raises(ValueError):
                RandomSource(0).choice([], p=weights)

    def test_array_weights_keep_numpys_tolerance(self):
        # A float32 array widens NumPy's tolerance past float64's.
        weights = np.array([0.5, 0.5000001], dtype=np.float32)
        for seed in range(20):
            assert _source_choice(seed, 2, weights) \
                == _numpy_choice(seed, 2, weights)
        with pytest.raises(ValueError):
            RandomSource(0).choice(["a", "b"], p=weights.tolist())

    def test_the_cdf_memo_is_bounded_and_immutable(self):
        assert _weight_cdf.cache_info().maxsize == WEIGHT_CDF_MEMO
        cdf = _weight_cdf((0.25, 0.0, 0.75))
        assert cdf == (0.25, 0.25, 1.0)
        assert isinstance(cdf, tuple)
        assert _weight_cdf((0.25, 0.0, 0.75)) is cdf


class TestSpawnMany:
    def test_streams_and_lane_words_match_spawn_and_child(self):
        keys = [0, 5, 3, 1023, 1024]
        for seed in EDGE_SEEDS:
            root = RandomSource(seed, name="trace_generator")
            streams, words = root.spawn_many(keys, "circuit", 4)
            assert words.shape == (len(keys), 4, 4)
            for key, stream, lanes in zip(keys, streams, words):
                spawned = root.spawn(key)
                assert (stream.seed, stream.name) \
                    == (spawned.seed, spawned.name)
                assert stream.generator.random(4).tolist() \
                    == spawned.generator.random(4).tolist()
                for lane, row in enumerate(lanes):
                    child = spawned.child("circuit", lane)
                    assert row.tolist() == np.random.SeedSequence(
                        child.seed).generate_state(4, np.uint64).tolist()

    def test_no_keys(self):
        streams, words = RandomSource(1).spawn_many([], "circuit", 16)
        assert streams == [] and words.shape == (0, 16, 4)


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
