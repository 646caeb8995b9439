"""Tests for the Carter-Wegman pairwise-independent hash family."""

import numpy as np
import pytest

from repro.hashing.family import MERSENNE_PRIME_61, HashFamily, PairwiseHash
from repro.hashing.labels import label_to_int


class TestPairwiseHash:
    def test_range(self):
        h = PairwiseHash(a=12345, b=678, width=17)
        for key in range(1000):
            assert 0 <= h.hash_int(key) < 17

    def test_deterministic(self):
        h = PairwiseHash(a=99991, b=7, width=64)
        assert h("label") == h("label")

    def test_scalar_matches_formula(self):
        h = PairwiseHash(a=3, b=5, width=10)
        key = 1234567
        expected = ((3 * key + 5) % MERSENNE_PRIME_61) % 10
        assert h.hash_int(key) == expected

    def test_call_converts_labels(self):
        h = PairwiseHash(a=31337, b=42, width=100)
        assert h("x") == h.hash_int(label_to_int("x"))

    def test_width_one_maps_everything_to_zero(self):
        h = PairwiseHash(a=7, b=9, width=1)
        assert all(h.hash_int(k) == 0 for k in range(100))

    @pytest.mark.parametrize("a", [0, MERSENNE_PRIME_61])
    def test_invalid_a_rejected(self, a):
        with pytest.raises(ValueError):
            PairwiseHash(a=a, b=0, width=4)

    def test_invalid_b_rejected(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=MERSENNE_PRIME_61, width=4)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=0, width=0)

    def test_frozen_and_hashable(self):
        h = PairwiseHash(a=5, b=6, width=7)
        assert hash(h) == hash(PairwiseHash(a=5, b=6, width=7))
        with pytest.raises(AttributeError):
            h.a = 9


class TestHashMany:
    """The vectorized path must agree bit-for-bit with the scalar path."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_random_functions(self, seed):
        family = HashFamily.uniform(1, 101, seed=seed)
        h = family[0]
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2 ** 63, size=500, dtype=np.int64).astype(np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h.hash_int(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_matches_scalar_on_extreme_keys(self):
        h = PairwiseHash(a=MERSENNE_PRIME_61 - 1, b=MERSENNE_PRIME_61 - 1,
                         width=97)
        keys = np.array([0, 1, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61,
                         2 ** 64 - 1, 2 ** 63, 123456789], dtype=np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h.hash_int(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorized, scalar)

    @pytest.mark.parametrize("width", [1, 3, 1000, 2 ** 20 + 7, 2 ** 40 + 1])
    def test_matches_scalar_on_non_power_of_two_widths(self, width):
        h = HashFamily.uniform(1, width, seed=width)[0]
        rng = np.random.default_rng(width)
        keys = rng.integers(0, 2 ** 64, size=300, dtype=np.uint64)
        scalar = np.array([h.hash_int(int(k)) for k in keys])
        np.testing.assert_array_equal(h.hash_many(keys), scalar)

    def test_empty_input(self):
        h = PairwiseHash(a=7, b=3, width=11)
        assert len(h.hash_many(np.array([], dtype=np.uint64))) == 0

    def test_string_label_keys(self):
        h = PairwiseHash(a=424242, b=171717, width=53)
        labels = [f"ip-{i}.example" for i in range(300)]
        keys = np.array([label_to_int(s) for s in labels], dtype=np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h(s) for s in labels])
        np.testing.assert_array_equal(vectorized, scalar)


class TestHashFamily:
    def test_uniform_sizes(self):
        family = HashFamily.uniform(5, 32, seed=1)
        assert len(family) == 5
        assert all(h.width == 32 for h in family)

    def test_mixed_widths(self):
        family = HashFamily([8, 16, 4], seed=2)
        assert [h.width for h in family] == [8, 16, 4]

    def test_seeded_reproducibility(self):
        f1 = HashFamily.uniform(3, 64, seed=9)
        f2 = HashFamily.uniform(3, 64, seed=9)
        assert [h.a for h in f1] == [h.a for h in f2]
        assert [h.b for h in f1] == [h.b for h in f2]

    def test_different_seeds_differ(self):
        f1 = HashFamily.uniform(3, 64, seed=1)
        f2 = HashFamily.uniform(3, 64, seed=2)
        assert [h.a for h in f1] != [h.a for h in f2]

    def test_functions_within_family_differ(self):
        family = HashFamily.uniform(4, 64, seed=5)
        params = {(h.a, h.b) for h in family}
        assert len(params) == 4

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            HashFamily([])

    def test_invalid_d_rejected(self):
        with pytest.raises(ValueError):
            HashFamily.uniform(0, 8)

    def test_indexing(self):
        family = HashFamily.uniform(3, 10, seed=0)
        assert family[0] is list(family)[0]

    def test_distribution_roughly_uniform(self):
        """Buckets of a pairwise hash should be near-uniform over many keys."""
        h = HashFamily.uniform(1, 10, seed=3)[0]
        counts = np.zeros(10)
        for key in range(20000):
            counts[h.hash_int(key)] += 1
        # Each bucket expects 2000; allow generous 15% deviation.
        assert counts.min() > 1700
        assert counts.max() < 2300

    def test_pairwise_collision_rate(self):
        """Collision probability across random key pairs is ~1/width."""
        width = 50
        rng = np.random.default_rng(7)
        collisions = 0
        trials = 400
        for t in range(trials):
            h = HashFamily.uniform(1, width, seed=1000 + t)[0]
            x, y = rng.integers(0, 2 ** 60, size=2)
            if h.hash_int(int(x)) == h.hash_int(int(y)):
                collisions += 1
        rate = collisions / trials
        assert rate < 3.5 / width  # expectation 1/50 = 0.02; cap at 0.07
