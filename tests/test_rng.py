import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixproc import compare
from fixproc.rng import _key_words, permutations, substream, substreams


def _first_draws(seed, *names):
    return substream(seed, *names).random(8)


def _reference(seed, name, indices, n):
    return [substream(seed, name, j).permutation(n) for j in indices]


def _assert_rows_equal(seed, name, indices, n):
    rows = permutations(seed, name, indices, n)
    assert rows.shape == (len(indices), n)
    for j, row, expected in zip(indices, rows, _reference(seed, name, indices, n)):
        assert row.dtype == expected.dtype
        assert np.array_equal(row, expected), (seed, name, j, n)


class TestSubstream:
    def test_streams_survive_a_cache_clear(self):
        before = [_first_draws(11, "perm", j) for j in (1, 2, 500)]
        _key_words.cache_clear()
        after = [_first_draws(11, "perm", j) for j in (1, 2, 500)]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_stream_is_the_hashed_seed_sequence(self):
        # the entropy is the seed, four little-endian words of SHA-256 per
        # string name, and each integer name verbatim
        digest = hashlib.sha256(b"perm").digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        expected = np.random.default_rng(np.random.SeedSequence([11, *words, 7])).random(8)
        assert np.array_equal(_first_draws(11, "perm", 7), expected)

    def test_names_are_hashed_once(self):
        _key_words.cache_clear()
        for j in range(50):
            substream(3, "perm", j)
        info = _key_words.cache_info()
        assert (info.misses, info.hits) == (1, 49)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100]


class TestPermutations:
    """``permutations`` against ``substream(...).permutation(n)``, ``==`` row by row."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [2, 4, 20, 40])
    def test_rows_are_substream_draws(self, seed, n):
        indices = [0, 1, 2, 3, 500, 2**31, 2**32 - 1, 1]
        _assert_rows_equal(seed, "perm", indices, n)

    @pytest.mark.parametrize("m", [1, compare._BLOCK_DRAWS - 1, compare._BLOCK_DRAWS + 1,
                                   10_000])
    def test_chunk_sizes(self, m):
        _assert_rows_equal(7, "perm", range(1, m + 1), 20)

    def test_indices_as_an_array(self):
        indices = np.array([5, 0, 2**32 - 1], dtype=np.uint64)
        _assert_rows_equal(3, "perm", indices, 8)

    def test_no_indices(self):
        assert permutations(3, "perm", [], 8).shape == (0, 8)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**130),
        name=st.text(max_size=12),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        n=st.integers(0, 40),
    )
    def test_any_seed_and_name(self, seed, name, indices, n):
        _assert_rows_equal(seed, name, indices, n)

    @pytest.mark.parametrize("seed, indices", [(-1, [1]), (-(2**40), [0, 1])])
    def test_negative_seed_or_index_raises_as_substream_does(self, seed, indices):
        with pytest.raises(Exception) as expected:
            _reference(seed, "perm", indices, 8)
        with pytest.raises(type(expected.value)) as got:
            permutations(seed, "perm", indices, 8)
        assert str(got.value) == str(expected.value)

    # an index enters the entropy as one 32-bit word, or is refused
    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40 + 7])
    def test_index_outside_one_word_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"stream index {bad} is outside"):
            permutations(3, "perm", [2, bad, 5], 8)

    # a seed of several words, and indices out of order and repeated
    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
    def test_substreams_are_the_substreams(self, seed):
        indices = [0, 998, 5, 5, 2**32 - 1]
        got = [gen.random(4).tolist() for gen in substreams(seed, "qq", indices)]
        assert got == [substream(seed, "qq", j).random(4).tolist() for j in indices]


class TestPermutationLabels:
    @pytest.mark.parametrize("m", [1, compare._BLOCK_DRAWS - 1, compare._BLOCK_DRAWS + 1,
                                   10_000])
    def test_label_rows_are_the_substream_draws(self, m):
        # the first-group rows that _first_groups fills chunk by chunk hold
        # draw j's first n1 subjects in row j - 1
        total, n1, seed = 9, 4, 11
        first = compare._first_groups(seed, m, total, n1)
        expected = np.zeros((m, total), dtype=bool)
        for j, perm in enumerate(_reference(seed, "perm", range(1, m + 1), total)):
            expected[j, perm[:n1]] = True
        assert first.dtype == bool and first.shape == (m, total)
        assert (first == expected).all()
