import hashlib

import numpy as np

from fixproc.rng import _key_words, substream


def _first_draws(seed, *names):
    return substream(seed, *names).random(8)


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
