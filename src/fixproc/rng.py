"""Seed-stream derivation.

All randomness in the package flows from one user-supplied integer seed.
Independent components draw from named sub-streams derived here, so results
do not depend on evaluation order and every Monte Carlo output can be
reproduced from (seed, stream name).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

# numpy's SeedSequence (pool of 4 32-bit words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


@functools.lru_cache(maxsize=256)
def _key_words(name: str) -> tuple[int, ...]:
    # every permutation draw and simulated run hashes the same few names
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def substream(seed: int, *names: str | int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``names`` under ``seed``.

    String components are hashed; integer components (e.g. a run or
    permutation index) enter verbatim. Identical (seed, names) always yields
    an identical stream.
    """
    entropy: list[int] = [int(seed)]
    for name in names:
        if isinstance(name, str):
            entropy.extend(_key_words(name))
        else:
            entropy.append(int(name))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a non-negative int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix; ``value`` is an int or a uint64 array of 32-bit words."""
    value = (value ^ hash_const) & _MASK32
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _pcg64_seeds(prefix: list[int], last: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([*prefix, j]).generate_state(4, np.uint64)`` for each j of ``last``.

    ``prefix`` holds at least 4 words, so the pool is built and cross-mixed
    from it alone, once; only the final mixing of j and the state words are
    passes over ``last``. Returns the 4 state words, each a uint64 array.
    """
    hash_const = _INIT_A
    pool = []
    for word in prefix[:_POOL]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in prefix[_POOL:]:
        for dst in range(_POOL):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    mixed = []
    for word in pool:
        value, hash_const = _hashmix(last, hash_const)
        mixed.append(_mix(word, value))
    hash_const = _INIT_B
    halves = []
    for i in range(2 * _POOL):
        value = mixed[i % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | (halves[i + 1] << 32) for i in range(0, 2 * _POOL, 2)]


def permutations(seed: int, name: str, indices, n: int) -> np.ndarray:
    """Row i is ``substream(seed, name, indices[i]).permutation(n)``.

    The same draws, seeded in one pass: the entropy of every row is the
    seed's words, the name's words and then index j, so the SeedSequence
    pool is mixed once up to j and j enters as a vector. Each row sets
    the PCG64 state that seed gives (pcg64 srandom) on one reused generator
    and shuffles. ``ValueError`` for an index outside [0, 2**32): it would
    enter as more than one word. The CLI's held-bytes limit on ``m``
    (``cli.MAX_HELD_BYTES``) refuses an m far below that.
    """
    indices = [int(j) for j in indices]
    if indices and (min(indices) < 0 or max(indices) > _MASK32):
        bad = next(j for j in indices if not 0 <= j <= _MASK32)
        raise ValueError(f"permutation index {bad} is outside [0, 2**32)")
    prefix = _int_words(int(seed)) + list(_key_words(name))
    out = np.empty((len(indices), n), dtype=np.int64)
    out[:] = np.arange(n)
    seeds = _pcg64_seeds(prefix, np.array(indices, dtype=np.uint64))
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for row, s0, s1, s2, s3 in zip(out, *(s.tolist() for s in seeds)):
        initstate = (s0 << 64) | s1
        inc = (((s2 << 64) | s3) << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        gen.shuffle(row)
    return out
