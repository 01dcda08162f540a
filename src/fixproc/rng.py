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
