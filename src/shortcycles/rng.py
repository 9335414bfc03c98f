"""Seed derivation and the one source of random bits.

Every random draw of the package reads `words`: the raw 64-bit output
of numpy's PCG64 bit generator, a stream numpy keeps fixed across
versions (unlike the `Generator` methods built on it).
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """splitmix64-style mix of a base seed and a stream index."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def words(seed: int, k: int) -> np.ndarray:
    """The first k raw uint64 words of PCG64 seeded with seed mod 2^64,
    so every int seed, negative or past 2^64, names a stream."""
    return np.random.PCG64(seed & _MASK).random_raw(k)
