"""Seed derivation and reproducible sampling helpers."""
from __future__ import annotations

import math
import random

import numpy as np

_MASK = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """splitmix64-style mix of a base seed and a stream index."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def exponential(rng: random.Random, rate: float) -> float:
    """Inverse-CDF exponential draw from a 64-bit uniform."""
    u = (rng.getrandbits(64) + 1) / (1 << 64)  # u in (0, 1]
    return -math.log(u) / rate


def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The uniforms u of k `exponential` draws in one call, bit for bit:
    the 64-bit words of one getrandbits(64 * k) are the k scalar words."""
    x = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                      dtype="<u8")
    # (x + 1) / 2**64; x + 1 wraps to 0 only at x = 2**64 - 1, where u = 1.
    u = (x + np.uint64(1)).astype(np.float64) * 2.0 ** -64
    u[x == np.uint64(_MASK)] = 1.0
    return u


def neg_logs(u: np.ndarray, rate: float) -> np.ndarray:
    """-log(u) / rate per entry, as `exponential` computes it: math.log,
    not np.log, which differs in the last bit on some inputs."""
    return -np.fromiter(map(math.log, u.tolist()), dtype=np.float64,
                        count=len(u)) / rate


def exponentials(rng: random.Random, rate: float, k: int) -> np.ndarray:
    """k draws of `exponential(rng, rate)` in one call, bit for bit."""
    return neg_logs(uniforms(rng, k), rate)


# 32-bit words drawn per getrandbits call in `randbelows`.
_WORDS = 1 << 16


def randbelows(rng: random.Random, n: int, count: int) -> np.ndarray:
    """`count` draws of `rng.randrange(n)` in bulk, bit for bit, for
    0 < n < 2^32, leaving rng where the scalar calls would. Each scalar
    try reads one 32-bit word, keeps its top n.bit_length() bits and
    rejects a value >= n; getrandbits(32 * w) reads w words, least
    significant first. A block draws no more words than values are still
    needed, so no word past the last accepted one is drawn."""
    out = np.empty(count, dtype=np.int64)
    shift = 32 - n.bit_length()
    filled = 0
    while filled < count:
        w = min(count - filled, _WORDS)
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w,
                                                                "little"),
                              dtype="<u4") >> shift
        words = words[words < n]
        out[filled:filled + len(words)] = words
        filled += len(words)
    return out
