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
