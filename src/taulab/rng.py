"""Randomness plumbing.

Two kinds of randomness are used in this package and they are kept strictly
separate:

* process randomness (which vertex to try next, which tree to sample) comes
  from numpy Philox generators derived from a ``(seed, *path)`` spawn key, so
  independent streams can be split off deterministically per trial;
* pair outcomes for lazily revealed random graphs come from a stateless
  splitmix64 hash of ``(key, pair rank)``, so the outcome of a pair depends
  only on the seed material and the pair, never on the order of reveals.

The splitmix64 scalar and vector paths must agree bit for bit; the tests
cross-check them.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for ``seed`` with an optional spawn path."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the given seed and spawn path."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


def derive_key(seed: int, *path: int) -> int:
    """64-bit key for the stateless pair-outcome hash."""
    return int(seed_sequence(seed, *path).generate_state(1, dtype=np.uint64)[0])


def pair_uniform(key: int, rank: int) -> float:
    """Uniform in [0, 1) determined by (key, rank) alone."""
    z = (key + (rank + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z = z ^ (z >> 31)
    return (z >> 11) * 2.0 ** -53


def pair_uniform_array(key: int, ranks: np.ndarray) -> np.ndarray:
    """Vectorised pair_uniform; bitwise identical to the scalar path.  The
    steps work in place on one uint64 array, so a block of ranks costs one
    temporary of its size besides the result."""
    z = ranks.astype(np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


def bigint_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds.

    Draws fixed-width blocks from ``rng`` and rejects values >= bound, so the
    result is exactly uniform and deterministic given the generator state.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    excess = 8 * nbytes - bits
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big") >> excess
        if raw < bound:
            return raw
