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
cross-check them.  `pair_outcomes` decides the pair ranks 0, 1, ... of a
whole table without floats: u = (z >> 11) 2^-53 is exact, so u < p holds
exactly when z < ceil(p 2^53) << 11 for p < 1, and every pair is an edge at
p = 1.  It hashes a block of 2^16 ranks at a time, so its scratch stays
small whatever the table's size.
`bigints_below` reads ``rng.bytes`` in blocks: ``Generator.bytes(k)`` takes
ceil(k / 4) whole uint32 words, so slots of that width give the same values.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BYTE_DRAWS = 64  # draws per rng.bytes call: 512 bytes at the dense order 34
_OUTCOME_BLOCK = 1 << 16  # ranks per pair_outcomes block: scratch rows stay in cache


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


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """The splitmix64 finaliser of pair_uniform, in place on the uint64
    array z of key + (rank + 1) gamma values; t is scratch of z's size."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


def pair_uniform_array(key: int, ranks: np.ndarray) -> np.ndarray:
    """Vectorised pair_uniform; bitwise identical to the scalar path."""
    z = ranks.astype(np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    _mix(z, np.empty_like(z))
    z >>= np.uint64(11)
    return z * 2.0 ** -53


def pair_outcomes(key: int, p: float, out: np.ndarray) -> None:
    """out[i] = pair_uniform(key, i) < p for each i, written in place into
    the bool array out by one integer compare per pair, _OUTCOME_BLOCK
    ranks at a time through one scratch allocated per call."""
    if p >= 1.0:
        out[:] = True
        return
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    # row 0 holds i gamma; rows 1 and 2 are overwritten by each block
    scratch = np.empty((3, min(len(out), _OUTCOME_BLOCK)), dtype=np.uint64)
    np.multiply(np.arange(scratch.shape[1], dtype=np.uint64), np.uint64(_GAMMA),
                out=scratch[0])
    for start in range(0, len(out), _OUTCOME_BLOCK):
        block = out[start : start + _OUTCOME_BLOCK]
        steps, z, t = scratch[:, : len(block)]
        np.add(steps, np.uint64((key + (start + 1) * _GAMMA) & _MASK), out=z)
        _mix(z, t)
        np.less(z, threshold, out=block)


def bigints_below(rng: np.random.Generator, bound: int) -> Iterator[int]:
    """Endless uniform integers in [0, bound), bound >= 1: each draw is the
    top bits of the first ceil(bits / 8) big-endian bytes of its slot, and
    is rejected if >= bound.  It draws ahead, so nothing else may read rng."""
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    excess = 8 * nbytes - bits
    width = -(-nbytes // 4) * 4
    while True:
        block = rng.bytes(width * _BYTE_DRAWS)
        for at in range(0, len(block), width):
            raw = int.from_bytes(block[at : at + nbytes], "big") >> excess
            if raw < bound:
                yield raw
