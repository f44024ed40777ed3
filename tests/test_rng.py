import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bigint_below
from taulab import rng as rngmod


def test_stream_deterministic():
    a = rngmod.stream(42, 1).random(8)
    b = rngmod.stream(42, 1).random(8)
    assert np.array_equal(a, b)


def test_stream_path_separates():
    a = rngmod.stream(42, 1).random(8)
    b = rngmod.stream(42, 2).random(8)
    c = rngmod.stream(43, 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_key_deterministic():
    assert rngmod.derive_key(7, 0) == rngmod.derive_key(7, 0)
    assert rngmod.derive_key(7, 0) != rngmod.derive_key(7, 1)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40))
def test_pair_uniform_range(key, rank):
    u = rngmod.pair_uniform(key, rank)
    assert 0.0 <= u < 1.0


@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=50),
)
def test_pair_uniform_array_matches_scalar(key, ranks):
    arr = rngmod.pair_uniform_array(key, np.array(ranks, dtype=np.uint64))
    ref = np.array([rngmod.pair_uniform(key, r) for r in ranks])
    assert np.array_equal(arr, ref)


def test_pair_uniform_order_invariant():
    # outcome of a rank must not depend on when it is asked for
    key = rngmod.derive_key(3, 0)
    forward = [rngmod.pair_uniform(key, r) for r in range(100)]
    backward = [rngmod.pair_uniform(key, r) for r in reversed(range(100))]
    assert forward == backward[::-1]


def test_bigint_below_bounds_and_coverage():
    r = rngmod.stream(0, 9)
    seen = {bigint_below(r, 7) for _ in range(500)}
    assert seen == set(range(7))


def test_bigint_below_large_bound():
    r = rngmod.stream(0, 10)
    bound = 10**40
    vals = [bigint_below(r, bound) for _ in range(50)]
    assert all(0 <= v < bound for v in vals)
    assert any(v > bound // 10 for v in vals)


def test_bigint_below_rejects_nonpositive():
    r = rngmod.stream(0, 11)
    with pytest.raises(ValueError):
        bigint_below(r, 0)


def unmix(z: int) -> int:
    """The inverse of pair_uniform's splitmix64 finaliser: the value
    key + (rank + 1) * gamma that mixes to z."""

    def unshift(y: int, s: int) -> int:  # inverts y = x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(rngmod._MIX2, -1, 2**64) % 2**64
    z = unshift(z, 27)
    z = z * pow(rngmod._MIX1, -1, 2**64) % 2**64
    return unshift(z, 30)


def nudged(p: float, way: int) -> float:
    return p if way == 0 else math.nextafter(p, way * math.inf)


# the p of the threshold test: the listed values and k 2^-53, each also
# one double above and below, kept in [0, 1]
THRESHOLD_PS = st.builds(
    nudged,
    st.sampled_from([0.0, 2.0**-60, 0.5, 40 * math.log(3000) / 3000, 1 - 2.0**-53, 1.0])
    | st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    st.sampled_from([-1, 0, 1]),
).filter(lambda p: 0.0 <= p <= 1.0)


@given(THRESHOLD_PS, st.integers(0, 2**40), st.integers(1, 64), st.data())
def test_pair_outcomes_equal_the_float_compare(p, start, length, data):
    # the key is solved so that one pair of the block mixes to a value at
    # the threshold: (z >> 11) within one of ceil(p 2^53), any low bits
    at = data.draw(st.integers(0, length - 1))
    top = math.ceil(p * 2.0**53) + data.draw(st.sampled_from([-1, 0, 1]))
    low = data.draw(st.sampled_from([0, 2047]) | st.integers(0, 2047))
    z = min(max(top, 0), 2**53 - 1) << 11 | low
    key = (unmix(z) - (start + at + 1) * rngmod._GAMMA) % 2**64
    assert rngmod.pair_uniform(key, start + at) == (z >> 11) * 2.0**-53
    out = np.zeros(length, dtype=np.bool_)
    # ranks start, start + 1, ... under key are ranks 0, 1, ... under the
    # key moved on by start gammas: both mix the same values
    rngmod.pair_outcomes((key + start * rngmod._GAMMA) % 2**64, p, out)
    ranks = np.arange(start, start + length, dtype=np.uint64)
    assert np.array_equal(out, rngmod.pair_uniform_array(key, ranks) < p)
    assert out.tolist() == [rngmod.pair_uniform(key, r) < p for r in ranks.tolist()]


@pytest.mark.parametrize("length", [0, 1, 7, 8, 50])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_pair_outcomes_across_block_ends(monkeypatch, length, p):
    # blocks of 7 ranks: lengths inside one block, at its end, one past it
    # and over several, and the empty table of n = 1, which has no block;
    # out starts all False and all True, so no rank may be left unwritten
    monkeypatch.setattr(rngmod, "_OUTCOME_BLOCK", 7)
    key = rngmod.derive_key(13, 0)
    ranks = np.arange(length, dtype=np.uint64)
    for fill in (False, True):
        out = np.full(length, fill)
        rngmod.pair_outcomes(key, p, out)
        assert np.array_equal(out, rngmod.pair_uniform_array(key, ranks) < p)


@pytest.mark.parametrize("nbytes", [1, 3, 5, 8, 9, 17])
def test_bigints_below_equal_per_call_draws(nbytes):
    # the block reads yield the values of one bytes call per draw, across
    # block ends and rejections, with and without excess low bits
    for bound in (2 ** (8 * nbytes) // 3 * 2, 2 ** (8 * nbytes - 5) + 1, 2 ** (8 * nbytes - 7)):
        assert (bound.bit_length() + 7) // 8 == nbytes
        oracle = rngmod.stream(nbytes, 12)
        draws = rngmod.bigints_below(rngmod.stream(nbytes, 12), bound)
        want = [bigint_below(oracle, bound) for _ in range(300)]
        assert [next(draws) for _ in range(300)] == want
