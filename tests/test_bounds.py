import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab import rng as rngmod
from taulab.bounds import (
    chernoff,
    claim_check,
    claim_check_range,
    dense_tree_order,
    ell,
    f_dense,
    sparse_k,
    theta_exponents,
    theta_verysparse,
    toy_lagrange_opt,
    upper_F,
    upper_dense,
    verysparse_window,
    xi,
)


def ell_brute(k: int) -> int:
    l = 1
    while l * l + l < 2 * k:
        l += 1
    return l


def test_ell_matches_brute_force():
    for k in range(1, 2000):
        assert ell(k) == ell_brute(k)


def test_ell_known_values():
    assert ell(1) == 1
    assert ell(2) == 2
    assert ell(3) == 2
    assert ell(4) == 3
    assert ell(6) == 3
    assert ell(7) == 4
    with pytest.raises(ValueError):
        ell(0)


def test_claim_check():
    assert all(claim_check(k) for k in range(1, 5000))
    assert claim_check_range(1, 5000)
    with pytest.raises(ValueError):
        claim_check_range(5, 4)
    with pytest.raises(ValueError):
        claim_check_range(0, 4)


def test_claim_check_range_agrees_with_scalar():
    # vectorised and scalar paths share no code, so cross-check windows
    for lo, hi in [(1, 100), (999, 1200), (10**6 - 50, 10**6 + 50)]:
        assert claim_check_range(lo, hi) == all(
            claim_check(k) for k in range(lo, hi + 1)
        )


def test_theta_exponents_exact():
    for k in range(1, 300):
        l = ell(k)
        a, b = theta_exponents(k)
        assert a == Fraction((l + 2) * (l - 1), 2 * l)
        assert b == Fraction(l - 1, 2)
    # the two smallest regimes come out as n*sqrt(p) and n^(5/3)*p
    assert theta_exponents(2) == (Fraction(1), Fraction(1, 2))
    assert theta_exponents(3) == (Fraction(1), Fraction(1, 2))
    assert theta_exponents(4) == (Fraction(5, 3), Fraction(1))


def test_theta_closed_forms():
    n, p = 50_000, 3e-6
    for k in (2, 3):
        want = n * math.sqrt(p)
        assert abs(theta_verysparse(n, p, k) - want) <= 1e-12 * want
    want4 = float(n) ** (5.0 / 3.0) * p
    assert abs(theta_verysparse(n, p, 4) - want4) <= 1e-12 * want4
    with pytest.raises(ValueError):
        theta_verysparse(100, 0.0, 4)


def test_verysparse_window():
    lo, hi = verysparse_window(10**5, 4)
    assert lo == float(10**5) ** (-4.0 / 3.0)
    assert hi == float(10**5) ** (-5.0 / 4.0)
    assert lo < hi
    with pytest.raises(ValueError):
        verysparse_window(100, 1)


def test_xi_values():
    n, p, k = 10**5, float(10**5) ** -1.3, 4
    # xi_2 + 1 = n^(1/3), xi_3 + 1 = n^(1/30): both factors exceed 1, so the
    # box is nonempty, though xi_3 itself stays below 1 at this scale
    assert xi(2, n, p, 1.0, k) == pytest.approx(float(n) ** (1 / 3) - 1.0)
    assert xi(2, n, p, 1.0, k) > 1.0
    assert xi(3, n, p, 1.0, k) == pytest.approx(float(n) ** (1 / 30) - 1.0)
    assert xi(3, n, p, 1.0, k) + 1.0 > 1.0
    # c_i chosen so the numerator equals theta exactly
    theta = theta_verysparse(n, p, k)
    c = theta / (n**2 * p)
    assert abs(xi(2, n, p, c, k)) < 1e-9
    with pytest.raises(ValueError):
        xi(4, n, p, 1.0, k)
    with pytest.raises(ValueError):
        xi(1, n, p, 1.0, k)
    with pytest.raises(ValueError):
        xi(2, n, p, -1.0, k)


def test_xi_product_identity():
    # prod (xi_i + 1) = (prod c_i) * theta, over the full order range;
    # p stays inside the regime window so no factor degenerates
    rng = rngmod.stream(41, 0)
    for _ in range(20):
        k = int(rng.integers(4, 40))
        l = ell(k)
        n = int(rng.integers(10**4, 10**7))
        e_lo, e_hi = -k / (k - 1), -(k + 1) / k
        p = float(n) ** float(rng.uniform(e_lo, e_hi))
        cs = [float(rng.uniform(0.2, 3.0)) for _ in range(2, l + 1)]
        prod = 1.0
        for i, c in zip(range(2, l + 1), cs):
            prod *= xi(i, n, p, c, k) + 1.0
        want = math.prod(cs) * theta_verysparse(n, p, k)
        assert abs(prod - want) <= 1e-9 * abs(want)


def test_dense_formulas():
    assert f_dense(16) == pytest.approx(
        math.log(16) / (2 * math.log(math.log(16)))
    )
    with pytest.raises(ValueError):
        f_dense(15)
    n = 3000
    assert upper_dense(n, 0.1) == pytest.approx(0.1 * n * n / f_dense(n))
    with pytest.raises(ValueError):
        upper_dense(100, 1.5)


def test_construction_sizes():
    assert dense_tree_order(1024) == 30
    assert dense_tree_order(2) == 3
    assert sparse_k(1000) == 48
    assert sparse_k(2) == 1
    with pytest.raises(ValueError):
        dense_tree_order(1)
    with pytest.raises(ValueError):
        sparse_k(1)


def test_chernoff():
    up, down = chernoff(12.0, 0.5)
    assert up == pytest.approx(math.exp(-1.0))
    assert down == pytest.approx(math.exp(-1.5))
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            chernoff(1.0, bad)


# --- toy optimisation ------------------------------------------------------


def check_solution(sol, A: float, B: float, tol: float = 1e-9) -> None:
    t = np.arange(sol.x.size, dtype=np.float64)
    assert sol.x.size == sol.m + 1
    assert np.all(sol.x >= -tol)
    if math.isfinite(A):
        assert float(t @ sol.x) <= A + tol * max(1.0, A)
    assert float(sol.x @ sol.x) <= B * (1 + tol) + tol
    assert sol.value == pytest.approx(float(sol.x.sum()))
    assert sol.r >= 0 and sol.s >= 0
    fit = np.maximum(0.0, sol.r - sol.s * t)
    assert np.max(np.abs(sol.x - fit)) <= 1e-6 * max(1.0, sol.r)


def test_toy_opt_unconstrained_linear():
    # slack linear budget: all coordinates level out at sqrt(B/(m+1))
    sol = toy_lagrange_opt(1e9, 7.0, 4)
    want = math.sqrt(7.0 * 5)
    assert abs(sol.value - want) <= 1e-6 * want
    assert sol.s == 0.0
    check_solution(sol, 1e9, 7.0)
    inf = toy_lagrange_opt(math.inf, 7.0, 4)
    assert abs(inf.value - want) <= 1e-6 * want
    # B = 4, m = 3: the level is exactly 1 on every coordinate
    flat = toy_lagrange_opt(math.inf, 4.0, 3)
    assert flat.value == pytest.approx(4.0)
    assert np.allclose(flat.x, 1.0)


def test_toy_opt_hand_case():
    # m=1, A=1, B=4: x_1 pinned to 1, x_0 = sqrt(3)
    sol = toy_lagrange_opt(1.0, 4.0, 1)
    assert sol.value == pytest.approx(1.0 + math.sqrt(3.0))
    assert sol.x[1] == pytest.approx(1.0)
    check_solution(sol, 1.0, 4.0)


def test_toy_opt_zero_linear_budget():
    sol = toy_lagrange_opt(0.0, 9.0, 3)
    assert sol.value == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)
    assert np.all(sol.x[1:] == 0.0)


def test_toy_opt_cube_root_scale():
    # with both budgets binding the optimum tracks (A B)^(1/3); at the
    # regime scaling A = n^2 p, B = n^3 p^2 the agreement is within 10x
    n = 10**4
    p = float(n) ** -1.3
    A = n * n * p
    B = n**3 * p * p
    sol = toy_lagrange_opt(A, B, int(A))
    ref = (A * B) ** (1.0 / 3.0)
    assert ref / 10.0 <= sol.value <= 10.0 * ref


def test_toy_opt_tiny_linear_budget():
    # A just above the pinned-x_0 threshold: the marginal coordinate equals
    # A itself, which the support scan must accept rather than round away
    for A, B, m in [(1e-9, 0.5, 1), (5e-10, 1e-12, 3), (1e-9, 0.5, 5)]:
        sol = toy_lagrange_opt(A, B, m)
        want = math.sqrt(B - A * A) + A
        assert abs(sol.value - want) <= 1e-9 * want
        check_solution(sol, A, B)


def test_toy_opt_validation():
    with pytest.raises(ValueError):
        toy_lagrange_opt(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        toy_lagrange_opt(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        toy_lagrange_opt(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        toy_lagrange_opt(1.0, 1.0, 3, tol=0.0)


def test_toy_opt_beats_random_feasible_points():
    rng = rngmod.stream(43, 0)
    for _ in range(5):
        m = int(rng.integers(1, 10))
        A = float(rng.uniform(0.05, 20.0))
        B = float(rng.uniform(0.1, 30.0))
        sol = toy_lagrange_opt(A, B, m)
        check_solution(sol, A, B)
        t = np.arange(m + 1, dtype=np.float64)
        pts = rng.random((2000, m + 1))
        lin = pts @ t
        quad = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        scale = np.minimum(
            np.where(lin > 0, A / np.maximum(lin, 1e-300), np.inf),
            math.sqrt(B) / np.maximum(quad, 1e-300),
        )
        scale = np.minimum(scale, 1e6)
        best = float(np.max((pts * scale[:, None]).sum(axis=1)))
        assert sol.value >= best - 1e-6 * max(1.0, best)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.1, 40.0),
    st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_toy_opt_property(A, B, m):
    sol = toy_lagrange_opt(A, B, m)
    check_solution(sol, A, B)
    # two easy feasible points the optimum must dominate
    assert sol.value >= math.sqrt(B) - 1e-6 * math.sqrt(B)
    level = math.sqrt(B / (m + 1))
    t_sum = level * m * (m + 1) / 2.0
    if t_sum <= A:
        assert sol.value >= level * (m + 1) - 1e-6 * level * (m + 1)


# --- closed-form upper bound ----------------------------------------------


def test_upper_F_formula():
    n, p, k = 10**5, 2e-7, 4
    l = 3
    A = [11.0]
    B = 5.0
    npd = n * p
    s = float(n) ** ((l * l - l + 2) / (2.0 * l)) * p ** ((l - 1) / 2.0)
    want = (
        B
        + 2.0 * (npd ** (l - 2) * A[0])
        + l * l * s**l * npd ** (-(l - 1) * (l - 2) / 2.0)
    ) / (2.0 * s)
    assert upper_F(A, B, n, p, k) == pytest.approx(want, rel=1e-12)


def test_upper_F_monotone_in_budgets():
    n, p, k = 10**5, 2e-7, 4
    base = upper_F([10.0], 5.0, n, p, k)
    assert upper_F([10.0], 6.0, n, p, k) > base
    assert upper_F([12.0], 5.0, n, p, k) > base


def test_upper_F_validation():
    with pytest.raises(ValueError):
        upper_F([1.0], 1.0, 100, 1e-3, 3)  # ell(3) = 2
    with pytest.raises(ValueError):
        upper_F([1.0, 2.0], 1.0, 100, 1e-3, 4)
    with pytest.raises(ValueError):
        upper_F([-1.0], 1.0, 100, 1e-3, 4)
    with pytest.raises(ValueError):
        upper_F([1.0], -1.0, 100, 1e-3, 4)
    with pytest.raises(ValueError):
        upper_F([1.0], 1.0, 100, 0.0, 4)
