"""Closed-form bounds and regime arithmetic.

Everything here is deterministic number crunching: the dense-regime upper
bound p*n^2/f(n) with f(n) = ln n / (2 ln ln n), the construction sizes, the
very sparse regime's class-size scale theta and box widths xi, the
closed-form upper bound on the class-count optimisation, a Chernoff tail
bound, the counting bound on tau of a graph with few edges, and a small
exact solver for the toy version of that optimisation.

The very sparse regime is driven by ell(k), the least integer with
ell^2 + ell >= 2k: a forest with k edges and at most ell(k) - 1 components
has a component with at least ell(k) edges.  ell is computed with exact
integer arithmetic throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# default --epsilon: the analysis's 1/10,000 embeds almost nothing at desk-scale n
DESK_EPSILON = 0.01
# default --c-path: harvested paths have floor(c_path * n) edges
C_PATH = 0.05


def f_dense(n: int) -> float:
    """f(n) = ln n / (2 ln ln n); needs n >= 16 so the denominator is
    positive and the value exceeds 1."""
    if n < 16:
        raise ValueError("f_dense needs n >= 16")
    return math.log(n) / (2.0 * math.log(math.log(n)))


def upper_dense(n: int, p: float) -> float:
    """Upper bound p * n^2 / f(n) on the class count in the dense regime."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return p * n * n / f_dense(n)


def dense_tree_order(n: int) -> int:
    """Tree order floor(3 * log2 n) used by the dense construction."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return int(3 * math.log2(n))


def sparse_k(n: int) -> int:
    """Forest edge count ceil(ln^2 n) used by the sparse construction."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.ceil(math.log(n) ** 2)


def ell(k: int) -> int:
    """Least integer l with l^2 + l >= 2k, via exact integer square root."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (math.isqrt(8 * k - 7) + 1) // 2


def claim_check(k: int) -> bool:
    """Check -l^2 - l + 2k <= 0 for l = ell(k)."""
    v = ell(k)
    return 2 * k <= v * v + v


def claim_check_range(lo: int, hi: int) -> bool:
    """claim_check over every k in [lo, hi], vectorised."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    ks = np.arange(lo, hi + 1, dtype=np.int64)
    x = 8 * ks - 7
    v = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    v = np.where(v * v > x, v - 1, v)
    v = np.where((v + 1) * (v + 1) <= x, v + 1, v)
    lv = (v + 1) // 2
    return bool(np.all(lv * lv + lv >= 2 * ks))


def theta_exponents(k: int) -> tuple[Fraction, Fraction]:
    """Exact exponents (a, b) with theta = n^a * p^b."""
    lv = ell(k)
    return (
        Fraction((lv + 2) * (lv - 1), 2 * lv),
        Fraction(lv - 1, 2),
    )


def theta_verysparse(n: int, p: float, k: int) -> float:
    """Scale theta = n^((l+2)(l-1)/(2l)) * p^((l-1)/2) for l = ell(k)."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    a, b = theta_exponents(k)
    return float(n) ** float(a) * p ** float(b)


def verysparse_window(n: int, k: int) -> tuple[float, float]:
    """Open density window (n^(-k/(k-1)), n^(-(k+1)/k)) of the regime."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return float(n) ** (-k / (k - 1)), float(n) ** (-(k + 1) / k)


def xi(i: int, n: int, p: float, c_i: float, k: int) -> float:
    """Box width xi_i with xi_i + 1 = c_i * n^i * p^(i-1) / theta."""
    lv = ell(k)
    if not 2 <= i <= lv:
        raise ValueError(f"order index i={i} outside [2, ell(k)={lv}]")
    if c_i < 0:
        raise ValueError("c_i must be nonnegative")
    return c_i * float(n) ** i * p ** (i - 1) / theta_verysparse(n, p, k) - 1.0


def upper_F(A: Sequence[float], B: float, n: int, p: float, k: int) -> float:
    """Closed-form bound on the class-count optimisation for ell(k) >= 3:

        (B + 2 sum_i r_i A_i + l^2 s^l (np)^(-(l-1)(l-2)/2)) / (2 s)

    with r_i = (np)^(l-1-i) and s = n^((l^2-l+2)/(2l)) p^((l-1)/2).  A has
    one budget per order index i = 1..l-2.
    """
    lv = ell(k)
    if lv < 3:
        raise ValueError("upper_F needs k >= 4 so that ell(k) >= 3")
    if len(A) != lv - 2:
        raise ValueError(f"need exactly ell-2={lv - 2} budgets, got {len(A)}")
    if B < 0 or any(a < 0 for a in A):
        raise ValueError("budgets must be nonnegative")
    if p <= 0.0:
        raise ValueError("p must be positive")
    npd = n * p
    s = float(n) ** ((lv * lv - lv + 2) / (2.0 * lv)) * p ** ((lv - 1) / 2.0)
    cross = sum(npd ** (lv - 1 - i) * A[i - 1] for i in range(1, lv - 1))
    slack = lv * lv * s**lv * npd ** (-(lv - 1) * (lv - 2) / 2.0)
    return (B + 2.0 * cross + slack) / (2.0 * s)


def chernoff(mu: float, delta: float) -> tuple[float, float]:
    """Tail bounds for Bin/Poisson-type sums of mean mu:
    upper tail exp(-mu d^2 / 3), lower tail exp(-mu d^2 / 2), 0 < d < 1."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.exp(-mu * delta * delta / 3.0), math.exp(-mu * delta * delta / 2.0)


# Graphs with s edges and no isolated vertices (OEIS A000664), s = 1..12
GRAPHS_WITH_EDGES = (1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216, 52944)


def most_classes(r: int, free: Sequence[int]) -> int:
    """Most classes r edges can form when at most free[s - 1] of them have
    s edges (none for a negative entry): the smallest sizes first, each as
    often as allowed, up to the first size above the edges left."""
    classes = 0
    for s, f in enumerate(free, 1):
        if s > r:
            break
        if f > 0:
            take = min(f, r // s)
            classes += take
            r -= take * s
    return classes


def tau_counting_bound(m: int) -> int:
    """Upper bound on tau of any graph with m <= 867,935 edges, one class of
    every tabulated graph: its classes are pairwise non-isomorphic, so at
    most GRAPHS_WITH_EDGES[s - 1] of them have s edges, and `most_classes`
    under those counts is the bound, which needs no size above the table."""
    cap = sum(s * a for s, a in enumerate(GRAPHS_WITH_EDGES, 1))
    if not 0 <= m <= cap:
        raise ValueError(f"counting bound tabulated for 0..{cap:,} edges, got {m}")
    return most_classes(m, GRAPHS_WITH_EDGES)


@dataclass(frozen=True)
class OptProblem:
    """Solved instance of the toy optimisation: maximise sum x_t over
    t = 0..m subject to sum t x_t <= A[0], sum x_t^2 <= B, x >= 0."""

    m: int
    A: tuple[float, ...]
    B: float
    x: np.ndarray
    value: float
    r: float
    s: float


def _check_feasible(x: np.ndarray, A: float, B: float, tol: float) -> bool:
    t = np.arange(x.size, dtype=np.float64)
    scale_a = max(1.0, abs(A)) if math.isfinite(A) else 1.0
    lin_ok = (not math.isfinite(A)) or float(t @ x) <= A + tol * scale_a
    return bool(lin_ok and float(x @ x) <= B * (1.0 + tol) + tol)


def toy_lagrange_opt(A: float, B: float, m: int, tol: float = 1e-9) -> OptProblem:
    """Exact active-set solution of the toy optimisation.

    The optimum has the water-filling shape x_t = max(0, r - s t): the
    quadratic budget is always tight, and the linear budget either slack
    (s = 0, all coordinates equal) or tight with some support {0..M}.  Each
    candidate support gives two equations in (r, s); the consistent one is
    returned.  A may be math.inf to disable the linear budget.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if A < 0:
        raise ValueError("A must be nonnegative")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def build(r: float, s: float, support: int) -> OptProblem:
        t = np.arange(m + 1, dtype=np.float64)
        x = np.maximum(0.0, r - s * t)
        x[support + 1 :] = 0.0
        if not _check_feasible(x, A, B, tol):
            raise RuntimeError("active-set candidate violates the budgets")
        return OptProblem(
            m=m, A=(A,), B=B, x=x, value=float(x.sum()), r=r, s=s
        )

    r0 = math.sqrt(B / (m + 1))
    if not math.isfinite(A) or r0 * m * (m + 1) / 2.0 <= A * (1.0 + tol):
        return build(r0, 0.0, m)
    if A <= tol * math.sqrt(B):
        # linear budget pins everything but x_0
        r = math.sqrt(B)
        return build(r, r, 0)
    for M in range(m, 0, -1):
        s1 = M + 1.0
        st = M * (M + 1) / 2.0
        st2 = M * (M + 1) * (2 * M + 1) / 6.0
        d = s1 * st2 - st * st
        qa = st2 * d / (st * st)
        qb = 2.0 * A * d / (st * st)
        qc = A * A * s1 / (st * st) - B
        if qc >= 0.0:
            continue
        disc = qb * qb - 4.0 * qa * qc
        s = (-qb + math.sqrt(disc)) / (2.0 * qa)
        r = (A + s * st2) / st
        # degeneracy slack must scale with the solution level: an absolute
        # floor would reject supports whose marginal coordinate is genuinely
        # positive but small (e.g. A barely above the tiny-A threshold)
        slack = tol * r
        if r - s * M <= slack:
            continue
        if M < m and r - s * (M + 1) > slack:
            continue
        return build(r, s, M)
    raise RuntimeError("no consistent active set found within tolerance")
