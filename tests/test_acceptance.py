"""End-to-end acceptance suite.

Each test covers one numbered acceptance item and prints a single verdict
line (run with -s to see them live).  Checks run at working scale with the
fixed seeds 1..5 and assert both the numeric targets and the wall-clock
budget for the item.  Oracles here are deliberately independent of the
library internals: closed-form counts, brute-force recomputation, and exact
first/second moments derived by hand.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import brute_isomorphic
from taulab import bounds as bnd
from taulab import rng as rngmod
from taulab.catalog import (
    LinearForest,
    ahu_code,
    catalan,
    enumerate_rooted_binary,
    forest_code,
    free_trees,
    iter_distinct_maxdeg3_trees,
    maxdeg3_trees,
    partition_count,
    partitions,
)
from taulab.coloring import (
    build_dense_coloring,
    build_sparse_coloring,
    build_verysparse_coloring,
    tau_exact,
    tau_matching,
    verify_distinct,
)
from taulab.embed import LazyRandomGraph, greedy_embed, materialize
from taulab.graph import Graph, census, gen_gnp
from taulab.pathpack import dfs_path_pack

SEEDS = (1, 2, 3, 4, 5)


@contextmanager
def verdict(num: int, label: str, budget: float | None = None):
    """Print one pass/fail line for an acceptance item, enforcing budget."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        within = budget is None or elapsed < budget
        status = "PASS" if ok and within else "FAIL"
        cap = "" if budget is None else f" / budget {budget:g}s"
        print(f"acceptance {num} [{label}]: {status} ({elapsed:.2f}s{cap})")
    assert budget is None or elapsed < budget, (
        f"item {num} took {elapsed:.2f}s, budget {budget:g}s"
    )


# ---------------------------------------------------------------------------
# independent oracles


def matching_graph(m: int) -> Graph:
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def isolated_path_moments(n: int, p: float, order: int):
    """Exact mean and variance of the number of isolated path components on
    `order` vertices in G(n,p), for order 2 or 3.

    A fixed copy needs its `order - 1` edges present and every other pair
    touching its vertex set absent.  Two copies on disjoint vertex sets share
    exactly order^2 absence demands (the cross pairs); copies sharing a
    vertex can never both be components, so their indicator product is zero.
    """
    v = order
    e = v - 1
    q = 1.0 - p
    if v == 2:
        copies = math.comb(n, 2)
        disjoint = copies * math.comb(n - 2, 2)
    elif v == 3:
        copies = 3 * math.comb(n, 3)
        disjoint = copies * 3 * math.comb(n - 3, 3)
    else:
        raise ValueError("orders 2 and 3 only")
    absent = v * (n - v) + (math.comb(v, 2) - e)
    mu = p**e * q**absent
    mean = copies * mu
    # cov for disjoint ordered pairs, written to avoid cancellation
    cov = p ** (2 * e) * q ** (2 * absent - v * v) * (1.0 - q ** (v * v))
    overlapping = copies * (copies - 1) - disjoint
    var = mean * (1.0 - mu) + disjoint * cov - overlapping * mu * mu
    return mean, var


# ---------------------------------------------------------------------------
# 1. exact tau on small graphs


def test_01_exact_tau_small_graphs():
    with verdict(1, "exact tau on small graphs", budget=1.0):
        expected = [1, 1, 2, 2, 2, 3]
        for m, want in zip(range(1, 7), expected):
            got = tau_exact(matching_graph(m))
            assert got == want, (m, got, want)
            assert got == tau_matching(m)
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
        assert tau_exact(k3) == 2
        assert tau_exact(p3) == 1
        assert tau_exact(k4) == 3


# ---------------------------------------------------------------------------
# 2. tree catalogue: counts and canonical codes


def test_02_tree_catalogue():
    with verdict(2, "tree catalogue", budget=30.0):
        for t in range(1, 11):
            count = sum(1 for _ in enumerate_rooted_binary(t))
            assert count == catalan(t), (t, count)

        for t in range(1, 15):
            count = len(maxdeg3_trees(t))
            floor = 2.0 ** (t - 1) / (t**1.5 * (t + 1))
            assert count >= floor, (t, count, floor)

        pool = [g for t in range(1, 9) for g in free_trees(t)]
        codes = [ahu_code(g) for g in pool]
        for i, j in itertools.combinations(range(len(pool)), 2):
            same_code = codes[i] == codes[j]
            same_iso = brute_isomorphic(pool[i], pool[j])
            assert same_code == same_iso, (i, j, same_code, same_iso)


# ---------------------------------------------------------------------------
# 3. partition recurrence and forest codes


def test_03_partition_recurrence():
    with verdict(3, "partition counts and forest codes", budget=5.0):
        for k in range(1, 31):
            enumerated = sum(1 for _ in partitions(k))
            assert partition_count(k) == enumerated, k
        assert partition_count(100) == 190569292

        forests = [LinearForest(q) for q in partitions(8)]
        assert len(forests) == 22
        assert len({forest_code(f) for f in forests}) == 22


# ---------------------------------------------------------------------------
# 4. dense pipeline at working scale


def test_04_dense_pipeline():
    with verdict(4, "dense pipeline, 5 seeds", budget=60.0):
        n = 3000
        epsilon = 0.01
        p = 40.0 * math.log(n) / n
        t = bnd.dense_tree_order(n)
        budget = int(epsilon * n * n)
        tree_floor = 0.5 * epsilon * n * n * p / (t - 1)
        rev_limit = 1000.0 * epsilon * n
        active_limit = 500.0 * epsilon * n
        for seed in SEEDS:
            lazy = LazyRandomGraph(n, p, seed)
            picker = rngmod.stream(seed, 1)
            trees = iter_distinct_maxdeg3_trees(t, rngmod.stream(seed, 2))
            result = greedy_embed(lazy, trees, budget, picker)

            assert len(result.embedded) >= tree_floor, (
                seed,
                len(result.embedded),
                tree_floor,
            )
            assert max(result.trace.rev) <= rev_limit, seed
            assert max(result.trace.rev_active) <= active_limit, seed

            host = materialize(lazy)
            coloring = build_dense_coloring(result, host)
            distinct, witness = verify_distinct(coloring)
            assert distinct, (seed, witness)
            assert coloring.num_classes <= bnd.upper_dense(n, p) + 1, seed


# ---------------------------------------------------------------------------
# 5. sparse pipeline at working scale


def test_05_sparse_pipeline():
    with verdict(5, "sparse pipeline, 5 seeds", budget=60.0):
        n = 5000
        p = 30.0 / n
        target = int(0.05 * n)
        for seed in SEEDS:
            g = gen_gnp(n, p, seed)
            pack = dfs_path_pack(g, target, max_paths=int(n * p))
            assert len(pack.paths) >= 0.5 * n * p, (seed, len(pack.paths))
            seen: set = set()
            for path in pack.paths:
                assert len(path) - 1 >= 0.05 * n
                for u, v in zip(path, path[1:]):
                    edge = (u, v) if u < v else (v, u)
                    assert g.has_edge(u, v), (seed, edge)
                    assert edge not in seen, (seed, edge)
                    seen.add(edge)

            coloring = build_sparse_coloring(
                g, bnd.sparse_k(n), c_path=0.05, p=p
            )
            class_floor = 0.01 * n * n * p / math.log(n) ** 2
            assert coloring.num_classes >= class_floor, (
                seed,
                coloring.num_classes,
                class_floor,
            )
            distinct, witness = verify_distinct(coloring)
            assert distinct, (seed, witness)


# ---------------------------------------------------------------------------
# 6. very sparse pipeline at working scale


def test_06_verysparse_pipeline():
    with verdict(6, "very sparse pipeline, 5 seeds", budget=120.0):
        k = 4
        n = 10**5
        p = float(n) ** -1.3
        theta = float(n) ** (5.0 / 3.0) * p
        for seed in SEEDS:
            g = gen_gnp(n, p, seed)
            tally = census(g)
            for order in (2, 3):
                mean, var = isolated_path_moments(n, p, order)
                observed = tally.path_counts.get(order, 0)
                band = 3.0 * math.sqrt(var)
                assert abs(observed - mean) <= band, (
                    seed,
                    order,
                    observed,
                    mean,
                    band,
                )

            coloring = build_verysparse_coloring(g, tally, k, p=p)
            assert coloring.num_classes >= 0.1 * theta, (
                seed,
                coloring.num_classes,
            )
            distinct, witness = verify_distinct(coloring)
            assert distinct, (seed, witness)

            budgets = [float(tally.path_counts.get(2, 0))]
            quad = float(tally.path_counts.get(3, 0))
            cap = bnd.upper_F(budgets, quad, n, p, k)
            assert coloring.num_classes <= cap, (
                seed,
                coloring.num_classes,
                cap,
            )


# ---------------------------------------------------------------------------
# 7. parameter formulas


def test_07_parameter_formulas():
    with verdict(7, "parameter formulas"):
        start = time.perf_counter()
        assert bnd.claim_check_range(2, 10**6 + 1)
        sweep = time.perf_counter() - start
        assert sweep < 1.0, f"claim sweep took {sweep:.2f}s"

        smallest = 1
        for k in range(2, 10**4 + 1):
            while smallest * smallest + smallest < 2 * k:
                smallest += 1
            assert bnd.ell(k) == smallest, k

        points = np.random.default_rng(20260821)
        for _ in range(10):
            n = int(points.integers(100, 10**7))
            p = 10.0 ** points.uniform(-6.0, -0.05)
            for k in (2, 3):
                want = n * math.sqrt(p)
                got = bnd.theta_verysparse(n, p, k)
                assert abs(got - want) <= 1e-12 * want, (k, n, p)
            want = float(n) ** (5.0 / 3.0) * p
            got = bnd.theta_verysparse(n, p, 4)
            assert abs(got - want) <= 1e-12 * want, (n, p)


# ---------------------------------------------------------------------------
# 8. budgeted optimisation


def test_08_budgeted_optimum():
    with verdict(8, "budgeted optimisation"):
        cases = np.random.default_rng(8201)

        # analytic case: linear budget disabled -> sqrt(B (m + 1))
        for _ in range(5):
            B = float(10.0 ** cases.uniform(-1.0, 4.0))
            m = int(cases.integers(1, 40))
            opt = bnd.toy_lagrange_opt(math.inf, B, m)
            want = math.sqrt(B * (m + 1))
            assert abs(opt.value - want) <= 1e-6 * want, (B, m)

        # analytic case: zero linear budget -> sqrt(B) on coordinate 0
        for _ in range(5):
            B = float(10.0 ** cases.uniform(-1.0, 4.0))
            m = int(cases.integers(1, 40))
            opt = bnd.toy_lagrange_opt(0.0, B, m)
            want = math.sqrt(B)
            assert abs(opt.value - want) <= 1e-6 * want, (B, m)

        # optimum dominates random feasible points, and the support obeys
        # the water-filling shape x_t = r - s t
        for _ in range(20):
            m = int(cases.integers(1, 40))
            A = float(10.0 ** cases.uniform(-1.0, 4.0))
            B = float(10.0 ** cases.uniform(-1.0, 4.0))
            opt = bnd.toy_lagrange_opt(A, B, m)

            t = np.arange(m + 1, dtype=np.float64)
            raw = cases.random((10_000, m + 1))
            lin = raw @ t
            lin_scale = np.divide(
                A, lin, out=np.full_like(lin, np.inf), where=lin > 0
            )
            quad_scale = np.sqrt(B) / np.sqrt((raw * raw).sum(axis=1))
            values = np.minimum(lin_scale, quad_scale) * raw.sum(axis=1)
            assert opt.value >= values.max() - 1e-7 * max(1.0, opt.value), (
                m,
                A,
                B,
            )

            fitted = opt.r - opt.s * t
            support = opt.x > 1e-12
            assert np.all(np.abs(opt.x[support] - fitted[support]) <= 1e-6), (
                m,
                A,
                B,
            )

        # the solved optimum never exceeds the closed-form cap when both see
        # the same single linear budget and quadratic budget
        n = 10**5
        p = float(n) ** -1.3
        A1 = float(n) * n * p
        B = float(n) ** 3 * p * p
        for m in (20, 60, 150, int(n * n * p)):
            opt = bnd.toy_lagrange_opt(A1, B, m)
            cap = bnd.upper_F([A1], B, n, p, 4)
            assert opt.value <= cap, (m, opt.value, cap)
