import heapq
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TupleGraph,
    bfs_components,
    brute_isomorphic,
    component_census,
    first_distinct_draws,
)
from taulab import graph
from taulab import rng as rngmod
from taulab.graph import (
    Graph,
    _component_labels,
    _first_distinct_draws,
    _unrank_pairs,
    census,
    components,
    edge_tuples,
    gen_gnp,
    pair_rank,
    pair_ranks,
    read_edgelist,
    write_edgelist,
)


def test_pair_rank_is_colex_bijection():
    seen = {}
    rank = 0
    for v in range(1, 30):
        for u in range(v):
            assert pair_rank(u, v) == rank
            seen[rank] = (u, v)
            rank += 1
    assert len(seen) == math.comb(30, 2)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@given(
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_from_edges_matches_tuple_oracle(n, edges):
    # random lists hit self-loops, duplicates in either orientation and
    # out-of-range vertices as well as valid graphs
    want = _raised(TupleGraph.from_edges, n, edges)
    assert _raised(Graph.from_edges, n, edges) == want
    if want is not None:
        return
    oracle = TupleGraph.from_edges(n, edges)
    g = Graph.from_edges(n, edges)
    # the same graph built from its ranks computes adj by the CSR pass
    h = Graph.from_ranks(n, np.sort(pair_ranks(sorted(oracle.edges))))
    assert g == h
    for x in (g, h):
        assert x.edges == tuple(sorted(oracle.edges))
        assert x.adj == oracle.adj
        assert x.edge_count == oracle.edge_count
        assert [x.degree(v) for v in range(n)] == [oracle.degree(v) for v in range(n)]
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                assert x.has_edge(u, v) == oracle.has_edge(u, v), (u, v)


def test_from_ranks_validation():
    ok = np.array([0, 2, 5], dtype=np.int64)  # (0, 1), (1, 2), (2, 3)
    assert Graph.from_ranks(4, ok).edges == ((0, 1), (1, 2), (2, 3))
    for bad in ([0, 2, 2], [2, 0, 5], [-1, 2], [0, 6]):
        with pytest.raises(ValueError):
            Graph.from_ranks(4, np.array(bad, dtype=np.int64))
    with pytest.raises(ValueError):
        Graph.from_ranks(4, ok.astype(np.float64))
    with pytest.raises(ValueError):
        Graph.from_ranks(-1, np.empty(0, dtype=np.int64))


def test_rank_edge_conversions():
    edges = [(2, 3), (0, 3), (0, 1), (1, 2)]
    ranks = pair_ranks(edges)
    assert ranks.tolist() == [pair_rank(u, v) for u, v in edges]
    assert edge_tuples(ranks) == tuple(sorted(edges))
    for bad in ([(1, 1)], [(2, 1)], [(-1, 2)]):
        with pytest.raises(ValueError):
            pair_ranks(bad)


def test_unrank_pairs_refuses_ranks_beyond_exact_range():
    top = 2**52 - 1
    u, v = _unrank_pairs(np.array([top], dtype=np.int64))
    assert pair_rank(int(u[0]), int(v[0])) == top
    with pytest.raises(ValueError, match=r"2\*\*52"):
        _unrank_pairs(np.array([5, 2**52], dtype=np.int64))


def test_from_edges_refuses_ranks_beyond_int64():
    n = 2**32 + 1
    # C(2^32, 2) + 2^31 - 1 is the largest int64; one more does not fit
    top = Graph.from_edges(n, [(2**31 - 1, 2**32)])
    assert top.ranks.tolist() == [2**63 - 1]
    with pytest.raises(ValueError, match=r"edge \(2147483648, 4294967296\) out of range"):
        Graph.from_edges(n, [(2**32, 2**31)])


@pytest.mark.parametrize(
    "npairs, m",
    [
        (20, 15),
        (40, 40),
        (4_498_500, 4500),
        (199_990_000, 300_000),
        (2**50 - 1, 5000),
        (2**50, 5000),
        (2**52 - 1, 5000),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_first_distinct_draws_matches_loop(seed, npairs, m):
    # small npairs repeat draws often enough to need several batches; the
    # 4,498,500 case is the G(3000, 3/3000) rank-sampling branch, whose
    # first batch repeats a few ranks, and 199,990,000 is G(20000, 30/20000).
    # A batch of 5000 + 625 draws takes 13 position bits, so the packed sort
    # keys fill exactly 63 bits below 2**50 and the last two cases take the
    # np.unique side
    got = _first_distinct_draws(rngmod.stream(seed, 0), npairs, m)
    assert got.tolist() == first_distinct_draws(rngmod.stream(seed, 0), npairs, m)


class FixedDraws:
    """Stands in for a Generator whose integers() hands out given values."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out, dtype=np.int64)


def test_first_distinct_draws_tells_apart_draws_beyond_the_key_width():
    # a batch of 19 takes 5 position bits, so 5 and 5 + 2**59 agree in the
    # 59 bits a packed key would keep of them; np.unique must tell them apart
    batch = [5, 5 + 2**59, 5, 7] + [5] * 15
    got = _first_distinct_draws(FixedDraws(batch), 2**60, 3)
    assert got.tolist() == first_distinct_draws(FixedDraws(batch), 2**60, 3)
    assert got.tolist() == [5, 7, 5 + 2**59]


def test_gen_gnp_extremes():
    full = gen_gnp(4, 1.0, 0)
    assert full.edge_count == 6
    empty = gen_gnp(5, 0.0, 0)
    assert empty.edge_count == 0


def test_gen_gnp_refuses_an_edge_count_above_the_cap(monkeypatch):
    # the cap is on the expected edge count C(n, 2) p and inclusive; at a
    # cap of 90 edges, G(10, 2) expects exactly 90 and G(11, 2) 110
    monkeypatch.setattr(graph, "_MAX_EXPECTED_EDGES", 90)
    assert gen_gnp(10, 1.0, 0).edge_count == 45
    assert gen_gnp(20, 90 / 190, 0).n == 20
    with pytest.raises(ValueError, match=r"G\(n=20, p=0\.5\) expects 95 edges.* cap of 90"):
        gen_gnp(20, 0.5, 0)
    with pytest.raises(ValueError, match=r"n=100000"):
        gen_gnp(100_000, 30 / 100_000, 0)


def test_gen_gnp_edge_count_concentrates():
    g = gen_gnp(1000, 0.01, 7)
    mu = math.comb(1000, 2) * 0.01
    sigma = math.sqrt(mu * 0.99)
    assert abs(g.edge_count - mu) <= 3 * sigma


def test_gen_gnp_bit_reproducible():
    a = gen_gnp(300, 0.02, 5)
    b = gen_gnp(300, 0.02, 5)
    assert a.edges == b.edges
    c = gen_gnp(300, 0.02, 6)
    assert a.edges != c.edges


def test_gen_gnp_sparse_path_valid():
    # n large enough to take the binomial + rank-sampling branch
    n = 4000
    g = gen_gnp(n, 0.001, 11)
    assert all(0 <= u < v < n for u, v in g.edges)
    mu = math.comb(n, 2) * 0.001
    assert abs(g.edge_count - mu) <= 4 * math.sqrt(mu)


@given(st.integers(0, 2**31), st.integers(2, 40), st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_gen_gnp_properties(seed, n, p):
    g = gen_gnp(n, p, seed)
    assert g.n == n
    for u, v in g.edges:
        assert 0 <= u < v < n
        assert v in g.adj[u] and u in g.adj[v]


def test_components_and_isolated_vertices():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    comps = components(g)
    assert [c.vertices for c in comps] == [(0, 1, 2), (3,), (4, 5)]
    # a single vertex is not a path here; a path is the row of its edge ranks
    paths = census(g).paths
    assert list(paths) == [2, 3]
    assert paths[2].tolist() == [[pair_rank(4, 5)]]
    assert paths[3].tolist() == [[pair_rank(0, 1), pair_rank(1, 2)]]


def test_census_hand_example():
    # two P2, one P3, one triangle, one isolated vertex: n = 11
    g = Graph.from_edges(
        11,
        [(0, 1), (2, 3), (4, 5), (5, 6), (7, 8), (7, 9), (8, 9)],
    )
    c = census(g)
    assert c.path_counts == {2: 2, 3: 1}
    assert sorted(c.counts.values()) == [1, 1, 1, 2]
    assert c.paths[2].shape == (2, 1) and c.paths[3].shape == (1, 2)


@pytest.mark.parametrize(
    "n, edges, code",
    [
        # a tree: its AHU code
        (5, [(0, 1), (1, 2), (1, 3), (3, 4)], b"[(()())(())]"),
        # small non-trees: "G{" + exact certificate + "}"
        (3, [(0, 1), (1, 2), (0, 2)], b"G{K3}"),
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], b"G{B4:3d}"),
        # above 12 vertices: order, size and a digest of the degree sequence
        (
            13,
            [(i, i + 1) for i in range(12)] + [(0, 2)],
            b"L13,13:c1326e5729785d02",
        ),
    ],
)
def test_census_codes_pinned(n, edges, code):
    assert census(Graph.from_edges(n, edges)).counts == {code: 1}


def test_census_sum_invariant_random():
    # every component is counted once, and the rows of the paths on k
    # vertices span k vertices each, none shared
    for seed in range(20):
        g = gen_gnp(60, 0.03, seed)
        c = census(g)
        assert sum(c.counts.values()) == len(bfs_components(g))
        for k, rows in c.paths.items():
            us, vs = _unrank_pairs(rows.ravel())
            assert len(np.union1d(us, vs)) == k * len(rows)


def _naive_census(g: Graph):
    comps = bfs_components(g)
    reps: list = []
    counts: list[int] = []
    for comp in comps:
        index = {v: i for i, v in enumerate(comp.vertices)}
        sub = Graph.from_edges(
            comp.order, [(index[u], index[v]) for u, v in comp.edges]
        )
        for i, r in enumerate(reps):
            if brute_isomorphic(sub, r):
                counts[i] += 1
                break
        else:
            reps.append(sub)
            counts.append(1)
    return sorted(counts)


def test_census_agrees_with_naive_classification():
    # the contract: exact classification on graphs with <= 12 vertices
    rng = rngmod.stream(123, 0)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 13))
        p = float(rng.uniform(0.05, 0.5))
        seed = int(rng.integers(0, 2**31))
        g = gen_gnp(n, p, seed)
        assert sorted(census(g).counts.values()) == _naive_census(g)
        checked += 1


def _assert_matches_oracle(g: Graph) -> None:
    assert components(g) == bfs_components(g)
    counts, paths = component_census(g)
    c = census(g)
    assert c.counts == counts
    assert list(c.paths) == list(paths)
    for k, rows in paths.items():
        assert c.paths[k].shape == (len(rows), k - 1)
        assert np.array_equal(c.paths[k], rows)
    assert c.path_counts == {k: len(v) for k, v in paths.items()}


@given(
    st.integers(0, 2**31),
    st.integers(2, 400),
    st.sampled_from([0.3, 0.7, 1.5, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_labelling_matches_bfs_oracle(seed, n, mean_degree):
    # mean degree below and above 1: tiny components only, then a giant one
    _assert_matches_oracle(gen_gnp(n, min(1.0, mean_degree / n), seed))


@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_labelling_edgeless_graphs(n):
    g = Graph.from_edges(n, [])
    _assert_matches_oracle(g)
    assert [c.vertices for c in components(g)] == [(v,) for v in range(n)]
    assert census(g).paths == {}


def _random_tree_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random labelled tree on n vertices, by Pruefer decoding."""
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return np.array(edges, dtype=np.int64)


@pytest.mark.parametrize("shape", ["path", "tree"])
def test_labelling_adversarial_order_is_fast(shape):
    # neighbour-min propagation needs ~26k rounds (about a minute) on the
    # randomly labelled path; root hooking needs a logarithmic number
    n = 10**5
    rng = rngmod.stream(2024, 0)
    if shape == "path":
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    else:
        edges = _random_tree_edges(n, rng)
    perm = rng.permutation(n)
    us, vs = perm[edges[:, 0]], perm[edges[:, 1]]
    # drop one edge, so the labels must also keep two components apart
    cut = n // 3
    keep = np.arange(n - 1) != cut
    start = time.perf_counter()
    labels = _component_labels(n, us[keep], vs[keep])
    elapsed = time.perf_counter() - start
    g = Graph.from_edges(n, zip(us[keep].tolist(), vs[keep].tolist()))
    comps = bfs_components(g)
    assert len(comps) == 2
    for comp in comps:
        assert (labels[list(comp.vertices)] == comp.vertices[0]).all()
    assert elapsed < 2.0, elapsed


def test_edgelist_round_trip(tmp_path):
    g = gen_gnp(50, 0.1, 3)
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    h = read_edgelist(path)
    assert h.n == g.n and h.edges == g.edges


def test_edgelist_empty_graph(tmp_path):
    path = str(tmp_path / "e.edges")
    path_obj = tmp_path / "e.edges"
    path_obj.write_text("5 0\n")
    g = read_edgelist(path)
    assert g.n == 5 and g.edge_count == 0


@pytest.mark.parametrize(
    "text",
    [
        "nonsense\n",
        "3\n",
        "3 1\n0 0\n",
        "3 1\n1 0\n",
        "3 1\n0 3\n",
        "3 2\n0 1\n0 1\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 99999999999999999999\n",
    ],
)
def test_edgelist_rejects_malformed(tmp_path, text):
    f = tmp_path / "bad.edges"
    f.write_text(text)
    with pytest.raises(ValueError):
        read_edgelist(str(f))


@pytest.mark.parametrize(
    "text, message",
    [
        ("nonsense\n", "line 1: expected '<n> <m>', got 'nonsense'"),
        ("3 1 4\n", "line 1: expected '<n> <m>', got '3 1 4'"),
        ("x 0\n", "line 1: vertex count is not an integer: 'x'"),
        ("3 1.5\n", "line 1: edge count is not an integer: '1.5'"),
        ("-3 0\n", "line 1: vertex count is negative: '-3'"),
        ("3 -1\n", "line 1: edge count is negative: '-1'"),
        # a vertex id far beyond int64 is named, not overflowed
        (
            "3 1\n0 99999999999999999999\n",
            "edge (0, 99999999999999999999) out of range for n=3",
        ),
    ],
)
def test_edgelist_error_messages(tmp_path, text, message):
    f = tmp_path / "bad.edges"
    f.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_edgelist(str(f))
    assert str(exc.value) == message
