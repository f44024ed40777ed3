import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bigint_below,
    brute_isomorphic,
    free_trees,
    prufer_tree,
    relabel,
    rooted_to_graph,
    sample_rooted_binary,
    sampled_distinct_trees,
    two_pass_tree_code,
)
from taulab import rng as rngmod
from taulab import catalog
from taulab.catalog import (
    LinearForest,
    _unrank_shape,
    _unrank_tree,
    ahu_code,
    catalan,
    enumerate_rooted_binary,
    forest_code,
    iter_distinct_maxdeg3_trees,
    partition_count,
    partitions,
)
from taulab.graph import Graph, tree_code

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23]  # t = 1..8


def test_catalan_known_values():
    for t, c in enumerate(CATALAN_PREFIX):
        assert catalan(t) == c


def test_enumeration_matches_catalan():
    for t in range(1, 9):
        shapes = list(enumerate_rooted_binary(t))
        assert len(shapes) == catalan(t)
        assert len(set(shapes)) == len(shapes)
        assert all(s.size == t for s in shapes)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_rooted_binary(17))


def test_rooted_to_graph_is_maxdeg3_tree():
    for shape in enumerate_rooted_binary(6):
        g = rooted_to_graph(shape)
        assert g.n == 6 and g.edge_count == 5
        assert max(len(a) for a in g.adj) <= 3


def test_sampling_agrees_with_enumeration_support():
    # every shape of size 5 must be reachable by the unranking sampler
    want = {rooted_to_graph(s).edges for s in enumerate_rooted_binary(5)}
    r = rngmod.stream(5, 5)
    got = set()
    for _ in range(2000):
        got.add(rooted_to_graph(sample_rooted_binary(5, r)).edges)
        if got == want:
            break
    assert got == want


def test_sampling_roughly_uniform():
    # chi-square-ish sanity: catalan(4)=14 shapes, 7000 draws
    r = rngmod.stream(6, 0)
    counts: dict = {}
    draws = 7000
    for _ in range(draws):
        s = sample_rooted_binary(4, r)
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 14
    expected = draws / 14
    assert all(abs(c - expected) < 5 * expected**0.5 for c in counts.values())


def test_free_trees_known_counts():
    for t, want in enumerate(FREE_TREE_COUNTS, start=1):
        assert len(free_trees(t)) == want


def test_maxdeg3_counts_small():
    # 1, 1, 1, 2, 2, 4, 6, 11 for t = 1..8
    got = [len(list(iter_distinct_maxdeg3_trees(t, None))) for t in range(1, 9)]
    assert got == [1, 1, 1, 2, 2, 4, 6, 11]


def test_distinct_maxdeg3_exhaustive_route():
    trees = [g for g, _ in iter_distinct_maxdeg3_trees(7, None)]
    codes = {ahu_code(g) for g in trees}
    assert len(trees) == len(codes) == 6  # all there are, and no more


def test_distinct_maxdeg3_sampling_route():
    stream = iter_distinct_maxdeg3_trees(20, rngmod.stream(1, 1))
    trees = [g for g, _ in itertools.islice(stream, 25)]
    codes = {ahu_code(g) for g in trees}
    assert len(codes) == 25
    assert all(g.n == 20 for g in trees)


@pytest.mark.parametrize("t", [17, 20, 34])
@pytest.mark.parametrize("seed", range(5))
def test_distinct_maxdeg3_matches_sampling_loop(t, seed):
    # the stream's prefix is the tree sequence a plain sampling loop keeps,
    # one bytes call per draw; at the dense order 34 the 300 trees of a
    # bench trial cross several of the stream's blocks of draws
    want = 300 if t == 34 else 40
    stream = iter_distinct_maxdeg3_trees(t, rngmod.stream(seed, 2))
    got = [g for g, _ in itertools.islice(stream, want)]
    oracle = sampled_distinct_trees(t, want, rngmod.stream(seed, 2))
    assert len(oracle) == want
    assert [g.edges for g in got] == [g.edges for g in oracle]


def test_distinct_maxdeg3_sampling_gives_up(monkeypatch):
    # every draw is one shape: the first is a tree, and the stream ends at
    # the 10_001st miss in a row, max(10_000, 60 * 1) being the patience
    draws = itertools.repeat(5, 20_000)
    monkeypatch.setattr(rngmod, "bigints_below", lambda rng, bound: draws)
    trees = list(iter_distinct_maxdeg3_trees(17, rngmod.stream(0, 2)))
    assert len(trees) == 1
    assert sum(1 for _ in draws) == 20_000 - 1 - 10_001


def test_distinct_maxdeg3_sampling_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        next(iter_distinct_maxdeg3_trees(20, None))


def test_iter_distinct_trees():
    # small t: the stream is the full exhaustive list
    codes = [ahu_code(g) for g, _ in iter_distinct_maxdeg3_trees(12, rngmod.stream(2, 2))]
    # of networkx's free trees on 12 vertices, 135 have no degree above 3
    want = sum(max(map(len, g.adj)) <= 3 for g in free_trees(12))
    assert len(codes) == len(set(codes)) == want == 135
    # large t: sampled, deduplicated, and finite even when saturated
    it = iter_distinct_maxdeg3_trees(20, rngmod.stream(2, 3))
    seen = set()
    for _ in range(30):
        code = ahu_code(next(it)[0])
        assert code not in seen
        seen.add(code)


def test_exhaustive_trees_enumerated_once(monkeypatch):
    calls = []
    enumerate_trees = nx.nonisomorphic_trees

    def counting(t):
        calls.append(t)
        return enumerate_trees(t)

    monkeypatch.setattr(catalog.nx, "nonisomorphic_trees", counting)
    catalog._coded_maxdeg3_trees.cache_clear()
    first = list(iter_distinct_maxdeg3_trees(9, None))
    assert calls == [9]
    second = list(iter_distinct_maxdeg3_trees(9, None))
    assert calls == [9]
    assert second == first
    assert [code for _, code in second] == [ahu_code(g) for g, _ in second]
    with pytest.raises(ValueError):
        second[0][0].ranks[0] = 1  # the shared trees are read-only


def assert_unranks_like_oracle(t: int, rank: int) -> None:
    fast = _unrank_tree(t, rank)
    oracle = rooted_to_graph(_unrank_shape(t, rank))
    assert fast.n == oracle.n == t
    assert fast.edges == oracle.edges
    assert fast.ranks.dtype == np.int64
    assert fast == oracle
    # the neighbour lists handed over equal the CSR pass over the ranks
    assert fast.adj == oracle.adj == Graph.from_ranks(t, fast.ranks).adj


@pytest.mark.parametrize("t", range(1, 10))
def test_unrank_tree_matches_shape_oracle_exhaustively(t):
    for rank in range(catalan(t)):
        assert_unranks_like_oracle(t, rank)


@pytest.mark.parametrize("t", [17, 34, 48])
def test_unrank_tree_matches_shape_oracle_sampled(t):
    rng = rngmod.stream(t, 9)
    ranks = [0, catalan(t) - 1] + [
        bigint_below(rng, catalan(t)) for _ in range(498)
    ]
    for rank in ranks:
        assert_unranks_like_oracle(t, rank)


def test_supply_hands_over_the_trees_code():
    for g, code in itertools.islice(
        iter_distinct_maxdeg3_trees(34, rngmod.stream(3, 2)), 20
    ):
        assert code == ahu_code(Graph.from_ranks(g.n, g.ranks))


def test_ahu_code_relabelling_invariance():
    r = rngmod.stream(9, 9)
    for _ in range(200):
        n = int(r.integers(2, 10))
        seq = [int(r.integers(0, n)) for _ in range(n - 2)]
        g = prufer_tree(seq)
        perm = list(r.permutation(n))
        assert ahu_code(g) == ahu_code(relabel(g, perm))


def test_ahu_code_counts_free_trees():
    # distinct codes over all Pruefer sequences = number of free trees
    for n in range(2, 8):
        codes = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            codes.add(ahu_code(prufer_tree(seq)))
        assert len(codes) == FREE_TREE_COUNTS[n - 1]


def test_ahu_code_equality_iff_isomorphic():
    pool = [t for n in range(1, 8) for t in free_trees(n)]
    for a, b in itertools.combinations_with_replacement(pool, 2):
        same_code = ahu_code(a) == ahu_code(b)
        assert same_code == brute_isomorphic(a, b)


def test_ahu_rejects_non_trees():
    with pytest.raises(ValueError):
        ahu_code(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    with pytest.raises(ValueError):
        # right edge count but disconnected (one cycle plus isolated dust)
        ahu_code(Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))


@st.composite
def labelled_trees(draw) -> Graph:
    n = draw(st.integers(1, 60))
    if n == 1:
        return Graph.from_edges(1, [])
    return prufer_tree(draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                                     max_size=n - 2)))


@given(labelled_trees())
@settings(max_examples=300, deadline=None)
def test_tree_code_matches_two_pass_oracle(g):
    assert tree_code(g.adj) == two_pass_tree_code(g.adj)


def test_tree_code_matches_two_pass_oracle_on_every_free_tree():
    r = rngmod.stream(3, 3)
    for t in range(1, 11):
        for g in free_trees(t):
            for h in (g, relabel(g, list(r.permutation(t)))):
                assert tree_code(h.adj) == two_pass_tree_code(h.adj)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        # a triangle and a K2 apart: the K2 peels away, the triangle never
        (5, [(0, 1), (1, 2), (0, 2), (3, 4)], "contains a cycle"),
        (2, [], "disconnected centre pair"),
        # two paths of 3: their middles are left as two centres
        (6, [(0, 1), (1, 2), (3, 4), (4, 5)], "disconnected centre pair"),
        (4, [(0, 1), (1, 2)], "not connected"),  # plus an isolated vertex
        # a path of 4 with a K2 apart: the central edge codes 4 of 6 vertices
        (6, [(0, 1), (1, 2), (2, 3), (4, 5)], "not connected"),
    ],
)
def test_tree_code_names_why_the_input_is_not_a_tree(n, edges, message):
    adj = Graph.from_edges(n, edges).adj
    want = f"input is not a tree ({message})"
    for code in (tree_code, two_pass_tree_code):
        with pytest.raises(ValueError) as exc:
            code(adj)
        assert str(exc.value) == want


def test_partitions_shape_and_order():
    got = list(partitions(5))
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


@given(st.integers(0, 18))
@settings(deadline=None)
def test_partition_count_matches_enumeration(k):
    parts = list(partitions(k))
    assert len(parts) == partition_count(k)
    assert len(set(parts)) == len(parts)
    for q in parts:
        assert sum(q) == k
        assert all(a >= b for a, b in zip(q, q[1:]))


def test_partition_count_known_values():
    assert [partition_count(k) for k in range(10)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30,
    ]
    assert partition_count(100) == 190569292


def test_linear_forest_validation():
    f = LinearForest((3, 1))
    assert f.k == 4 and f.part_count == 2 and f.order == 6
    with pytest.raises(ValueError):
        LinearForest(())
    with pytest.raises(ValueError):
        LinearForest((1, 3))
    with pytest.raises(ValueError):
        LinearForest((2, 0))


def test_forest_codes_distinct():
    codes = {forest_code(LinearForest(q)) for q in partitions(8)}
    assert len(codes) == partition_count(8) == 22
