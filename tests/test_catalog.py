import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_isomorphic, prufer_tree, relabel, sampled_distinct_trees
from taulab import rng as rngmod
from taulab.catalog import (
    LinearForest,
    ahu_code,
    catalan,
    distinct_maxdeg3_trees,
    enumerate_rooted_binary,
    forest_code,
    free_trees,
    iter_distinct_maxdeg3_trees,
    maxdeg3_trees,
    partition_count,
    partitions,
    rooted_to_graph,
    sample_rooted_binary,
)
from taulab.graph import Graph

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
    got = [len(maxdeg3_trees(t)) for t in range(1, 9)]
    assert got == [1, 1, 1, 2, 2, 4, 6, 11]


def test_distinct_maxdeg3_exhaustive_route():
    trees = distinct_maxdeg3_trees(7, 6)
    codes = {ahu_code(g) for g in trees}
    assert len(codes) == 6
    with pytest.raises(RuntimeError):
        distinct_maxdeg3_trees(7, 7)  # only 6 exist


def test_distinct_maxdeg3_sampling_route():
    trees = distinct_maxdeg3_trees(20, 25, rng=rngmod.stream(1, 1))
    codes = {ahu_code(g) for g in trees}
    assert len(codes) == 25
    assert all(g.n == 20 for g in trees)


@pytest.mark.parametrize("t", [17, 20, 34])
@pytest.mark.parametrize("seed", range(5))
def test_distinct_maxdeg3_matches_sampling_loop(t, seed):
    # the stream's prefix is the tree sequence a plain sampling loop keeps
    want = 40
    got = distinct_maxdeg3_trees(t, want, rng=rngmod.stream(seed, 2))
    oracle = sampled_distinct_trees(t, want, rngmod.stream(seed, 2))
    assert len(oracle) == want
    assert [g.edges for g in got] == [g.edges for g in oracle]


def test_distinct_maxdeg3_sampling_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        distinct_maxdeg3_trees(20, 3)


def test_iter_distinct_trees():
    # small t: the stream is the full exhaustive list
    codes = [ahu_code(g) for g in iter_distinct_maxdeg3_trees(12, rngmod.stream(2, 2))]
    assert len(codes) == len(set(codes)) == len(maxdeg3_trees(12))
    # large t: sampled, deduplicated, and finite even when saturated
    it = iter_distinct_maxdeg3_trees(20, rngmod.stream(2, 3))
    seen = set()
    for _ in range(30):
        code = ahu_code(next(it))
        assert code not in seen
        seen.add(code)


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
