import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prufer_tree, relabel, scalar_dfs_path_pack, tuple_forest_edges
from taulab.catalog import LinearForest, partitions
from taulab.graph import Graph, edge_tuples, gen_gnp, pair_ranks
from taulab import pathpack
from taulab.pathpack import _forest_classes, dfs_path_pack, pack_forests


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def used_edges(pack) -> set[tuple[int, int]]:
    """The host edges the pack's paths consumed, as (u, v) pairs with u < v."""
    return {(min(e), max(e)) for p in pack.paths for e in zip(p, p[1:])}


def check_pack(g: Graph, pack, target_len: int) -> None:
    seen_edges = set()
    for path in pack.paths:
        assert len(path) == target_len + 1
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
            e = (a, b) if a < b else (b, a)
            assert e not in seen_edges
            seen_edges.add(e)
    # the paths are edge-disjoint, so pack-paths prints this as edges_used
    assert len(seen_edges) == len(pack.paths) * target_len


def test_path_graph_split():
    pack = dfs_path_pack(path_graph(11), 5, 10)
    assert pack.paths == [(0, 1, 2, 3, 4, 5), (5, 6, 7, 8, 9, 10)]
    assert len(used_edges(pack)) == 10
    check_pack(path_graph(11), pack, 5)


def test_cycle_harvest():
    g = cycle_graph(12)
    pack = dfs_path_pack(g, 5, 10)
    assert len(pack.paths) == 2
    check_pack(g, pack, 5)


def test_max_paths_cap():
    pack = dfs_path_pack(path_graph(11), 5, 1)
    assert len(pack.paths) == 1


def test_small_components_yield_nothing():
    # three disjoint 4-vertex paths cannot host a length-5 path
    edges = []
    for base in (0, 4, 8):
        edges += [(base + i, base + i + 1) for i in range(3)]
    g = Graph.from_edges(12, edges)
    pack = dfs_path_pack(g, 5, 10)
    assert pack.paths == []
    assert used_edges(pack) == set()


def test_reused_edge_is_refused(monkeypatch):
    # after the real first sweep harvests (0, 1), a sweep that hands back the
    # same edge from vertex 1 finds vertex 1 gone from vertex 0's residual
    real = pathpack._sweep
    calls = []

    def sweep(residual, offsets, targets, target_len):
        calls.append(None)
        if len(calls) == 1:
            return real(residual, offsets, targets, target_len)
        return [1, 0], [0, 1, 0, 0]  # ptr[1] = 1: residual[1] is [2]

    monkeypatch.setattr(pathpack, "_sweep", sweep)
    with pytest.raises(ValueError, match="not in array"):
        dfs_path_pack(path_graph(4), 1, 2)
    assert len(calls) == 2


def test_path_with_a_repeated_vertex_is_refused(monkeypatch):
    monkeypatch.setattr(pathpack, "_sweep", lambda *args: ([0, 1, 0], [1, 1, 0, 0]))
    with pytest.raises(RuntimeError, match="repeats a vertex"):
        dfs_path_pack(path_graph(4), 2, 1)


def test_input_validation():
    with pytest.raises(ValueError):
        dfs_path_pack(path_graph(5), 0, 1)
    with pytest.raises(ValueError):
        dfs_path_pack(path_graph(5), 2, -1)


@given(st.integers(0, 2**31), st.floats(0.05, 0.25))
@settings(max_examples=30, deadline=None)
def test_pack_invariants_property(seed, p):
    g = gen_gnp(30, p, seed)
    pack = dfs_path_pack(g, 4, 50)
    check_pack(g, pack, 4)


def assert_matches_oracle(g: Graph, target_len: int, max_paths: int) -> None:
    pack = dfs_path_pack(g, target_len, max_paths)
    paths, used = scalar_dfs_path_pack(g, target_len, max_paths)
    assert pack.paths == paths
    assert used_edges(pack) == used
    check_pack(g, pack, target_len)


@given(
    st.integers(1, 60),
    st.floats(0.0, 0.5),
    st.integers(0, 2**31),
    st.integers(1, 6),
    st.integers(0, 40),
)
@settings(max_examples=150, deadline=None)
def test_residual_lists_match_scalar_dfs(n, p, seed, target_len, max_paths):
    assert_matches_oracle(gen_gnp(n, p, seed), target_len, max_paths)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_paths(orders) -> Graph:
    edges, base = [], 0
    for order in orders:
        edges += [(base + i, base + i + 1) for i in range(order - 1)]
        base += order
    return Graph.from_edges(base, edges)


@pytest.mark.parametrize("target_len", range(1, 7))
def test_backtracking_shapes_match_scalar_dfs(target_len):
    # stars dead-end at every leaf, random trees backtrack at every branch,
    # and disjoint paths exhaust one component before the next starts
    rng = np.random.default_rng(target_len)
    shapes = [star_graph(9), star_graph(1), disjoint_paths([3, 7, 2, 12, 5])]
    for _ in range(20):
        tree = prufer_tree(rng.integers(0, 14, size=12).tolist())
        shapes += [tree, relabel(tree, rng.permutation(14).tolist())]
    for g in shapes:
        assert_matches_oracle(g, target_len, 50)


def test_no_paths_asked_or_none_long_enough():
    g = gen_gnp(30, 0.2, 3)
    for target_len, max_paths in [(3, 0), (31, 10)]:
        pack = dfs_path_pack(g, target_len, max_paths)
        assert pack.paths == [] and used_edges(pack) == set()
        assert_matches_oracle(g, target_len, max_paths)


def test_sparse_host_matches_scalar_dfs():
    n = 2000
    assert_matches_oracle(gen_gnp(n, 30 / n, 5), 100, 1000)


def placed_edges(paths, placement) -> tuple[tuple[int, int], ...]:
    """The (u, v) edges of one placement, cut from the ranked paths."""
    return edge_tuples(_forest_classes(paths, [placement])[0])


def test_forest_layout_on_one_path():
    path = tuple(range(11))
    res = pack_forests([path], [LinearForest((2, 1)), LinearForest((2, 1))])
    first, second = res.placements
    assert first.offset == 0
    assert placed_edges([path], first) == ((0, 1), (1, 2), (3, 4))
    assert second.offset == 5
    assert placed_edges([path], second) == ((5, 6), (6, 7), (8, 9))


def test_forest_layout_stops_when_full():
    path = tuple(range(11))
    forests = [LinearForest((2, 1))] * 3  # footprint 5 each
    res = pack_forests([path], forests)
    assert len(res.placements) == 2


def test_forest_layout_is_lazy():
    path = tuple(range(11))
    pulled = 0

    def supply():
        nonlocal pulled
        while True:
            pulled += 1
            yield LinearForest((2, 1))

    res = pack_forests([path], supply())
    assert len(res.placements) == 2
    assert pulled == 3


def test_mixed_sizes_first_fit():
    # a smaller forest goes back to an earlier path that still has room
    paths = [tuple(range(8)), tuple(range(10, 21))]
    sizes = [(2, 1), (3, 2), (1,), (2,), (1,), (1,)]  # orders 5, 7, 2, 3, 2, 2
    res = pack_forests(paths, map(LinearForest, sizes))
    assert [(p.path_index, p.offset) for p in res.placements] == [
        (0, 0), (1, 0), (0, 5), (1, 7)
    ]
    assert [placed_edges(paths, p) for p in res.placements] == [
        ((0, 1), (1, 2), (3, 4)),
        ((10, 11), (11, 12), (12, 13), (14, 15), (15, 16)),
        ((5, 6),),
        ((17, 18), (18, 19)),
    ]


def test_first_fit_across_paths():
    paths = [tuple(range(6)), tuple(range(10, 21))]
    forests = [LinearForest((4,))] * 4  # footprint 5 each
    res = pack_forests(paths, forests)
    assert [p.path_index for p in res.placements] == [0, 1, 1]
    assert [p.offset for p in res.placements] == [0, 0, 5]


def test_subpaths_within_forest_are_vertex_disjoint():
    path = tuple(range(10, 22))
    res = pack_forests([path], [LinearForest((1, 1, 1))])
    (placement,) = res.placements
    edges = placed_edges([path], placement)
    assert edges == ((10, 11), (12, 13), (14, 15))
    ends = [v for e in edges for v in e]
    assert len(set(ends)) == len(ends)


def test_empty_inputs():
    res = pack_forests([], [LinearForest((1,))])
    assert res.placements == []
    assert pack_forests([tuple(range(5))], []).placements == []


def check_forest_cut(paths, forests) -> None:
    """The classes cut from the ranked paths are the pair ranks of the
    edges the tuple route lays out, and both stop at the same forest."""
    res = pack_forests(paths, forests)
    want, stop = tuple_forest_edges(paths, forests)
    assert len(res.placements) == (len(forests) if stop is None else stop)
    got = _forest_classes(paths, res.placements)
    assert [cls.tolist() for cls in got] == [
        sorted(pair_ranks(edges).tolist()) for edges in want
    ]


@given(
    st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=30), max_size=5),
    st.lists(
        st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
            lambda xs: LinearForest(tuple(sorted(xs, reverse=True)))
        ),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_forest_classes_match_tuple_route(walks, forests):
    # vertex i of a path is shifted by 41 i, so no path repeats a vertex
    paths = [tuple(v + i * 41 for i, v in enumerate(walk)) for walk in walks]
    check_forest_cut(paths, forests)


@pytest.mark.parametrize("seed", range(3))
def test_forest_classes_of_a_sparse_pack_match_tuple_route(seed):
    # the forests of a sparse trial, one per partition of k, up to and
    # including the first that fits nowhere
    g = gen_gnp(600, 12 / 600, seed)
    pack = dfs_path_pack(g, 30, 12)
    forests = [LinearForest(lengths) for lengths in itertools.islice(partitions(13), 80)]
    check_forest_cut(pack.paths, forests)
    assert len(pack_forests(pack.paths, forests).placements) < len(forests)
