import itertools

import networkx as nx
import numpy as np
import pytest
from conftest import brute_isomorphic, relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab import rng as rngmod
from taulab.catalog import free_trees
from taulab.coloring import (
    CanonicalizationError,
    Coloring,
    VerifyError,
    build_dense_coloring,
    build_sparse_coloring,
    build_verysparse_coloring,
    canonical_form,
    class_signature,
    read_coloring,
    tau_exact,
    tau_matching,
    verify_distinct,
    verysparse_box,
    write_coloring,
)
from taulab.embed import LazyRandomGraph, greedy_embed, materialize
from taulab.graph import Graph, census, edge_tuples, gen_gnp, pair_ranks


def ranked(*classes) -> tuple[np.ndarray, ...]:
    """Colour classes given as edge lists, as Coloring takes them."""
    return tuple(np.sort(pair_ranks(cls)) for cls in classes)


def class_edges(col: Coloring) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(edge_tuples(cls) for cls in col.classes)


def maxdeg3_trees(t: int) -> list[Graph]:
    return [g for g in free_trees(t) if max(len(a) for a in g.adj) <= 3]


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# --- canonical forms -------------------------------------------------------


def test_canonical_special_shapes():
    k5 = Graph.from_edges(5, list(itertools.combinations(range(5), 2)))
    assert canonical_form(k5) == b"G{K5}"
    assert canonical_form(cycle_graph(6)) == b"G{C6}"
    single = Graph.from_edges(2, [(0, 1)])
    assert canonical_form(single) == b"G{K2}"
    # an isolated vertex shows up as its own K1 component
    padded = Graph.from_edges(3, [(0, 1)])
    assert canonical_form(padded) == b"G{K1|K2}"


def test_canonical_relabelling_invariance():
    rng = rngmod.stream(31, 0)
    for n in (4, 5, 6, 7):
        for trial in range(10):
            g = gen_gnp(n, 0.5, 31_000 + 100 * n + trial)
            perm = list(rng.permutation(n))
            assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_agrees_with_brute_force():
    pool = [gen_gnp(6, p, 5000 + i) for i, p in enumerate([0.3, 0.5, 0.7] * 6)]
    for a, b in itertools.combinations(pool, 2):
        same = canonical_form(a) == canonical_form(b)
        assert same == brute_isomorphic(a, b)


def test_canonical_size_cap():
    with pytest.raises(CanonicalizationError):
        canonical_form(cycle_graph(11))
    assert canonical_form(cycle_graph(11), max_vertices=11) == b"G{C11}"


def test_class_signature_handles_large_forests():
    a = [(i, i + 1) for i in range(50)]
    b = [(100 + i, 101 + i) for i in range(50)]
    assert class_signature(a) == class_signature(b)
    # same edge count, different shape: a path vs a path plus a spare edge
    c = [(i, i + 1) for i in range(49)] + [(200, 201)]
    assert class_signature(c) != class_signature(a)


def _random_class(kind: str, rng) -> list[tuple[int, int]]:
    """A random edge set on at most 10 vertices: a forest, a graph with a
    cycle, or a forest beside a graph with a cycle."""

    def forest(vs):
        return [
            (int(vs[rng.integers(0, i)]), int(vs[i]))
            for i in range(1, len(vs))
            if rng.random() < 0.8
        ]

    def cyclic(vs):
        k = int(rng.integers(3, len(vs) + 1))
        ring = [(int(vs[i]), int(vs[(i + 1) % k])) for i in range(k)]
        extra = [
            (int(a), int(b))
            for a, b in itertools.combinations(vs, 2)
            if rng.random() < 0.25
        ]
        return ring + extra

    vs = rng.permutation(10)[: int(rng.integers(5 if kind == "mixed" else 3, 11))]
    if kind == "forest":
        edges = forest(vs)
    elif kind == "cyclic":
        edges = cyclic(vs)
    else:
        cut = int(rng.integers(2, len(vs) - 2))
        edges = forest(vs[:cut]) + cyclic(vs[cut:])
    return sorted({(min(a, b), max(a, b)) for a, b in edges})


def _nx_graph(edges) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from(edges)
    return g


@given(
    st.integers(0, 2**31),
    st.sampled_from(["forest", "cyclic", "mixed"]),
    st.sampled_from(["relabelled", "edge moved", "fresh"]),
)
@settings(max_examples=300, deadline=None)
def test_class_signature_agrees_with_networkx(seed, kind, partner):
    rng = rngmod.stream(seed, 0)
    a = _random_class(kind, rng)
    if not a:
        return
    if partner == "fresh":
        b = _random_class(kind, rng)
    else:
        b = list(a)
        if partner == "edge moved":
            free = [e for e in itertools.combinations(range(10), 2) if e not in a]
            b[int(rng.integers(0, len(b)))] = free[int(rng.integers(0, len(free)))]
        perm = rng.permutation(10).tolist()
        b = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in b)
    same = class_signature(a) == class_signature(b)
    assert same == nx.is_isomorphic(_nx_graph(a), _nx_graph(b))


# --- colourings and verification ------------------------------------------


def test_coloring_validation():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="label"):
        Coloring(host=g, classes=ranked([(0, 1)], [(2, 3)]), labels=("a",))
    with pytest.raises(ValueError, match="two classes"):
        Coloring(
            host=g,
            classes=ranked([(0, 1)], [(0, 1), (2, 3)]),
            labels=("a", "b"),
        )
    with pytest.raises(ValueError, match="not in host"):
        Coloring(host=g, classes=ranked([(0, 1), (1, 2)], [(2, 3)]), labels=("a", "b"))
    with pytest.raises(ValueError, match="cover"):
        Coloring(host=g, classes=ranked([(0, 1)]), labels=("a",))
    with pytest.raises(ValueError, match="empty"):
        Coloring(host=g, classes=ranked([(0, 1), (2, 3)], []), labels=("a", "b"))


@given(
    st.integers(0, 2**31),
    st.integers(1, 5),
    st.sampled_from(["valid", "label", "two classes", "not in host", "cover", "empty"]),
)
@settings(max_examples=150, deadline=None)
def test_coloring_validation_property(seed, parts, fault):
    # split a random graph's ranks into classes, then plant one fault
    rng = rngmod.stream(seed, 0)
    g = gen_gnp(int(rng.integers(4, 12)), 0.5, seed)
    if g.edge_count < 2 or g.edge_count == g.n * (g.n - 1) // 2:
        return
    owner = rng.integers(0, parts, size=g.edge_count)
    classes = [g.ranks[owner == c] for c in range(parts) if (owner == c).any()]
    labels = [str(i) for i in range(len(classes))]
    non_edge = np.setdiff1d(np.arange(g.n * (g.n - 1) // 2), g.ranks)[:1]
    if fault == "label":
        labels.append("spare")
    elif fault == "two classes":
        classes.append(classes[0][:1])
        labels.append("copy")
    elif fault == "not in host":
        classes[-1] = np.sort(np.concatenate((classes[-1], non_edge)))
    elif fault == "cover":
        if len(classes[0]) == 1:
            del classes[0], labels[0]
        else:
            classes[0] = classes[0][1:]
    elif fault == "empty":
        classes.append(np.empty(0, dtype=np.int64))
        labels.append("none")
    if fault == "valid":
        Coloring(host=g, classes=tuple(classes), labels=tuple(labels))
        return
    with pytest.raises(ValueError, match=fault):
        Coloring(host=g, classes=tuple(classes), labels=tuple(labels))


def test_verify_flags_isomorphic_singletons():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    col = Coloring(host=g, classes=ranked([(0, 1)], [(2, 3)]), labels=("a", "b"))
    ok, pair = verify_distinct(col)
    assert not ok
    assert pair == (0, 1)


def test_verify_separates_same_size_classes():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    col = Coloring(
        host=g,
        classes=ranked([(0, 1), (1, 2)], [(3, 4), (5, 6)]),
        labels=("two adjacent", "two disjoint"),
    )
    assert verify_distinct(col) == (True, None)


def test_verify_raises_when_uncheckable():
    def norm(edges):
        return tuple(sorted(tuple(sorted(e)) for e in edges))

    edges_a = norm((i, (i + 1) % 12) for i in range(12))
    edges_b = norm((20 + i, 20 + (i + 1) % 12) for i in range(12))
    g = Graph.from_edges(32, edges_a + edges_b)
    col = Coloring(host=g, classes=ranked(edges_a, edges_b), labels=("a", "b"))
    with pytest.raises(VerifyError):
        verify_distinct(col)
    # a larger cap resolves the group (and finds the collision)
    ok, pair = verify_distinct(col, max_vertices=12)
    assert not ok and pair == (0, 1)


def test_verify_mixed_class_with_large_tree():
    # a 15-vertex path beside a triangle: the path is above the canonical
    # form's cap, but as a tree it is coded exactly at any size
    mixed = [(i, i + 1) for i in range(14)] + [(15, 16), (15, 17), (16, 17)]
    path = [(20 + i, 21 + i) for i in range(17)]
    g = Graph.from_edges(40, mixed + path)
    col = Coloring(host=g, classes=ranked(mixed, path), labels=("a", "b"))
    # both classes have 17 edges, so their signatures are compared
    assert verify_distinct(col) == (True, None)
    # and a copy of the mixed class on other vertices is caught
    twin = [(u + 40, v + 40) for u, v in mixed]
    g = Graph.from_edges(60, mixed + path + twin)
    col = Coloring(host=g, classes=ranked(mixed, path, twin), labels=("a", "b", "c"))
    assert verify_distinct(col) == (False, (0, 2))


def test_serialization_round_trip(tmp_path):
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    col = Coloring(
        host=g,
        classes=ranked([(0, 1), (1, 2)], [(3, 4)], [(4, 5)]),
        labels=("tree:x", "a", "b"),
    )
    file = tmp_path / "col.txt"
    write_coloring(col, str(file))
    back = read_coloring(str(file))
    assert class_edges(back) == class_edges(col)
    assert back.labels == col.labels
    assert back.host.n == col.host.n
    assert back.host.edges == col.host.edges


def test_read_rejects_bad_header(tmp_path):
    file = tmp_path / "bad.txt"
    file.write_text("colouring 9\n0 0\n")
    with pytest.raises(ValueError, match="header"):
        read_coloring(str(file))


@pytest.mark.parametrize(
    "body, message",
    [
        # the class promises two edges, the file ends after one
        ("label a\n2\n0 1\n", "malformed edge line: ''"),
        ("label a\n1\n1 0\n", "not in u < v order: '1 0'"),
        ("label a\n1\n0 1 2\n", "malformed edge line: '0 1 2'"),
    ],
)
def test_read_coloring_rejects_bad_edge_lines(tmp_path, body, message):
    file = tmp_path / "bad.txt"
    file.write_text("coloring 1\n3 1\n" + body)
    with pytest.raises(ValueError, match=message):
        read_coloring(str(file))


# --- regime builders -------------------------------------------------------


def test_dense_builder():
    supply = maxdeg3_trees(5) + maxdeg3_trees(6)
    lazy = LazyRandomGraph(60, 0.8, 23)
    res = greedy_embed(lazy, supply, 10**5, rngmod.stream(23, 0))
    assert res.status == "supply_exhausted"
    host = materialize(lazy)
    col = build_dense_coloring(res, host)
    assert col.num_classes == len(supply) + 1
    assert all(l.startswith("tree:") for l in col.labels[:-1])
    assert col.labels[-1] == "leftover"
    assert verify_distinct(col) == (True, None)


def test_dense_builder_rejects_repeated_shapes():
    lazy = LazyRandomGraph(30, 1.0, 29)
    res = greedy_embed(
        lazy, [path_graph(5), path_graph(5)], 10**4, rngmod.stream(29, 0)
    )
    host = materialize(lazy)
    with pytest.raises(ValueError, match="repeat"):
        build_dense_coloring(res, host)


def test_dense_builder_checks_host_edges():
    lazy = LazyRandomGraph(30, 1.0, 29)
    res = greedy_embed(lazy, [path_graph(5)], 10**4, rngmod.stream(29, 0))
    with pytest.raises(ValueError, match="missing"):
        build_dense_coloring(res, Graph.from_edges(30, []))


def test_sparse_builder_empty_graph():
    col = build_sparse_coloring(Graph.from_edges(5, []), 3)
    assert col.num_classes == 0


def test_sparse_builder_no_paths():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    col = build_sparse_coloring(g, 3, target_len=5)
    assert col.labels == ("leftover",)
    assert class_edges(col) == (((0, 1), (2, 3), (4, 5)),)


def test_sparse_builder_on_cycle():
    g = cycle_graph(60)
    col = build_sparse_coloring(g, 3, target_len=10, max_paths=10)
    assert col.labels[:3] == ("forest:3", "forest:2,1", "forest:1,1,1")
    assert col.labels[-1] == "leftover"
    assert col.num_classes == 4
    assert verify_distinct(col) == (True, None)
    for cls in class_edges(col)[:3]:
        assert len(cls) == 3
        for u, v in cls:
            assert g.has_edge(u, v)


def test_sparse_builder_oversized_k():
    # no forest with 30 edges fits on an 11-vertex path, so everything
    # lands in the leftover class
    g = cycle_graph(24)
    col = build_sparse_coloring(g, 30, target_len=10, max_paths=5)
    assert col.labels == ("leftover",)


# --- very sparse builder ---------------------------------------------------


def hand_box_graph(extra_triangle: bool = False) -> Graph:
    # three isolated P2s and two isolated P3s
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (7, 8), (9, 10), (10, 11)]
    n = 12
    if extra_triangle:
        edges += [(12, 13), (13, 14), (12, 14)]
        n = 15
    return Graph.from_edges(n, edges)


def test_verysparse_hand_box():
    g = hand_box_graph()
    xi, observed, _ = verysparse_box(g, census(g), 4, xi=(1, 1))
    assert xi == [1, 1]
    assert observed == [3, 2]
    col = build_verysparse_coloring(g, census(g), 4, xi=(1, 1))
    # all three census vectors realised; the spare P2 is isomorphic to the
    # (1,0) class, so it merges into the largest class instead
    assert col.labels == ("vector:0,1", "vector:1,0", "vector:1,1+leftover")
    assert class_edges(col) == (
        ((6, 7), (7, 8)),
        ((0, 1),),
        ((2, 3), (4, 5), (9, 10), (10, 11)),
    )
    assert verify_distinct(col) == (True, None)


def test_verysparse_leftover_kept_separate():
    g = hand_box_graph(extra_triangle=True)
    col = build_verysparse_coloring(g, census(g), 4, xi=(1, 1))
    assert col.labels == (
        "vector:0,1",
        "vector:1,0",
        "vector:1,1",
        "leftover",
    )
    assert ((12, 13), (12, 14), (13, 14)) == tuple(
        e for e in class_edges(col)[-1] if e[0] >= 12
    )
    assert verify_distinct(col) == (True, None)


def test_verysparse_clamp_respects_supply():
    g = hand_box_graph()
    xi, observed, _ = verysparse_box(g, census(g), 4, xi=(50, 50))
    box = 1
    for x in xi:
        box *= x + 1
    for i, x in enumerate(xi):
        # total components of order i+2 consumed over the whole box
        assert x * (x + 1) // 2 * (box // (x + 1)) <= observed[i]
    col = build_verysparse_coloring(g, census(g), 4, xi=(50, 50))
    assert verify_distinct(col) == (True, None)


def test_verysparse_estimated_box():
    # large supply of small paths so the density estimate turns positive
    edges = []
    for i in range(200):
        edges.append((2 * i, 2 * i + 1))
    base = 400
    for i in range(60):
        edges += [(base + 3 * i, base + 3 * i + 1), (base + 3 * i + 1, base + 3 * i + 2)]
    g = Graph.from_edges(base + 180, edges)
    col = build_verysparse_coloring(g, census(g), 4, p=1e-4)
    assert col.num_classes > 1
    assert verify_distinct(col) == (True, None)


def test_verysparse_errors():
    # theta at p=0.5 exceeds the single observed path, so the box is empty
    g = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(RuntimeError, match="census too small"):
        build_verysparse_coloring(g, census(g), 4, p=0.5)
    g = hand_box_graph()
    with pytest.raises(RuntimeError, match="census too small"):
        build_verysparse_coloring(g, census(g), 4, xi=(0, 0))
    with pytest.raises(ValueError, match="entries"):
        verysparse_box(g, census(g), 4, xi=(1, 1, 1))
    with pytest.raises(ValueError, match="entries"):
        verysparse_box(g, census(g), 4, xi=(-1, 1))
    g = Graph.from_edges(4, [])
    with pytest.raises(ValueError, match="empty"):
        verysparse_box(g, census(g), 4)


# --- exact tau -------------------------------------------------------------


def test_tau_matching_values():
    assert [tau_matching(m) for m in range(11)] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
    with pytest.raises(ValueError):
        tau_matching(-1)


def matching(m: int) -> Graph:
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def test_tau_exact_known_values():
    assert [tau_exact(matching(m)) for m in range(1, 7)] == [1, 1, 2, 2, 2, 3]
    assert tau_exact(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])) == 2
    assert tau_exact(Graph.from_edges(3, [(0, 1), (1, 2)])) == 1
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    assert tau_exact(k4) == 3
    assert tau_exact(path_graph(5)) == 2
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert tau_exact(two_triangles) == 3


def test_tau_exact_edge_cap():
    with pytest.raises(ValueError):
        tau_exact(cycle_graph(9))
    # C9 splits into sizes 1+2+2+4 with the two 2-edge parts non-isomorphic
    # (adjacent pair vs disjoint pair); five parts would repeat a small shape
    assert tau_exact(cycle_graph(9), max_edges=9) == 4


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_tau_exact_bounds_property(seed):
    g = gen_gnp(5, 0.5, seed)
    m = g.edge_count
    if m == 0 or m > 8:
        return
    tau = tau_exact(g)
    # splitting into parts of pairwise distinct sizes always works
    assert tau_matching(m) <= tau <= m
