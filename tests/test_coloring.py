import itertools
import math
import time
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from conftest import (
    bfs_class_signature,
    bfs_components,
    brute_isomorphic,
    coded,
    prufer_tree,
    relabel,
    unpruned_canonical_bits,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from taulab import bounds as bnd
from taulab import cli, coloring
from taulab import rng as rngmod
from taulab.catalog import CanonicalCode, free_trees
from taulab.coloring import (
    CanonicalizationError,
    Coloring,
    VerifyError,
    build_dense_coloring,
    build_sparse_coloring,
    build_verysparse_coloring,
    canonical_form,
    class_signature,
    class_signatures,
    read_coloring,
    tau_exact,
    tau_matching,
    verify_distinct,
    verysparse_box,
    write_coloring,
)
from taulab.embed import (
    EmbeddedTree,
    EmbedResult,
    EmbedTrace,
    LazyRandomGraph,
    greedy_embed,
    materialize,
)
from taulab.graph import (
    ComponentCensus,
    Graph,
    census,
    edge_tuples,
    gen_gnp,
    pair_ranks,
)
from taulab.pathpack import ForestPlacement, PackResult


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
    # a tree component gets its AHU string
    single = Graph.from_edges(2, [(0, 1)])
    assert canonical_form(single) == b"G{[()()]}"
    # an isolated vertex shows up as its own K1 component
    padded = Graph.from_edges(3, [(0, 1)])
    assert canonical_form(padded) == b"G{K1|[()()]}"
    assert canonical_form(Graph.from_edges(0, [])) == b"G{}"
    assert canonical_form(Graph.from_edges(3, [])) == b"G{K1|K1|K1}"
    assert class_signature([]) == ()


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


@given(st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_canonical_form_on_forests_beyond_the_cap(seed):
    # trees get their AHU string at any size, so the cap of 10 binds none
    rng = rngmod.stream(seed, 0)
    sizes = [int(rng.integers(11, 21)), *rng.integers(2, 6, int(rng.integers(0, 4))).tolist()]
    isolated = int(rng.integers(0, 3))

    def prufer(size: int) -> list[int]:
        return rng.integers(0, size, size - 2).tolist()

    def forest(seqs) -> Graph:
        edges, base = [], 0
        for seq in seqs:
            edges += [(base + u, base + v) for u, v in prufer_tree(seq).edges]
            base += len(seq) + 2
        return Graph.from_edges(base + isolated, edges)

    seqs = [prufer(size) for size in sizes]
    a = forest(seqs)
    assert canonical_form(a) == canonical_form(relabel(a, rng.permutation(a.n).tolist()))
    # b keeps a's large tree half the time, so both outcomes occur
    big = seqs[0] if rng.random() < 0.5 else prufer(sizes[0])
    b = forest([big, *(prufer(size) for size in sizes[1:])])
    x, y = nx.empty_graph(a.n), nx.empty_graph(b.n)
    x.add_edges_from(a.edges)
    y.add_edges_from(b.edges)
    same = canonical_form(a) == canonical_form(b)
    event(f"isomorphic: {same}")
    assert same == nx.is_isomorphic(x, y)


def complete_multipartite(*parts: int) -> Graph:
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = itertools.combinations(range(len(side)), 2)
    return Graph.from_edges(len(side), [(u, v) for u, v in pairs if side[u] != side[v]])


def test_canonical_twin_heavy_shapes_pinned():
    # K_{1,9} has 9! leaves and exhausted the leaf budget before the search
    # branched once per twin class (canonical_form codes it as a tree)
    assert coloring._canonical_bits(10, complete_multipartite(1, 9).adj) == 0x1fe01
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        cert = canonical_form(complete_multipartite(2, 8))
        seconds.append(time.perf_counter() - t0)
        assert cert == b"G{B10:1a442080ff01}"  # the unpruned search's bytes
    assert min(seconds) < 0.1


def test_canonical_leaf_budget_still_fires(monkeypatch):
    petersen = Graph.from_edges(10, nx.edges(nx.petersen_graph()))
    cert = canonical_form(petersen)  # twin-free, so it is searched leaf by leaf
    monkeypatch.setattr(coloring, "_LEAF_LIMIT", 2)
    with pytest.raises(CanonicalizationError, match="too symmetric"):
        canonical_form(petersen)
    # a twin-heavy graph has a single leaf left, inside any budget
    assert canonical_form(complete_multipartite(2, 8)) == b"G{B10:1a442080ff01}"
    monkeypatch.undo()
    assert canonical_form(petersen) == cert


@st.composite
def small_graphs(draw, max_n: int = 10):
    """(n, edges) on at most max_n vertices, shuffled: G(n, p); a blow-up of
    a graph on at most 5 vertices, each vertex into a class of true twins (a
    clique) or false twins (an independent set); a complete multipartite
    graph; a star; a random regular graph on 6 or more vertices; a random or
    complete bipartite graph; or the disjoint union of two G(n, p)."""
    kinds = ["gnp", "blow-up", "multipartite", "star", "regular", "bipartite", "disconnected"]
    kind = draw(st.sampled_from(kinds))
    rng = rngmod.stream(draw(st.integers(0, 2**31)), 0)

    def gnp(nv: int) -> list[tuple[int, int]]:
        p = rng.random()
        return [e for e in itertools.combinations(range(nv), 2) if rng.random() < p]

    if kind == "gnp":
        n = draw(st.integers(1, max_n))
        edges = gnp(n)
    elif kind == "disconnected":
        a = draw(st.integers(1, max_n - 1))
        n = draw(st.integers(a + 1, max_n))
        edges = gnp(a) + [(u + a, v + a) for u, v in gnp(n - a)]
    elif kind == "regular":  # of degree 3 to n - 3, which refinement cannot split
        n = draw(st.integers(6, max_n))
        d = draw(st.integers(3, n - 3))
        d += d * n % 2  # n d must be even
        seed = int(rng.integers(2**31))
        edges = list(nx.random_regular_graph(d, n, seed=seed).edges)
    elif kind == "star":
        n = draw(st.integers(2, max_n))
        edges = [(0, v) for v in range(1, n)]
    else:
        classes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
        owner = [c for c, size in enumerate(classes) for _ in range(size)][:max_n]
        n = len(owner)
        base = set(gnp(len(classes)))
        clique = [rng.random() < 0.5 for _ in classes]
        p = 1.0 if rng.random() < 0.3 else rng.random()

        def joined(a: int, b: int) -> bool:  # are vertices of classes a, b adjacent
            if kind == "blow-up":
                return clique[a] if a == b else (min(a, b), max(a, b)) in base
            if kind == "multipartite":
                return a != b
            # bipartite: the even classes form one side, the odd ones the other
            return a % 2 != b % 2 and rng.random() < p

        pairs = itertools.combinations(range(n), 2)
        edges = [(u, v) for u, v in pairs if joined(owner[u], owner[v])]
    perm = rng.permutation(n).tolist()
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_canonical_bits_match_the_unpruned_search(graph):
    n, edges = graph
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    got = coloring._canonical_bits(n, adj)
    try:
        # a small budget keeps the oracle quick; it refuses K_{3,3,3} and the like
        want = unpruned_canonical_bits(n, adj, leaf_limit=720)
    except CanonicalizationError:
        event("oracle refused")
        return
    assert got == want


@given(small_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_canonical_form_agrees_with_networkx(graph, data):
    n, edges = graph
    g = Graph.from_edges(n, edges)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(relabel(g, perm)) == canonical_form(g)
    present = set(edges)
    free = [e for e in itertools.combinations(range(n), 2) if e not in present]
    if not edges or not free:
        return
    moved = list(edges)
    moved[data.draw(st.integers(0, len(edges) - 1))] = data.draw(st.sampled_from(free))
    same = canonical_form(Graph.from_edges(n, moved)) == canonical_form(g)
    x, y = nx.empty_graph(n), nx.empty_graph(n)
    x.add_edges_from(edges)
    y.add_edges_from(moved)
    assert same == nx.is_isomorphic(x, y)


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


# shapes for the batched signature test; "big cycle" has more vertices than
# the default cap, so its class cannot be signed
_PART_KINDS = ["path", "cycle", "star", "k4", "tree", "gnp", "big cycle"]


def _part_edges(kind: str, size: int, rng) -> list[tuple[int, int]]:
    """A connected-ish part on vertices 0..: size bounds its order."""
    if kind == "path":
        return [(i, i + 1) for i in range(size - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % max(3, size)) for i in range(max(3, size))]
    if kind == "star":
        return [(0, i) for i in range(1, min(size, 7))]
    if kind == "k4":
        return list(itertools.combinations(range(4), 2))
    if kind == "tree":  # up to 25 vertices, above the cap
        return [(int(rng.integers(0, i)), i) for i in range(1, size)]
    if kind == "gnp":
        pairs = list(itertools.combinations(range(min(size, 7)), 2))
        return [e for e in pairs if rng.random() < 0.5]
    return [(i, (i + 1) % (11 + size % 4)) for i in range(11 + size % 4)]


_POOL = 80  # vertex ids shared by every class of a batch


def _batch_class(parts, seed: int) -> list[tuple[int, int]]:
    """One class: its parts laid on disjoint vertices of a seeded
    permutation of the shared pool."""
    rng = rngmod.stream(seed, 0)
    perm = rng.permutation(_POOL).tolist()
    edges, base = set(), 0
    for kind, size in parts:
        part = _part_edges(kind, size, rng)
        for u, v in part:
            a, b = perm[base + u], perm[base + v]
            edges.add((min(a, b), max(a, b)))
        base += 1 + max((max(e) for e in part), default=0)
    return sorted(edges)


@given(
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.sampled_from(_PART_KINDS), st.integers(2, 25)),
                min_size=1,
                max_size=3,
            ),
            st.integers(0, 2**31),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_class_signatures_match_class_signature(batch):
    classes = [_batch_class(parts, seed) for parts, seed in batch]
    got = class_signatures(
        [np.sort(pair_ranks(cls)) for cls in classes], _POOL
    )
    assert len(got) == len(classes)
    for cls, sig in zip(classes, got):
        try:
            want = bfs_class_signature(cls)
        except CanonicalizationError as exc:
            # only this class fails, with the oracle's message
            assert isinstance(sig, CanonicalizationError)
            assert str(sig) == str(exc)
        else:
            assert sig == want


def test_class_signatures_code_paths_by_order():
    # a path on 300 vertices takes the AHU string of its order
    long_path = [(i, i + 1) for i in range(299)]
    (sig,) = class_signatures([pair_ranks(long_path)], 300)
    assert sig == bfs_class_signature(long_path)
    # classes on the same host vertices stay apart
    a = [(0, 1), (1, 2)]
    b = [(0, 3), (1, 2), (2, 3)]
    sa, sb = class_signatures([np.sort(pair_ranks(a)), np.sort(pair_ranks(b))], 4)
    assert sa == bfs_class_signature(a) and sb == bfs_class_signature(b)


def _dense_spec(n: int, seed: int) -> cli.TrialSpec:
    return cli.TrialSpec(0, seed, "dense", n, 40 * math.log(n) / n, None, 0.01, 0.05)


@pytest.mark.parametrize("regime", ["sparse", "dense"])
def test_pipeline_signatures_match_class_signature(regime):
    if regime == "sparse":
        n = 2000
        g = gen_gnp(n, 30 / n, 7)
        col = build_sparse_coloring(g, bnd.sparse_k(n), p=30 / n)
    else:
        n = 400
        col, _, _ = cli._REGIMES["dense"](_dense_spec(n, 7))
    assert col.num_classes > 20
    for cls, sig in zip(col.classes, class_signatures(col.classes, n)):
        try:
            want = bfs_class_signature(edge_tuples(cls))
        except CanonicalizationError as exc:
            assert str(sig) == str(exc)  # the leftover, one big cyclic part
        else:
            assert sig == want


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


def _uncheckable_groups(order: str) -> Coloring:
    """Three 12-edge classes: two isomorphic paths and a 12-cycle, which the
    default cap cannot code; order places the cycle first or last."""
    p1 = [(i, i + 1) for i in range(12)]
    p2 = [(20 + i, 21 + i) for i in range(12)]
    ring = [tuple(sorted((40 + i, 40 + (i + 1) % 12))) for i in range(12)]
    classes = (p1, p2, ring) if order == "pair first" else (ring, p1, p2)
    g = Graph.from_edges(60, p1 + p2 + ring)
    return Coloring(host=g, classes=ranked(*classes), labels=("a", "b", "c"))


def test_verify_returns_a_pair_found_before_an_uncheckable_class():
    assert verify_distinct(_uncheckable_groups("pair first")) == (False, (0, 1))
    # across groups: the pair has fewer edges, the uncheckable class more
    pair = [(0, 1)], [(2, 3)]
    ring = [tuple(sorted((10 + i, 10 + (i + 1) % 12))) for i in range(12)]
    twin = [(30 + i, 31 + i) for i in range(12)]
    g = Graph.from_edges(50, [e for cls in (*pair, ring, twin) for e in cls])
    col = Coloring(host=g, classes=ranked(*pair, ring, twin), labels=tuple("abcd"))
    assert verify_distinct(col) == (False, (0, 1))


def test_verify_raises_at_the_first_uncheckable_class():
    with pytest.raises(VerifyError) as exc:
        verify_distinct(_uncheckable_groups("cycle first"))
    assert str(exc.value) == (
        "class 0 (12 edges) cannot be verified: "
        "component has 12 vertices, canonical form capped at 10"
    )


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


@pytest.mark.parametrize(
    "text, message",
    [
        # cut after the label line of the first class
        ("coloring 1\n3 1\nlabel a\n", "line 4: edge count is not an integer: ''"),
        ("coloring 1\nthree 1\n", "line 2: vertex count is not an integer: 'three'"),
        (
            "coloring 1\n3 2\nlabel a\n1\n0 1\nlabel b\n-1\n",
            "line 7: edge count is negative: '-1'",
        ),
    ],
)
def test_read_coloring_rejects_bad_counts(tmp_path, text, message):
    file = tmp_path / "bad.txt"
    file.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_coloring(str(file))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "label a\n1\n0 99999999999999999999\n",
            "edge (0, 99999999999999999999) out of range for n=3",
        ),
        # each class is well formed; the repeat is across the two
        ("label a\n2\n0 1\n1 2\nlabel b\n1\n0 1\n", "duplicate edge (0, 1)"),
    ],
)
def test_read_coloring_checks_every_edge_once(tmp_path, body, message):
    file = tmp_path / "bad.txt"
    classes = body.count("label ")
    file.write_text(f"coloring 1\n3 {classes}\n" + body)
    with pytest.raises(ValueError) as exc:
        read_coloring(str(file))
    assert str(exc.value) == message


# --- regime builders -------------------------------------------------------


def test_dense_builder():
    supply = maxdeg3_trees(5) + maxdeg3_trees(6)
    lazy = LazyRandomGraph(60, 0.8, 23)
    res = greedy_embed(lazy, coded(supply), 10**5, rngmod.stream(23, 0))
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
        lazy, coded([path_graph(5), path_graph(5)]), 10**4, rngmod.stream(29, 0)
    )
    host = materialize(lazy)
    with pytest.raises(ValueError, match="repeat"):
        build_dense_coloring(res, host)


def test_dense_builder_checks_host_edges():
    lazy = LazyRandomGraph(30, 1.0, 29)
    res = greedy_embed(lazy, coded([path_graph(5)]), 10**4, rngmod.stream(29, 0))
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


# --- leftover checks -------------------------------------------------------


def embedded_classes(host, edge_sets, monkeypatch):
    trees = [
        EmbeddedTree(code=CanonicalCode(b"%d" % i), mapping={}, edges=tuple(es))
        for i, es in enumerate(edge_sets)
    ]
    trace = EmbedTrace(steps=0, rev=[], rev_active=[], rev_inactive=[], activations=[])
    result = EmbedResult(
        n=host.n, p=0.5, status="supply_exhausted", embedded=trees, trace=trace
    )
    return build_dense_coloring(result, host)


def placed_classes(host, edge_sets, monkeypatch):
    placements = [
        ForestPlacement(i, 0, 0, (len(es),), tuple(es))
        for i, es in enumerate(edge_sets)
    ]
    monkeypatch.setattr(
        coloring,
        "pack_forests",
        lambda paths, forests: PackResult(placements, None, len(placements)),
    )
    return build_sparse_coloring(host, 3, target_len=4, max_paths=2)


def census_classes(host, edge_sets, monkeypatch):
    # single-edge path components, one rank row each; the box (2, 0) takes
    # the first for one class and the next two for another
    rows = np.array([pair_ranks(es) for es in edge_sets])
    tally = ComponentCensus(counts={}, paths={2: rows})
    return build_verysparse_coloring(host, tally, 4, xi=(2, 0))


@pytest.mark.parametrize(
    "builder, what",
    [
        (embedded_classes, "embedded"),
        (placed_classes, "placed"),
        (census_classes, "census"),
    ],
)
@pytest.mark.parametrize(
    "edge_sets, message",
    [
        ([[(2, 3)], [(4, 5)], [(2, 3)]], "{} edge (2, 3) used twice"),
        ([[(2, 3)], [(4, 5)], [(3, 7)]], "{} edge (3, 7) missing from host graph"),
    ],
)
def test_builders_name_a_repeated_or_stray_edge(
    builder, what, edge_sets, message, monkeypatch
):
    with pytest.raises(ValueError) as exc:
        builder(cycle_graph(12), edge_sets, monkeypatch)
    assert str(exc.value) == message.format(what)


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


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_verysparse_classes_are_their_census_vectors(seed):
    # by an independent component finder, class vector:c2,c3 is c2 paths on
    # 2 vertices and c3 on 3, and no path goes to two classes
    n = 20_000
    p = float(n) ** -1.3
    g = gen_gnp(n, p, seed)
    col = build_verysparse_coloring(g, census(g), 4, p=p)
    used = []
    for label, cls in zip(col.labels, col.classes):
        if label == "leftover":
            continue
        c2, c3 = map(int, label.removeprefix("vector:").split(","))
        comps = [c for c in bfs_components(Graph.from_ranks(n, cls)) if c.edges]
        assert all(c.is_tree() for c in comps)
        assert Counter(c.order for c in comps) == Counter({2: c2, 3: c3})
        used.extend(c.edges for c in comps)
    assert len(used) == len(set(used)) > 0


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
    with pytest.raises(ValueError, match="max_edges <= 12"):
        tau_exact(path_graph(3), max_edges=13)


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


def oracle_tau(g: Graph) -> int:
    """Exact tau by every set partition of the edges, unpruned, each part
    signed by `bfs_class_signature`."""
    edges = g.edges
    m = len(edges)
    memo: dict[int, tuple] = {}

    def sig(mask: int) -> tuple:
        if mask not in memo:
            memo[mask] = bfs_class_signature(
                [edges[i] for i in range(m) if mask >> i & 1], max_vertices=16
            )
        return memo[mask]

    best = 0

    def rec(i: int, parts: list[int]) -> None:
        nonlocal best
        if i == m:
            if len({sig(mask) for mask in parts}) == len(parts):
                best = max(best, len(parts))
            return
        for j in range(len(parts)):
            parts[j] |= 1 << i
            rec(i + 1, parts)
            parts[j] &= ~(1 << i)
        rec(i + 1, parts + [1 << i])

    rec(0, [])
    return best


@pytest.mark.parametrize("seed", range(6))
def test_tau_exact_matches_unpruned_search(seed):
    rng = rngmod.stream(seed, 3)
    nv = int(rng.integers(5, 10))
    pairs = list(itertools.combinations(range(nv), 2))
    pick = rng.choice(len(pairs), size=8, replace=False)
    g = Graph.from_edges(nv, [pairs[i] for i in pick])
    assert tau_exact(g) == oracle_tau(g)
