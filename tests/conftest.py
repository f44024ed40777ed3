"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: independent reference implementations
the fast code is checked against, not production paths.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from taulab import rng as rngmod
from taulab.catalog import (
    CanonicalCode,
    ahu_code,
    rooted_to_graph,
    sample_rooted_binary,
)
from taulab.coloring import _LEAF_LIMIT, CanonicalizationError, _refine, connected_code
from taulab.embed import (
    EmbeddedTree,
    EmbedResult,
    EmbedTrace,
    LazyRandomGraph,
    _connected_order,
)
from taulab.graph import Component, Graph, _component_code, pair_rank, pair_ranks


@dataclass(frozen=True)
class TupleGraph:
    """The earlier graph store: a frozenset of (u, v) tuples, u < v, plus
    sorted neighbour tuples, validated edge by edge."""

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "TupleGraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            neighbours[e[0]].append(e[1])
            neighbours[e[1]].append(e[0])
        adj = tuple(tuple(sorted(ns)) for ns in neighbours)
        return TupleGraph(n=n, edges=frozenset(seen), adj=adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self.edges


def first_distinct_draws(gen, npairs: int, m: int) -> list[int]:
    """The first m distinct values, sorted, of uniform draws below npairs,
    taken one draw at a time from the same batches the sampler draws."""
    chosen: set[int] = set()
    picked: list[int] = []
    while len(picked) < m:
        need = m - len(picked)
        batch = gen.integers(0, npairs, size=need + max(16, need // 8))
        for r in batch.tolist():
            if r not in chosen:
                chosen.add(r)
                picked.append(r)
                if len(picked) == m:
                    break
    return sorted(picked)


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Backtracking isomorphism test, exact for small graphs."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    deg_a = sorted(len(x) for x in a.adj)
    deg_b = sorted(len(x) for x in b.adj)
    if deg_a != deg_b:
        return False
    n = a.n
    # most-constrained-first: highest degree first
    order = sorted(range(n), key=lambda v: -len(a.adj[v]))
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or len(a.adj[v]) != len(b.adj[w]):
                continue
            ok = True
            for x in a.adj[v]:
                mx = mapping[x]
                if mx >= 0 and not b.has_edge(*sorted((w, mx))):
                    ok = False
                    break
            if not ok:
                continue
            # also reject if w is adjacent to the image of a non-neighbour
            for x in range(n):
                mx = mapping[x]
                if mx >= 0 and not a.has_edge(*sorted((v, x))) and b.has_edge(
                    *sorted((w, mx))
                ):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Copy of g with vertex v renamed perm[v]."""
    return Graph.from_edges(
        g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
    )


def prufer_tree(seq: Sequence[int]) -> Graph:
    """Labelled tree on len(seq)+2 vertices from its Pruefer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append(tuple(sorted((leaf, v))))
        degree[v] -= 1
        if degree[v] == 1:
            # insert keeping the leaf list sorted
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    edges.append(tuple(sorted(leaves[:2])))
    return Graph.from_edges(n, edges)


def all_graphs(n: int):
    """Every labelled simple graph on n vertices (use only for tiny n)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def bfs_components(g: Graph) -> list[Component]:
    """Connected components by graph search, in order of their smallest
    vertex, with sorted vertices and lexicographically sorted edges."""
    seen = bytearray(g.n)
    out: list[Component] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = 1
        stack = [s]
        verts = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    verts.append(w)
                    stack.append(w)
        verts.sort()
        vset = set(verts)
        edges = tuple(
            (u, v) for u in verts for v in g.adj[u] if u < v and v in vset
        )
        out.append(Component(vertices=tuple(verts), edges=edges))
    return out


def bfs_class_signature(edges: Sequence[tuple[int, int]], max_vertices: int = 10) -> tuple:
    """Signature of an edge set with its components found by `bfs_components`:
    the sorted `connected_code` of each component with edges."""
    n = 1 + max((v for _, v in edges), default=0)
    return tuple(
        sorted(
            connected_code(comp.local_adj(), max_vertices)
            for comp in bfs_components(Graph.from_edges(n, edges))
            if comp.edges
        )
    )


def component_census(g: Graph) -> tuple[dict, dict]:
    """(counts, paths) with every component found by `bfs_components` and
    coded on its own; paths maps each order k >= 2 to a (count, k - 1)
    array whose rows are the `pair_ranks` of its path components' edges, in
    smallest-vertex order."""
    counts: dict = {}
    paths: dict = {}
    for comp in bfs_components(g):
        code = _component_code(comp)
        counts[code] = counts.get(code, 0) + 1
        degrees = Counter(v for e in comp.edges for v in e)
        if comp.is_tree() and comp.order >= 2 and max(degrees.values()) <= 2:
            paths.setdefault(comp.order, []).append(pair_ranks(comp.edges))
    return counts, {k: np.array(rows) for k, rows in sorted(paths.items())}


def sampled_distinct_trees(t: int, want: int, rng) -> list[Graph]:
    """want pairwise non-isomorphic max-degree-3 trees on t vertices, drawn
    one uniform rooted binary shape at a time and kept when their code is
    new, within a budget of max(10000, 60 * want) draws."""
    seen: set = set()
    out: list[Graph] = []
    for _ in range(max(10_000, 60 * want)):
        if len(out) == want:
            break
        g = rooted_to_graph(sample_rooted_binary(t, rng))
        code = ahu_code(g)
        if code not in seen:
            seen.add(code)
            out.append(g)
    return out


def coded(trees: Iterable[Graph]) -> list[tuple[Graph, CanonicalCode]]:
    """The trees as a supply for `greedy_embed`: each with its `ahu_code`."""
    return [(g, ahu_code(g)) for g in trees]


def scalar_reveal(g: LazyRandomGraph, u: int, v: int) -> bool:
    """The earlier `LazyRandomGraph.reveal`: both partner sets through
    setdefault, then the scalar hash of the pair's rank."""
    if u == v:
        raise ValueError("cannot reveal a self-pair")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"pair ({u}, {v}) out of range")
    a, b = (u, v) if u < v else (v, u)
    if b in g._partners.get(a, ()):
        raise ValueError(f"pair ({a}, {b}) already revealed")
    g._partners.setdefault(a, set()).add(b)
    g._partners.setdefault(b, set()).add(a)
    return rngmod.pair_uniform(g._key, pair_rank(a, b)) < g.p


def scalar_greedy_embed(
    g: LazyRandomGraph,
    trees: Iterable[tuple[Graph, CanonicalCode]],
    step_budget: int,
    rng: np.random.Generator,
    record_log: bool = False,
) -> EmbedResult:
    """The earlier `greedy_embed`: one scalar ``rng.integers`` call per
    candidate and a rejection-then-scan pick at every step.  It codes each
    embedded tree itself, so a supplied code that is wrong shows as a
    difference in the result."""
    if step_budget < 0:
        raise ValueError("step_budget must be nonnegative")
    n = g.n
    trace = EmbedTrace(
        steps=0,
        rev=[0] * n,
        rev_active=[0] * n,
        rev_inactive=[0] * n,
        activations=[0] * n,
        log=[] if record_log else None,
    )
    embedded: list[EmbeddedTree] = []
    status = "supply_exhausted"

    def pick_candidate(active: int, image: set[int]) -> Optional[int]:
        partners = g._partners.get(active, set())
        for _ in range(40):
            w = int(rng.integers(0, n))
            if w != active and w not in partners and w not in image:
                return w
        allowed = [
            w
            for w in range(n)
            if w != active and w not in partners and w not in image
        ]
        if not allowed:
            return None
        return allowed[int(rng.integers(0, len(allowed)))]

    halt = False
    for tree, _ in trees:
        if halt:
            break
        if tree.n < 2:
            raise ValueError("trees must have at least 2 vertices")
        if max(len(a) for a in tree.adj) > 3:
            raise ValueError("trees must have maximum degree 3")
        order, parent = _connected_order(tree)
        start_step = trace.steps + 1
        root_image = int(rng.integers(0, n))
        image = {order[0]: root_image}
        image_set = {root_image}
        trace.activations[root_image] += 1
        tree_edges: list[tuple[int, int]] = []
        complete = True
        for v in order[1:]:
            active = image[parent[v]]
            found = False
            while not found:
                if trace.steps >= step_budget:
                    status = "budget_exhausted"
                    complete = False
                    halt = True
                    break
                w = pick_candidate(active, image_set)
                if w is None:
                    status = "failed"
                    trace.failed = True
                    trace.failure_step = trace.steps
                    complete = False
                    halt = True
                    break
                hit = scalar_reveal(g, active, w)
                trace.steps += 1
                trace.rev[active] += 1
                trace.rev[w] += 1
                trace.rev_active[active] += 1
                trace.rev_inactive[w] += 1
                if trace.log is not None:
                    trace.log.append((trace.steps, active, w, hit))
                if hit:
                    image[v] = w
                    image_set.add(w)
                    trace.activations[w] += 1
                    tree_edges.append((active, w) if active < w else (w, active))
                    found = True
            if not complete:
                break
        if complete:
            trace.spans.append((start_step, trace.steps))
            embedded.append(
                EmbeddedTree(
                    code=ahu_code(tree),
                    mapping=dict(image),
                    edges=tuple(tree_edges),
                )
            )
    return EmbedResult(n=n, p=g.p, status=status, embedded=embedded, trace=trace)


def blockwise_materialize(g: LazyRandomGraph, block: int = 1 << 22) -> Graph:
    """The earlier `materialize`: every pair rank hashed in blocks of
    ``block`` ranks."""
    npairs = g.n * (g.n - 1) // 2
    blocks = [np.empty(0, dtype=np.int64)]
    for start in range(0, npairs, block):
        stop = min(start + block, npairs)
        ranks = np.arange(start, stop, dtype=np.int64)
        blocks.append(ranks[rngmod.pair_uniform_array(g._key, ranks) < g.p])
    return Graph.from_ranks(g.n, np.concatenate(blocks))


def _scalar_sweep(
    adj: Sequence[Sequence[int]],
    n: int,
    used: set[tuple[int, int]],
    target_len: int,
) -> Optional[list[int]]:
    """The earlier DFS sweep: scans the full neighbour tuples and skips the
    edges already harvested through the used set."""
    in_u = bytearray(b"\x01") * n
    ptr = [0] * n
    path: list[int] = []
    start_scan = 0
    while True:
        if not path:
            while start_scan < n and not in_u[start_scan]:
                start_scan += 1
            if start_scan == n:
                return None
            v = start_scan
            in_u[v] = 0
            path.append(v)
        v = path[-1]
        advanced = False
        neighbours = adj[v]
        i = ptr[v]
        while i < len(neighbours):
            w = neighbours[i]
            i += 1
            if not in_u[w]:
                continue
            e = (v, w) if v < w else (w, v)
            if e in used:
                continue
            ptr[v] = i
            in_u[w] = 0
            path.append(w)
            advanced = True
            break
        else:
            ptr[v] = i
        if advanced:
            if len(path) - 1 == target_len:
                return path
        else:
            path.pop()


def scalar_dfs_path_pack(
    g: Graph, target_len: int, max_paths: int
) -> tuple[list[tuple[int, ...]], set[tuple[int, int]]]:
    """The earlier `dfs_path_pack` on `Graph.adj`: (paths, used_edges)."""
    used: set[tuple[int, int]] = set()
    paths: list[tuple[int, ...]] = []
    while len(paths) < max_paths:
        found = _scalar_sweep(g.adj, g.n, used, target_len)
        if found is None:
            break
        for a, b in zip(found, found[1:]):
            used.add((a, b) if a < b else (b, a))
        paths.append(tuple(found))
    return paths, used


def unpruned_canonical_bits(
    n: int, adj: Sequence[Sequence[int]], leaf_limit: int = _LEAF_LIMIT
) -> int:
    """The earlier `coloring._canonical_bits`: the minimum adjacency
    bitstring over every leaf of the individualisation-refinement tree,
    branching on every vertex of the first non-singleton cell and pruning
    nothing; raises CanonicalizationError past leaf_limit leaves."""
    best: Optional[int] = None
    leaves = 0

    adj_sets = [set(a) for a in adj]

    def encode(colors: tuple[int, ...]) -> int:
        pos = [0] * n
        for v in range(n):
            pos[colors[v]] = v
        bits = 0
        shift = 0
        for i in range(n):
            vi = pos[i]
            for j in range(i + 1, n):
                if pos[j] in adj_sets[vi]:
                    bits |= 1 << shift
                shift += 1
        return bits

    def rec(colors: tuple[int, ...]) -> None:
        nonlocal best, leaves
        colors = _refine(n, adj, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                split = cells[c]
                break
        if split is None:
            leaves += 1
            if leaves > leaf_limit:
                raise CanonicalizationError("graph too symmetric to canonicalise")
            bits = encode(colors)
            if best is None or bits < best:
                best = bits
            return
        mark = n
        for v in split:
            branched = list(colors)
            branched[v] = mark
            rec(tuple(branched))

    rec((0,) * n)
    assert best is not None
    return best
