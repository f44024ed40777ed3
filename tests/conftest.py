"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: independent reference implementations
the fast code is checked against, not production paths.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import networkx as nx
import numpy as np

from taulab import rng as rngmod
from taulab.catalog import (
    LinearForest,
    RootedBinaryTree,
    _unrank_shape,
    ahu_code,
    catalan,
)
from taulab.embed import (
    EmbeddedTree,
    EmbedResult,
    EmbedTrace,
    LazyRandomGraph,
    _connected_order,
)
from taulab.graph import (
    _LEAF_LIMIT,
    CanonicalizationError,
    Graph,
    _component_code,
    _unrank_pairs,
    connected_code,
    pair_rank,
    pair_ranks,
)


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


def sorted_first_distinct_draws(gen, npairs: int, m: int) -> np.ndarray:
    """The earlier `graph._first_distinct_draws`: each batch marks the first
    position of every draw, keeps the unpicked ones in position order up to
    the number missing, and the picks are sorted at the end."""
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < m:
        need = m - len(picked)
        size = need + max(16, need // 8)
        batch = gen.integers(0, npairs, size=size)
        b = size.bit_length()
        if npairs.bit_length() + b > 63:
            _, first = np.unique(batch, return_index=True)
        else:
            keys = np.sort((batch << b) | np.arange(size))
            run_start = np.concatenate(([True], np.diff(keys >> b) != 0))
            first = keys[run_start] & ((1 << b) - 1)
        keep = np.zeros(size, dtype=bool)
        keep[first] = True
        fresh = batch[keep]
        fresh = fresh[~np.isin(fresh, picked)]
        picked = np.concatenate((picked, fresh[:need]))
    return np.sort(picked)


def sorted_csr(n: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The earlier `Graph.csr`: the ranks unranked by float square root and
    both orientations of every edge put in CSR order by one plain sort."""
    us, vs = _unrank_pairs(ranks)
    arcs = np.sort(np.concatenate((us * n + vs, vs * n + us)))
    return np.searchsorted(arcs, np.arange(n + 1) * n), arcs % n


def tuple_forest_edges(
    paths: Sequence[Sequence[int]], forests: Iterable[LinearForest]
) -> tuple[list[list[tuple[int, int]]], Optional[int]]:
    """The earlier forest layout, without its one-size rule: each forest,
    first fit in path order, as its (u, v) edge tuples, u < v, and the index
    of the first forest that fits nowhere (None if all fit)."""
    cursors = [0] * len(paths)
    placed: list[list[tuple[int, int]]] = []
    for idx, forest in enumerate(forests):
        target = next(
            (i for i, path in enumerate(paths) if len(path) - cursors[i] >= forest.order),
            None,
        )
        if target is None:
            return placed, idx
        path, pos, edges = paths[target], cursors[target], []
        for x in forest.path_lengths:
            for j in range(x):
                a, b = path[pos + j], path[pos + j + 1]
                edges.append((a, b) if a < b else (b, a))
            pos += x + 1
        cursors[target] = pos
        placed.append(edges)
    return placed, None


def free_trees(t: int) -> list[Graph]:
    """All unlabelled trees on t vertices, from networkx's enumeration."""
    if t == 1:
        return [Graph.from_edges(1, [])]
    return [Graph.from_edges(t, tree.edges()) for tree in nx.nonisomorphic_trees(t)]


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


def two_pass_tree_code(adj: Sequence[Sequence[int]]) -> bytes:
    """The earlier `tree_code`: peel leaf layers to find the centres, then
    code the tree rooted there in a second walk (both halves of a bicentral
    tree), with the same three not-a-tree errors."""
    n = len(adj)
    if n <= 2:
        centers = list(range(n))
    else:
        deg = [len(a) for a in adj]
        layer = [v for v in range(n) if deg[v] == 1]
        alive = n
        while alive > 2:
            if not layer:
                raise ValueError("input is not a tree (contains a cycle)")
            alive -= len(layer)
            nxt = []
            for v in layer:
                deg[v] = 0
                for w in adj[v]:
                    if deg[w] > 0:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt
        centers = sorted(layer)

    def rooted(root: int, above: int = -1) -> bytes:
        parent = [-1] * n
        parent[root] = above
        order = [root]
        for v in order:
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        code = [b""] * n
        for v in reversed(order):
            kids = sorted(code[w] for w in adj[v] if w != parent[v])
            code[v] = b"(" + b"".join(kids) + b")"
        return code[root]

    if len(centers) == 1:
        body = rooted(centers[0])
        if n > 1 and len(body) != 2 * n:
            raise ValueError("input is not a tree (not connected)")
        return body
    c1, c2 = centers
    if c2 not in adj[c1]:
        raise ValueError("input is not a tree (disconnected centre pair)")
    a, b = rooted(c1, above=c2), rooted(c2, above=c1)
    if len(a) + len(b) != 2 * n:
        raise ValueError("input is not a tree (not connected)")
    lo, hi = sorted((a, b))
    return b"[" + lo + hi + b"]"


def all_graphs(n: int):
    """Every labelled simple graph on n vertices (use only for tiny n)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


@dataclass(frozen=True)
class Component:
    """One connected component found by `bfs_components`: its vertices and
    the edges among them."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1

    def local_adj(self) -> list[list[int]]:
        """Neighbour lists with the vertices renumbered 0.. in order."""
        index = {v: i for i, v in enumerate(self.vertices)}
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            adj[index[u]].append(index[v])
            adj[index[v]].append(index[u])
        return adj


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


def bfs_class_signature(edges: Sequence[tuple[int, int]]) -> tuple:
    """Signature of an edge set with its components found by `bfs_components`:
    the sorted `connected_code` of each component with edges."""
    n = 1 + max((v for _, v in edges), default=0)
    return tuple(
        sorted(
            connected_code(comp.local_adj())
            for comp in bfs_components(Graph.from_edges(n, edges))
            if comp.edges
        )
    )


def seeded_graph(seed: int, m: int, nv: int) -> Graph:
    """m distinct random edges on nv vertices."""
    rng = rngmod.stream(seed, 3)
    pairs = list(itertools.combinations(range(nv), 2))
    pick = rng.choice(len(pairs), size=m, replace=False)
    return Graph.from_edges(nv, [pairs[i] for i in pick])


def oracle_tau(g: Graph) -> int:
    """Exact tau by every set partition of the edges, unpruned, each part
    signed by `bfs_class_signature`."""
    edges = g.edges
    m = len(edges)
    memo: dict[int, tuple] = {}

    def sig(mask: int) -> tuple:
        if mask not in memo:
            memo[mask] = bfs_class_signature([edges[i] for i in range(m) if mask >> i & 1])
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


def component_census(g: Graph) -> tuple[dict, dict]:
    """(counts, paths) with every component found by `bfs_components` and
    coded on its own; paths maps each order k >= 2 to a (count, k - 1)
    array whose rows are the `pair_ranks` of its path components' edges, in
    smallest-vertex order."""
    counts: dict = {}
    paths: dict = {}
    for comp in bfs_components(g):
        code = _component_code(comp.local_adj())
        counts[code] = counts.get(code, 0) + 1
        degrees = Counter(v for e in comp.edges for v in e)
        if comp.is_tree() and comp.order >= 2 and max(degrees.values()) <= 2:
            paths.setdefault(comp.order, []).append(pair_ranks(comp.edges))
    return counts, {k: np.array(rows) for k, rows in sorted(paths.items())}


def bigint_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds, one
    ``rng.bytes`` call per draw: the earlier per-call draw, and the oracle
    for `rng.bigints_below`.

    Draws fixed-width blocks from ``rng`` and rejects values >= bound, so the
    result is exactly uniform and deterministic given the generator state.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    excess = 8 * nbytes - bits
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big") >> excess
        if raw < bound:
            return raw


def sample_rooted_binary(t: int, rng: np.random.Generator) -> RootedBinaryTree:
    """Uniform shape among the catalan(t), by exact big-integer unranking."""
    shape = _unrank_shape(t, bigint_below(rng, catalan(t)))
    assert shape is not None
    return shape


def rooted_to_graph(root: RootedBinaryTree) -> Graph:
    """Underlying unrooted tree of a shape, its nodes numbered in preorder,
    left subtree first; max degree 3 by construction.  The shape oracle for
    `catalog._unrank_tree`, which builds the same tree without the shape."""
    edges: list[tuple[int, int]] = []
    counter = 0
    stack: list[tuple[RootedBinaryTree, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        idx = counter
        counter += 1
        if parent >= 0:
            edges.append((parent, idx))
        if node.right is not None:
            stack.append((node.right, idx))
        if node.left is not None:
            stack.append((node.left, idx))
    return Graph.from_edges(counter, edges)


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


def coded(trees: Iterable[Graph]) -> list[tuple[Graph, bytes]]:
    """The trees as a supply for `greedy_embed`: each with its `ahu_code`."""
    return [(g, ahu_code(g)) for g in trees]


_ORACLE_PARTNERS: "weakref.WeakKeyDictionary[LazyRandomGraph, dict[int, set[int]]]" = (
    weakref.WeakKeyDictionary()
)


def oracle_partners(g: LazyRandomGraph) -> dict[int, set[int]]:
    """The pairs the scalar oracles have revealed on g, stored at both ends.
    They live apart from g, whose own reveal bits the oracles never read or
    set."""
    return _ORACLE_PARTNERS.setdefault(g, {})


def oracle_revealed(g: LazyRandomGraph) -> set[tuple[int, int]]:
    """The pairs (u, v), u < v, that the scalar oracles revealed on g."""
    return {(a, b) for a, bs in oracle_partners(g).items() for b in bs if a < b}


def scalar_reveal(g: LazyRandomGraph, u: int, v: int) -> bool:
    """The earlier `LazyRandomGraph.reveal`: both partner sets through
    setdefault, then the scalar hash of the pair's rank."""
    if u == v:
        raise ValueError("cannot reveal a self-pair")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"pair ({u}, {v}) out of range")
    a, b = (u, v) if u < v else (v, u)
    partners = oracle_partners(g)
    if b in partners.get(a, ()):
        raise ValueError(f"pair ({a}, {b}) already revealed")
    partners.setdefault(a, set()).add(b)
    partners.setdefault(b, set()).add(a)
    return rngmod.pair_uniform(g._key, pair_rank(a, b)) < g.p


def scalar_greedy_embed(
    g: LazyRandomGraph,
    trees: Iterable[tuple[Graph, bytes]],
    step_budget: int,
    rng: np.random.Generator,
) -> EmbedResult:
    """The earlier `greedy_embed`: one scalar ``rng.integers(0, n)`` call per
    candidate and the same pick rule, with partner sets in place of the
    reveal bits, at every step.  It codes each embedded tree itself, so a
    supplied code that is wrong shows as a difference in the result."""
    if step_budget < 0:
        raise ValueError("step_budget must be nonnegative")
    n = g.n
    trace = EmbedTrace(
        steps=0,
        rev=[0] * n,
        rev_active=[0] * n,
        rev_inactive=[0] * n,
        activations=[0] * n,
    )
    embedded: list[EmbeddedTree] = []
    status = "supply_exhausted"

    def pick_candidate(active: int, image: set[int]) -> Optional[int]:
        partners = oracle_partners(g).get(active, set())
        tries = 0
        while True:
            w = int(rng.integers(0, n))
            tries += 1
            if w != active and w not in partners and w not in image:
                return w
            if tries == 40 and set(range(n)) <= partners | image | {active}:
                return None

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
                    complete = False
                    halt = True
                    break
                hit = scalar_reveal(g, active, w)
                trace.steps += 1
                trace.rev[active] += 1
                trace.rev[w] += 1
                trace.rev_active[active] += 1
                trace.rev_inactive[w] += 1
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


def _refine(n: int, adj: Sequence[Sequence[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    """The earlier `graph._refine`, kept apart from it: stable colour
    refinement, each vertex keyed by its colour and its sorted neighbour
    colours, the keys renumbered in sorted order until nothing changes."""
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = tuple(order[k] for k in keys)
        if new == colors:
            return colors
        colors = new


def twin_pruned_canonical_bits(
    n: int, adj: Sequence[Sequence[int]], leaf_limit: int = _LEAF_LIMIT
) -> int:
    """The earlier `graph._canonical_bits`: the unpruned search below,
    branching on one vertex per twin class of a cell, and refining every
    node, the twin chains included; raises CanonicalizationError past
    leaf_limit leaves."""
    best: Optional[int] = None
    leaves = 0

    adj_sets = [set(a) for a in adj]
    twin = [
        next(u for u in range(v + 1) if adj_sets[u] - {v} == adj_sets[v] - {u})
        for v in range(n)
    ]

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

    stack = [(0,) * n]
    while stack:
        colors = _refine(n, adj, stack.pop())
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if split is None:
            leaves += 1
            if leaves > leaf_limit:
                raise CanonicalizationError("graph too symmetric to canonicalise")
            bits = encode(colors)
            if best is None or bits < best:
                best = bits
            continue
        branched = set()
        for v in split:
            if twin[v] not in branched:
                branched.add(twin[v])
                child = list(colors)
                child[v] = n
                stack.append(tuple(child))
    assert best is not None
    return best


def unpruned_canonical_bits(
    n: int, adj: Sequence[Sequence[int]], leaf_limit: int = _LEAF_LIMIT
) -> int:
    """The earlier `graph._canonical_bits`: the minimum adjacency
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
