"""Graph core: an immutable graph stored as one array of pair ranks, G(n, p)
sampling, component census and codes, and a plain text edge-list format.

Graphs are simple and undirected with vertices 0..n-1.  The edge (u, v),
u < v, is kept as its colexicographic pair rank C(v, 2) + u, and a graph's
edge set is one strictly increasing int64 array of those ranks.  Samplers
and the colouring builders work on rank arrays directly: `has_edge` is a
binary search, set differences and cover checks are array operations, and
adjacency is built from the ranks only when a caller asks for it.  `csr`
reads each edge's larger endpoint v off the ascending ranks with one
searchsorted of the triangular numbers C(v, 2), so the arcs from v down
are already in CSR order; only the arcs up are sorted, and one stable
(timsort) pass merges the two runs into offsets and targets.  `adj` reads
its neighbour tuples off them.  `_csr` is the one CSR builder.
Pairs from outside the program, the (u, v) pairs given to `Graph.from_edges`
and the edges of a colouring file, are checked and ranked in one place,
`_checked_ranks`.

The G(n, p) sampler is deterministic for a fixed seed: it either draws one
Bernoulli per pair (vectorised, small or dense inputs) or draws the edge
count from a binomial and then a uniform random subset of pair ranks
(sparse inputs), which yields the same distribution without touching all
~n^2/2 pairs; repeated rank draws are found by one plain sort of packed
(draw, position) keys, which also leaves the kept draws in value order, so
they are never sorted again.  An input expecting more than 2^25 edges is
refused.

Components come from one vectorised labelling pass over the edge arrays
(root hooking plus pointer jumping).  `components` groups all n vertices by
label.  `_component_shapes` labels only the vertices that carry an edge,
renumbered in order by one `np.unique`, and reads each component's order,
edge count and maximum degree off the labels with `bincount`.  `census`
counts the other n minus that many vertices as isolated, so it costs
O(m log m), not O(n), and hands out the paths of each order, the most
common components of a very sparse graph after isolated vertices, as an
array with one row of edge ranks per path, laid out by one stable sort.
`class_signatures` runs the same compaction and pass over a batch of
colour classes and signs each class by the sorted codes of its
components; it is the only routine that signs an edge set, in plain Python
for a batch of at most `_SMALL_BATCH` edges, too few to repay numpy's cost.

Component codes are bytes, equal exactly when the components are
isomorphic, and this module is their one home.  A path is coded by its
order alone (`_path_code`).  Every other component goes through
`connected_code` on neighbour lists that `_component_lists` cuts, for all
of them, from one CSR.  A tree of any size gets its centre-rooted AHU
string (Aho, Hopcroft and Ullman, 1974) from `tree_code`, built while its
leaf layers are peeled: each peeled vertex's code is put together from its
already peeled children, and the last one or two vertices left are the
centres, whose codes make the string.  Complete graphs and cycles get
short codes.  Anything else small gets an exact certificate: the least
adjacency bitstring over the leaves of an individualisation-refinement
search (McKay and Piperno, J. Symbolic Comput. 2014), which branches on
one vertex per twin class of a cell (u and v are twins when N(u) - {v} ==
N(v) - {u}).  Swapping twins is an automorphism, so a skipped twin's
subtree holds the same bitstrings and the bytes are those of the full
search.  A cell that is one twin class is individualised without refining:
one member alone in a new colour splits no other cell, so a chain of twins
costs no refinement.  A complete multipartite graph is searched only
across its parts of equal size, and refined only where the search
branches.  Signing fails on a non-tree above `_CERT_CAP` vertices, which
the census gives a coarse code of order, size and degree sequence instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rng as rngmod

# Above this many pairs, and below this density, edges are sampled by rank
# instead of one Bernoulli draw per pair.
_PAIR_BLOCK = 1 << 22
_RANK_SAMPLING_DENSITY = 0.05
# The most edges gen_gnp may expect: 8 bytes of ranks each, and more to sample
_MAX_EXPECTED_EDGES = 1 << 25


def pair_rank(u: int, v: int) -> int:
    """Colexicographic rank of the pair u < v: rank = C(v, 2) + u."""
    return v * (v - 1) // 2 + u


_UNRANK_LIMIT = 1 << 52


def _unrank_pairs(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pair_rank, vectorised; exact for ranks below 2**52, and
    refuses larger ones."""
    r = ranks.astype(np.int64)
    if len(r) and r.max() >= _UNRANK_LIMIT:
        raise ValueError(
            f"pair rank {int(r.max())} is beyond the exact unranking limit 2**52"
        )
    v = ((1.0 + np.sqrt(1.0 + 8.0 * r.astype(np.float64))) / 2.0).astype(np.int64)
    # float sqrt can be off by one near triangular numbers
    v = np.where(r < v * (v - 1) // 2, v - 1, v)
    v = np.where(r >= v * (v + 1) // 2, v + 1, v)
    u = r - v * (v - 1) // 2
    return u, v


def _lex_endpoints(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (us, vs) of the ranked pairs in lexicographic order."""
    us, vs = _unrank_pairs(ranks)
    order = np.lexsort((vs, us))
    return us[order], vs[order]


def pair_ranks(edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Vectorised pair_rank of (u, v) pairs with 0 <= u < v, in input order."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    us, vs = e[:, 0], e[:, 1]
    if not ((0 <= us) & (us < vs)).all():
        raise ValueError("edges must be (u, v) pairs with 0 <= u < v")
    return vs * (vs - 1) // 2 + us


def edge_tuples(ranks: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The ranked pairs as (u, v) tuples in lexicographic order."""
    us, vs = _lex_endpoints(ranks)
    return tuple(zip(us.tolist(), vs.tolist()))


def _checked_ranks(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Pair ranks, in input order, of (u, v) pairs from outside the program,
    in either orientation: the one place such pairs are checked.  Raises
    ValueError on the first self-loop, out-of-range or repeated pair; a pair
    is out of range when a vertex is not below n or its rank does not fit
    in an int64."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen: dict[int, None] = {}  # insertion ordered
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        rank = v * (v - 1) // 2 + u
        if rank >> 63:
            raise ValueError(f"edge {(u, v)} out of range: pair rank above 2^63 - 1")
        if rank in seen:
            raise ValueError(f"duplicate edge {(u, v)}")
        seen[rank] = None
    return np.fromiter(seen, dtype=np.int64, count=len(seen))


def _csr(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, targets) of the graph on 0..n-1 with the edges (us[i],
    vs[i]): the neighbours of vertex v, ascending, are
    targets[offsets[v]:offsets[v + 1]]."""
    # both orientations as source * n + target, sorted: CSR order, with the
    # arcs leaving v in [v * n, (v + 1) * n)
    arcs = np.concatenate((vs * n + us, us * n + vs))
    down, up = np.split(arcs, 2)  # views: the arcs vs[i] -> us[i], then back
    if (down[1:] >= down[:-1]).all():  # edges in colex order, as from Graph.csr
        up.sort()
        arcs.sort(kind="stable")  # one timsort pass merges the two runs
    else:
        arcs.sort()
    return np.searchsorted(arcs, np.arange(n + 1) * n), arcs % n


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1; ranks holds the pair rank
    of every edge, strictly increasing."""

    n: int
    ranks: np.ndarray

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph from (u, v) pairs in either orientation, checked by
        `_checked_ranks`."""
        return Graph(n, np.sort(_checked_ranks(n, edges)))

    @staticmethod
    def from_ranks(n: int, ranks: np.ndarray) -> "Graph":
        """Graph from a strictly increasing int64 array of pair ranks."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if ranks.dtype != np.int64 or ranks.ndim != 1:
            raise ValueError("pair ranks must be a one-dimensional int64 array")
        if len(ranks):
            if not (ranks[1:] > ranks[:-1]).all():
                raise ValueError("pair ranks must be strictly increasing")
            if ranks[0] < 0 or ranks[-1] >= n * (n - 1) // 2:
                raise ValueError(f"pair rank out of range for n={n}")
        return Graph(n, ranks)

    @staticmethod
    def from_parts(
        n: int, ranks: np.ndarray, adj: tuple[tuple[int, ...], ...]
    ) -> "Graph":
        """Graph from ranks and the matching sorted neighbour tuples, for a
        caller that builds both at once; neither is checked."""
        g = Graph(n, ranks)
        g.__dict__["adj"] = adj  # the value the adj property would compute
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.ranks, other.ranks)

    def __hash__(self) -> int:
        return hash((self.n, self.ranks.tobytes()))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, targets): the neighbours of vertex v, ascending, are
        targets[offsets[v]:offsets[v + 1]].  The ranks ascend, so one
        searchsorted of the triangular numbers C(v, 2) counts the edges
        whose larger endpoint is each v, with no unranking."""
        ranks, v = self.ranks, np.arange(self.n + 1, dtype=np.int64)
        tri = v * (v - 1) // 2
        vs = np.repeat(v[:-1], np.diff(ranks.searchsorted(tri)))
        return _csr(self.n, ranks - tri[vs], vs)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuple of every vertex, read off `csr`."""
        offsets, targets = self.csr
        flat, bounds = targets.tolist(), offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) tuples, u < v, in lexicographic order."""
        return edge_tuples(self.ranks)

    @property
    def edge_count(self) -> int:
        return len(self.ranks)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            return False
        rank = v * (v - 1) // 2 + u
        ranks = self.ranks
        i = ranks.searchsorted(rank)
        return i < len(ranks) and int(ranks[i]) == rank


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), bit-reproducible for a fixed (n, p, seed)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    npairs = n * (n - 1) // 2
    if npairs * p > _MAX_EXPECTED_EDGES:
        raise ValueError(f"G(n={n}, p={p}) expects {npairs * p:,.0f} edges, "
                         f"above the cap of {_MAX_EXPECTED_EDGES:,} edges")
    gen = rngmod.stream(seed, 0)
    if npairs == 0 or p == 0.0:
        return Graph.from_ranks(n, np.empty(0, dtype=np.int64))
    if npairs <= _PAIR_BLOCK or p >= _RANK_SAMPLING_DENSITY:
        blocks = []
        for start in range(0, npairs, _PAIR_BLOCK):
            hit = gen.random(min(start + _PAIR_BLOCK, npairs) - start) < p
            blocks.append(np.flatnonzero(hit) + start)
        return Graph.from_ranks(n, np.concatenate(blocks))
    # sparse: edge count is Binomial(npairs, p), then a uniform random subset
    # of pair ranks, which is exactly G(n, p) conditioned on its edge count
    m = int(gen.binomial(npairs, p))
    return Graph.from_ranks(n, _first_distinct_draws(gen, npairs, m))


def _first_distinct_draws(gen: np.random.Generator, npairs: int, m: int) -> np.ndarray:
    """The first m distinct values, sorted, of uniform draws below npairs,
    drawn in batches of a little more than the number still missing.  The
    first key of each run in one plain sort of the keys (draw << b) |
    position, b the bit length of the batch size, holds that draw's first
    position; keys wider than 63 bits fall back to a stable `np.unique`.
    Each batch keeps, of its values not yet picked, the ones first drawn
    earliest, found by one `np.partition` of the positions, and stays in
    value order, so picking ends with a merge, not a sort."""
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < m:
        need = m - len(picked)
        size = need + max(16, need // 8)
        batch = gen.integers(0, npairs, size=size)
        b = size.bit_length()
        if npairs.bit_length() + b > 63:
            values, first = np.unique(batch, return_index=True)
        else:
            keys = batch  # packed in place: the draws are read back off the keys
            keys <<= b
            keys |= np.arange(size)
            keys.sort()
            draws = keys >> b
            head = np.ones(size, dtype=bool)  # the first key of each run
            np.not_equal(draws[1:], draws[:-1], out=head[1:])
            heads = keys[head]
            values, first = heads >> b, heads & ((1 << b) - 1)
        if len(picked):
            fresh = ~np.isin(values, picked)
            values, first = values[fresh], first[fresh]
        if len(values) > need:
            values = values[first <= np.partition(first, need - 1)[need - 1]]
        picked = np.concatenate((picked, values))
        picked.sort(kind="stable")  # one timsort pass merges the two runs
    return picked


def _component_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Label every vertex with the smallest vertex of its component.

    Root hooking after Shiloach and Vishkin (J. Algorithms 1982): each edge
    joining two trees hooks the larger root onto the smaller, then pointer
    jumping flattens every tree to a star.  Pointers only ever go down, so a
    component's last root is its smallest vertex.  A root that neither hooks
    nor is hooked onto in one round sees only smaller roots in the next, so
    the roots of a component at least halve every two rounds, whatever the
    labelling.  Plain neighbour-min propagation instead needs about one
    round per vertex on an adversarially labelled path.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        ru, rv = parent[us], parent[vs]
        live = ru != rv
        if not live.any():
            return parent
        ru, rv = ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _component_shapes(edges: np.ndarray):
    """(keys, edges, labels, roots, order, path) of the graph on the
    distinct nonnegative keys of the (m, 2) edge array: the keys ascending,
    the edges with each key replaced by its index in keys, each vertex's
    component label, the ascending roots, and per root its component's
    vertex count and whether it is a path (a tree of maximum degree at
    most 2)."""
    # first endpoints, then second ones: class_signatures holds its keys
    # so, and unique then copies one contiguous block
    keys, inverse = np.unique(edges.T, return_inverse=True)
    edges = inverse.reshape(2, -1).T
    nv = len(keys)
    labels = _component_labels(nv, edges[:, 0], edges[:, 1])
    roots = np.flatnonzero(labels == np.arange(nv))
    order = np.bincount(labels, minlength=nv)[roots]
    size = np.bincount(labels[edges[:, 0]], minlength=nv)[roots]
    max_degree = np.zeros(nv, dtype=np.int64)
    np.maximum.at(max_degree, labels, np.bincount(edges.ravel(), minlength=nv))
    path = (size == order - 1) & (max_degree[roots] <= 2)
    return keys, edges, labels, roots, order, path


def _component_lists(
    edges: np.ndarray, labels: np.ndarray, roots: np.ndarray
) -> list[list[list[int]]]:
    """Ascending neighbour lists of the components whose smallest vertex is
    in roots (ascending), in that order, each on its vertices numbered 0..
    in ascending order.  One stable sort by label lays those vertices out in
    runs, each led by its root, so v's local id is new[v] - new[labels[v]];
    the lists are read off one CSR in the new numbering."""
    if not len(roots):
        return []
    chosen = np.zeros(len(labels), dtype=bool)
    chosen[roots] = True
    chosen = chosen[labels]
    verts = np.flatnonzero(chosen)
    verts = verts[np.argsort(labels[verts], kind="stable")]
    new = np.empty(len(labels), dtype=np.int64)
    new[verts] = np.arange(len(verts))
    inner = edges[chosen[edges[:, 0]]]
    offsets, targets = _csr(len(verts), new[inner[:, 0]], new[inner[:, 1]])
    local = (new[verts] - new[labels[verts]])[targets]
    flat, bounds = local.tolist(), offsets.tolist()
    lists = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    runs = [*new[roots].tolist(), len(verts)]
    return [lists[a:b] for a, b in zip(runs, runs[1:])]


def components(g: Graph) -> list[tuple[int, ...]]:
    """The vertices of each connected component, ascending, in order of
    the component's smallest vertex."""
    labels = _component_labels(g.n, *_unrank_pairs(g.ranks))
    flat = np.argsort(labels, kind="stable").tolist()
    sizes = np.bincount(labels, minlength=g.n)
    bounds = [0, *np.cumsum(sizes[sizes > 0]).tolist()]
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


class CanonicalizationError(ValueError):
    """Raised when a graph is too large (or too symmetric) for the exact
    canonical form."""


_LEAF_LIMIT = 200_000


def _refine(adj: Sequence[Sequence[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    # stable colour refinement: colour + sorted neighbour colours, renumbered;
    # a round that splits no cell has reached the fixed point
    cells = len(set(colors))
    while True:
        keys = [(c, tuple(sorted(map(colors.__getitem__, a)))) for c, a in zip(colors, adj)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = tuple(map(order.__getitem__, keys))
        if len(order) == cells:
            return colors
        cells = len(order)


def _canonical_bits(n: int, adj: Sequence[Sequence[int]]) -> int:
    """Minimum adjacency bitstring over all discrete refinements reached by
    individualisation; exact but exponential in the worst case, hence the
    leaf budget.

    A cell is branched on once per twin class: v is skipped when an earlier
    vertex u of the cell has N(u) - {v} == N(v) - {u}.  Swapping such twins
    is an automorphism that fixes every individualised vertex (each sits in
    a singleton cell), and refinement does not look at labels, so it maps
    v's subtree onto u's leaf for leaf with equal bitstrings: the minimum,
    and every certificate byte, is what the full search gives.

    Only the root and the children of a branching are refined.  While the
    first cell of two or more vertices is a single twin class, its first
    vertex moves to a new last colour, where `_refine` would put it: a twin
    class is a clique or an independent set that every other vertex sees
    whole or not at all, so one member alone in a new colour splits no
    other cell of the equitable colouring.  The leaves, their order and so
    the bytes are those of refining every step."""
    best: Optional[int] = None
    leaves = 0

    masks = [sum(1 << w for w in a) for a in adj]
    # being twins is an equivalence relation; twin[v] is the least of v's class
    twin = [
        next(u for u in range(v + 1) if masks[u] & ~(1 << v) == masks[v] & ~(1 << u))
        for v in range(n)
    ]
    edges = [(u, w) for u, a in enumerate(adj) for w in a if u < w]
    # the pair of positions i < j sits at bit i(2n-i-1)/2 + j-i-1 = row[i] + j
    row = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]

    stack = [(0,) * n]  # colourings still to refine, walked depth first
    while stack:
        colors = list(_refine(adj, stack.pop()))
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        top = len(cells)
        split = None
        for cell in cells:  # by colour; the new colours are all singletons
            if len(cell) == 1:
                continue
            if any(twin[v] != twin[cell[0]] for v in cell):
                split = cell
                break
            for v in cell[:-1]:  # one twin class: its last vertex stays put
                colors[v] = top
                top += 1
        if split is None:
            leaves += 1
            if leaves > _LEAF_LIMIT:
                raise CanonicalizationError("graph too symmetric to canonicalise")
            bits = 0
            for u, w in edges:
                i, j = colors[u], colors[w]
                bits |= 1 << (row[i] + j if i < j else row[j] + i)
            if best is None or bits < best:
                best = bits
            continue
        branched = set()  # twin classes of the cell already branched on
        for v in split:
            if twin[v] not in branched:
                branched.add(twin[v])
                child = colors.copy()
                child[v] = n
                stack.append(tuple(child))
    assert best is not None
    return best


def tree_code(adj: Sequence[Sequence[int]]) -> bytes:
    """AHU code of the tree on vertices 0..n-1 with these neighbour lists.

    The tree is rooted at its centre; bicentral trees are split at the central
    edge and both halves encoded, smaller half first.  Codes of two trees are
    equal exactly when the trees are isomorphic.  The caller checks that
    there are n - 1 edges.

    One pass peels leaf layers off the tree.  A vertex is peeled once all
    but one of its neighbours are, so its children toward the leaves are
    coded by then and its own code is put together as it goes; the one or
    two vertices left are the centres.
    """
    n = len(adj)
    deg = [len(a) for a in adj]
    kids: list[list[bytes]] = [[] for _ in range(n)]  # codes of peeled children
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        if not layer:
            # a tree always has leaves to peel; a cycle never empties
            raise ValueError("input is not a tree (contains a cycle)")
        alive -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            codes = kids[v]
            codes.sort()
            code = b"(" + b"".join(codes) + b")"
            for w in adj[v]:
                if deg[w]:
                    kids[w].append(code)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centres = layer if n > 2 else range(n)
    halves = sorted(b"(" + b"".join(sorted(kids[c])) + b")" for c in centres)
    if len(centres) == 2 and centres[1] not in adj[centres[0]]:
        raise ValueError("input is not a tree (disconnected centre pair)")
    # the centres' codes hold every vertex only if the graph is connected
    if not halves or sum(map(len, halves)) != 2 * n:
        raise ValueError("input is not a tree (not connected)")
    return halves[0] if len(halves) == 1 else b"[" + b"".join(halves) + b"]"


# Most vertices of a non-tree component with an exact certificate, for every
# caller.  A connected non-tree has at least as many edges as vertices, so
# tau_exact, which signs a size s only when two classes of that size meet
# (2s <= m <= 12), signs none above 6 vertices; the census certifies up to
# 12; and the builders' classes have none (trees, linear forests, paths).
_CERT_CAP = 12


def connected_code(adj: Sequence[Sequence[int]]) -> bytes:
    """Code of the connected graph on 0..n-1 with these neighbour lists:
    equal codes exactly when isomorphic.  A tree of any size gets its AHU
    string (starting with "(" or "["), anything else its exact certificate
    (starting with "K", "C" or "B"), which needs n <= `_CERT_CAP`."""
    n = len(adj)
    if sum(map(len, adj)) == 2 * (n - 1):
        return tree_code(adj)
    if n > _CERT_CAP:
        raise CanonicalizationError(
            f"component has {n} vertices, canonical form capped at {_CERT_CAP}"
        )
    degrees = sorted(map(len, adj))
    # two shapes common enough to special-case: complete graphs and cycles
    if degrees[0] == n - 1:
        return b"K%d" % n
    if degrees[0] == 2 and degrees[-1] == 2:
        return b"C%d" % n
    return b"B%d:%x" % (n, _canonical_bits(n, adj))


@lru_cache(maxsize=None)
def _path_code(order: int) -> bytes:
    """`tree_code` of the path on order >= 1 vertices."""
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < order] for i in range(order)]
    return tree_code(adj)


@dataclass(frozen=True)
class ComponentCensus:
    """Classification of a graph's components by canonical code.

    counts maps each component's code (bytes) to its multiplicity.  paths[k]
    is a (count, k - 1) int64 array for each order k >= 2 that has path
    components: one row per path on k vertices, in order of its smallest
    vertex, holding that path's edge ranks in lexicographic edge order.
    """

    counts: dict[bytes, int]
    paths: dict[int, np.ndarray]

    @property
    def path_counts(self) -> dict[int, int]:
        """Number of path components of each order (order >= 2)."""
        return {order: len(rows) for order, rows in self.paths.items()}


def _component_code(adj: list[list[int]]) -> bytes:
    """Census code of the connected graph with these neighbour lists: a
    tree's AHU string, b"G{cert}" for any other component of at most
    `_CERT_CAP` vertices, where cert is its exact certificate
    (`connected_code` both times), and a coarse b"L..." code above that."""
    order, size = len(adj), sum(map(len, adj)) // 2
    if size == order - 1:
        return connected_code(adj)
    if order <= _CERT_CAP:
        return b"G{" + connected_code(adj) + b"}"
    # too large to classify exactly; the coarse code is isomorphism-invariant
    # but may merge types (census never errors, exactness is promised only
    # for trees and small components)
    degseq = ",".join(map(str, sorted(map(len, adj))))
    digest = hashlib.blake2b(degseq.encode("ascii"), digest_size=8).hexdigest()
    return b"L%d,%d:%s" % (order, size, digest.encode("ascii"))


def census(g: Graph) -> ComponentCensus:
    """Classify every component of g by canonical code and collect paths.

    One labelling pass over the vertices that carry an edge gives each
    component's order, edge count and maximum degree; the other n minus
    that many are isolated vertices, counted but never labelled.  Isolated
    vertices and paths are determined up to isomorphism by their order, so
    each order is coded once (`_path_code`), and one stable sort
    of the path edges by (order, smallest vertex) lays out the rows of
    `paths`; every other component is coded on its own.
    """
    ends = np.column_stack(_lex_endpoints(g.ranks))
    keys, edges, labels, roots, order, path = _component_shapes(ends)
    isolated = g.n - len(keys)
    counts = {_path_code(1): isolated} if isolated else {}
    kinds, sizes = np.unique(order[path], return_counts=True)
    counts.update(zip(map(_path_code, kinds.tolist()), sizes.tolist()))
    for adj in _component_lists(edges, labels, roots[~path]):
        code = _component_code(adj)
        counts[code] = counts.get(code, 0) + 1
    # the order of each path at its root, 0 elsewhere
    path_order = np.zeros(len(keys), dtype=np.int64)
    path_order[roots[path]] = order[path]
    lead = labels[edges[:, 0]]
    edge_order = path_order[lead]
    on_path = np.flatnonzero(edge_order)
    rank_keys = edge_order[on_path] * len(keys) + lead[on_path]
    ranks = pair_ranks(ends[on_path[np.argsort(rank_keys, kind="stable")]])
    bounds = np.cumsum(sizes * (kinds - 1))
    paths = {
        k: rows.reshape(-1, k - 1)
        for k, rows in zip(kinds.tolist(), np.split(ranks, bounds[:-1]))
    }
    return ComponentCensus(counts=counts, paths=paths)


# Batches of at most this many edges skip numpy (scripts/exact_profile.py)
_SMALL_BATCH = 64


def _small_signature(ranks: list[int]):
    """`class_signatures` of one class in plain Python: each component from
    its smallest vertex, numbered 0.. in vertex order as `_component_lists` does."""
    adj: dict[int, list[int]] = {}
    for r in ranks:
        v = (1 + math.isqrt(8 * r + 1)) // 2
        u = r - v * (v - 1) // 2
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    codes, seen = [], set()
    for root in sorted(adj):
        if root in seen:
            continue
        comp, arcs, top = [root], 0, 0  # vertices, degree sum, maximum degree
        seen.add(root)
        for x in comp:
            arcs += len(adj[x])
            if len(adj[x]) > top:
                top = len(adj[x])
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        if top <= 2 and arcs == 2 * len(comp) - 2:
            codes.append(_path_code(len(comp)))
            continue
        local = {x: i for i, x in enumerate(sorted(comp))}  # in vertex order
        lists = [sorted(map(local.__getitem__, adj[x])) for x in local]
        try:
            codes.append(connected_code(lists))
        except CanonicalizationError as exc:
            return exc
    return tuple(sorted(codes))


def class_signatures(classes: Sequence[np.ndarray]) -> list:
    """Signature of every class, a rank array: the sorted codes of its
    components, so equal signatures mean isomorphic classes.  One labelling
    pass covers them all, keying vertex v of class c as c * n + v, n above
    every vertex.  Paths are coded by their order alone, every other
    component by `connected_code`; a class with a component that cannot be
    coded gets the CanonicalizationError of the first, by smallest vertex,
    instead.  A batch of at most `_SMALL_BATCH` edges is signed in Python."""
    if not classes:
        return []
    if sum(map(len, classes)) <= _SMALL_BATCH:
        rows = [c.tolist() for c in classes]
        if max(chain.from_iterable(rows), default=0) >= _UNRANK_LIMIT:
            _unrank_pairs(np.concatenate(classes))  # refuses, naming the maximum
        return [_small_signature(r) for r in rows]
    tags = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    us, vs = _unrank_pairs(np.concatenate(classes))
    n = int(vs.max()) + 1
    keyed = np.concatenate((tags * n + us, tags * n + vs)).reshape(2, -1).T
    keys, edges, labels, roots, order, path = _component_shapes(keyed)
    owner = keys[roots] // n  # class of each component
    codes: list[list[bytes]] = [[] for _ in classes]
    for c, size in zip(owner[path].tolist(), order[path].tolist()):
        codes[c].append(_path_code(size))
    failed: dict[int, CanonicalizationError] = {}
    others = _component_lists(edges, labels, roots[~path])
    for c, adj in zip(owner[~path].tolist(), others):
        if c not in failed:
            try:
                codes[c].append(connected_code(adj))
            except CanonicalizationError as exc:
                failed[c] = exc
    return [failed.get(c) or tuple(sorted(cs)) for c, cs in enumerate(codes)]


def write_edgelist(g: Graph, path: str) -> None:
    """Write the text edge-list format: "n m" header, then "u v" per line."""
    us, vs = _lex_endpoints(g.ranks)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        fh.writelines(f"{u} {v}\n" for u, v in zip(us.tolist(), vs.tolist()))


def read_edgelist(path: str) -> Graph:
    """Read the format written by write_edgelist.  The header counts are
    read by parse_count and each line by parse_edge_line;
    Graph.from_edges rejects out-of-range and repeated edges."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"line 1: expected '<n> <m>', got {lines[0]!r}")
    n = parse_count(head[0], "vertex count", 1)
    m = parse_count(head[1], "edge count", 1)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)}")
    return Graph.from_edges(n, [parse_edge_line(ln) for ln in body])


def parse_count(text: str, what: str, lineno: int) -> int:
    """A nonnegative integer field of the edge-list and colouring formats,
    or a ValueError that names the field and its line."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"line {lineno}: {what} is not an integer: {text!r}"
        ) from None
    if value < 0:
        raise ValueError(f"line {lineno}: {what} is negative: {text!r}")
    return value


def parse_edge_line(ln: str) -> tuple[int, int]:
    """The pair (u, v) on a "u v" line of the edge-list and colouring
    formats, which must have u < v."""
    parts = ln.split()
    if len(parts) != 2:
        raise ValueError(f"malformed edge line: {ln!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"malformed edge line: {ln!r}") from exc
    if not u < v:
        raise ValueError(f"edge line not in u < v order: {ln!r}")
    return u, v
