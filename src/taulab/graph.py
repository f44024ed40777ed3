"""Graph core: an immutable graph stored as one array of pair ranks, G(n, p)
sampling, component census, and a plain text edge-list format.

Graphs are simple and undirected with vertices 0..n-1.  The edge (u, v),
u < v, is kept as its colexicographic pair rank C(v, 2) + u, and a graph's
edge set is one strictly increasing int64 array of those ranks.  Samplers
and the colouring builders work on rank arrays directly: `has_edge` is a
binary search, set differences and cover checks are array operations, and
adjacency is built from the ranks only when a caller asks for it: `csr`
sorts both orientations of every edge once into offsets and targets, and
`adj` reads its neighbour tuples off them.
Pairs from outside the program, the (u, v) pairs given to `Graph.from_edges`
and the edges of a colouring file, are checked and ranked in one place,
`_checked_ranks`.

The G(n, p) sampler is deterministic for a fixed seed: it either draws one
Bernoulli per pair (vectorised, small or dense inputs) or draws the edge
count from a binomial and then a uniform random subset of pair ranks
(sparse inputs), which yields the same distribution without touching all
~n^2/2 pairs; repeated rank draws are found by one plain sort of packed
(draw, position) keys.  An input expecting more than 2^25 edges is refused.

Components come from one vectorised labelling pass over the edge arrays
(root hooking plus pointer jumping).  `components` groups the vertices and
edges by label; `census` reads each component's order, edge count and
maximum degree off the same labels with `bincount`, so isolated vertices and
paths, by far the most common components of a very sparse graph, are
classified by their order alone and never become `Component` objects: the
census hands out the paths of each order as an array with one row of edge
ranks per path, laid out by one stable sort.  Every other component is coded
on its own neighbour lists by `coloring.connected_code`.  Verification runs
the same pass and path rule over a batch of colour classes
(`coloring.class_signatures`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
        targets[offsets[v]:offsets[v + 1]]."""
        n = self.n
        us, vs = _unrank_pairs(self.ranks)
        # both orientations as source * n + target, sorted: CSR order
        arcs = np.sort(np.concatenate((us * n + vs, vs * n + us)))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=offsets[1:])
        return offsets, arcs % n

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

    def degree(self, v: int) -> int:
        return len(self.adj[v])

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
    position; keys wider than 63 bits fall back to a stable `np.unique`."""
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


@dataclass(frozen=True)
class Component:
    """One connected component: its vertices and the edges among them."""

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


def _component_shapes(labels: np.ndarray, edges: np.ndarray, roots: np.ndarray):
    """(order, path) of the components with these roots, given the (m, 2)
    edge array: each one's vertex count, and whether it is a path (a tree of
    maximum degree at most 2, isolated vertices included), which its order
    alone determines."""
    nv = len(labels)
    order = np.bincount(labels, minlength=nv)[roots]
    size = np.bincount(labels[edges[:, 0]], minlength=nv)[roots]
    max_degree = np.zeros(nv, dtype=np.int64)
    np.maximum.at(max_degree, labels, np.bincount(edges.ravel(), minlength=nv))
    return order, (size == order - 1) & (max_degree[roots] <= 2)


def _labelled(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, labels, roots): the edges as a lexicographically sorted
    (m, 2) array, each vertex's component label, and the ascending roots."""
    edges = np.column_stack(_lex_endpoints(g.ranks))
    labels = _component_labels(g.n, edges[:, 0], edges[:, 1])
    roots = np.flatnonzero(labels == np.arange(g.n))
    return edges, labels, roots


def _grouped(
    edges: np.ndarray, labels: np.ndarray, roots: np.ndarray
) -> list[Component]:
    """The components whose smallest vertex is in roots (ascending), in that
    order, with sorted vertices and lexicographically sorted edges."""
    if not len(roots):
        return []
    verts = np.argsort(labels, kind="stable")
    by_edge = np.argsort(labels[edges[:, 0]], kind="stable")
    vlab, elab = labels[verts], labels[edges[by_edge, 0]]
    vertex_list, edge_list = verts.tolist(), edges[by_edge].tolist()
    bounds = zip(
        np.searchsorted(vlab, roots, "left").tolist(),
        np.searchsorted(vlab, roots, "right").tolist(),
        np.searchsorted(elab, roots, "left").tolist(),
        np.searchsorted(elab, roots, "right").tolist(),
    )
    return [
        Component(
            vertices=tuple(vertex_list[a:b]),
            edges=tuple((u, v) for u, v in edge_list[c:d]),
        )
        for a, b, c, d in bounds
    ]


def components(g: Graph) -> list[Component]:
    """Connected components in order of their smallest vertex."""
    return _grouped(*_labelled(g))


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


_EXACT_CENSUS_CAP = 12


def _component_code(comp: Component) -> bytes:
    """Census code of a component: a tree's AHU string, b"G{cert}" for any
    other component of at most 12 vertices, where cert is its exact
    certificate (`coloring.connected_code` both times), and a coarse
    b"L..." code above that."""
    # imported here: coloring builds on Graph, so it imports this module
    from .coloring import connected_code

    adj = comp.local_adj()
    if comp.is_tree():
        return connected_code(adj, _EXACT_CENSUS_CAP)
    if comp.order <= _EXACT_CENSUS_CAP:
        return b"G{" + connected_code(adj, _EXACT_CENSUS_CAP) + b"}"
    # too large to classify exactly; the coarse code is isomorphism-invariant
    # but may merge types (census never errors, exactness is promised only
    # for trees and small components)
    degseq = ",".join(map(str, sorted(map(len, adj))))
    digest = hashlib.blake2b(degseq.encode("ascii"), digest_size=8).hexdigest()
    return b"L%d,%d:%s" % (comp.order, len(comp.edges), digest.encode("ascii"))


def census(g: Graph) -> ComponentCensus:
    """Classify every component of g by canonical code and collect paths.

    One labelling pass gives each component's order, edge count and maximum
    degree.  Isolated vertices and paths are determined up to isomorphism
    by their order, so each order is coded once (`coloring._path_code`),
    and one stable sort of the path edges by (order, smallest vertex) lays
    out the rows of `paths`; every other component is coded on its own.
    """
    from .coloring import _path_code  # see _component_code

    edges, labels, roots = _labelled(g)
    order, path = _component_shapes(labels, edges, roots)
    kinds, sizes = np.unique(order[path], return_counts=True)
    counts = {_path_code(k): c for k, c in zip(kinds.tolist(), sizes.tolist())}
    for comp in _grouped(edges, labels, roots[~path]):
        code = _component_code(comp)
        counts[code] = counts.get(code, 0) + 1
    # the order of each path at its root, 0 elsewhere; isolated vertices
    # own no edge
    path_order = np.zeros(g.n, dtype=np.int64)
    path_order[roots[path]] = order[path]
    lead = labels[edges[:, 0]]
    edge_order = path_order[lead]
    on_path = np.flatnonzero(edge_order)
    keys = edge_order[on_path] * g.n + lead[on_path]
    ranks = pair_ranks(edges[on_path[np.argsort(keys, kind="stable")]])
    ends = np.cumsum(sizes * (kinds - 1))
    paths = {
        k: rows.reshape(-1, k - 1)
        for k, rows in zip(kinds.tolist(), np.split(ranks, ends[:-1]))
        if k >= 2
    }
    return ComponentCensus(counts=counts, paths=paths)


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
