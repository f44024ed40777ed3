"""Graph core: an immutable graph stored as one array of pair ranks, G(n, p)
sampling, component census, and a plain text edge-list format.

Graphs are simple and undirected with vertices 0..n-1.  The edge (u, v),
u < v, is kept as its colexicographic pair rank C(v, 2) + u, and a graph's
edge set is one strictly increasing int64 array of those ranks.  Samplers
and the colouring builders work on rank arrays directly: `has_edge` is a
binary search, set differences and cover checks are array operations, and
adjacency tuples are built from the ranks only when a caller asks for them.
`Graph.from_edges` still takes Python (u, v) pairs and validates each one.

The G(n, p) sampler is deterministic for a fixed seed: it either draws one
Bernoulli per pair (vectorised, small or dense inputs) or draws the edge
count from a binomial and then a uniform random subset of pair ranks
(sparse inputs), which yields the same distribution without touching all
~n^2/2 pairs.

Components come from one vectorised labelling pass over the edge arrays
(root hooking plus pointer jumping).  `components` groups the vertices and
edges by label; `census` reads each component's order, edge count and
maximum degree off the same labels with `bincount`, so isolated vertices and
paths, by far the most common components of a very sparse graph, are
classified by their order alone; every other component is coded on its own
neighbour lists by `coloring.connected_code`, the rule verification uses.
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


def pair_rank(u: int, v: int) -> int:
    """Colexicographic rank of the pair u < v: rank = C(v, 2) + u."""
    return v * (v - 1) // 2 + u


def _unrank_pairs(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pair_rank, vectorised; exact for ranks below 2**52."""
    r = ranks.astype(np.int64)
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1; ranks holds the pair rank
    of every edge, strictly increasing."""

    n: int
    ranks: np.ndarray

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph from (u, v) pairs in either orientation, each validated."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[int] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            rank = v * (v - 1) // 2 + u
            if rank in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add(rank)
        return Graph(n, np.array(sorted(seen), dtype=np.int64))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.ranks, other.ranks)

    def __hash__(self) -> int:
        return hash((self.n, self.ranks.tobytes()))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuple of every vertex, from one CSR pass."""
        n = self.n
        us, vs = _unrank_pairs(self.ranks)
        # both orientations as source * n + target, sorted: CSR order
        arcs = np.sort(np.concatenate((us * n + vs, vs * n + us)))
        flat = (arcs % n).tolist()
        bounds = [0] + np.cumsum(np.bincount(arcs // n, minlength=n)).tolist()
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
    drawn in batches of a little more than the number still missing."""
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < m:
        need = m - len(picked)
        batch = gen.integers(0, npairs, size=need + max(16, need // 8))
        _, first = np.unique(batch, return_index=True)
        fresh = batch[np.sort(first)]
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

    counts maps each component's canonical code to its multiplicity and
    orders maps the same codes to the component order.  paths holds the
    path components (order >= 2) of each order, in order of their smallest
    vertex.
    """

    counts: dict
    orders: dict
    paths: dict[int, tuple[Component, ...]]

    @property
    def path_counts(self) -> dict[int, int]:
        """Number of path components of each order (order >= 2)."""
        return {order: len(comps) for order, comps in self.paths.items()}

    def total_vertices(self) -> int:
        return sum(self.orders[c] * k for c, k in self.counts.items())


_EXACT_CENSUS_CAP = 12


def _component_code(comp: Component):
    """Census code of a component: the AHU `CanonicalCode` of a tree,
    b"G{cert}" for any other component of at most 12 vertices, where cert
    is its exact certificate (`coloring.connected_code` both times), and a
    coarse b"L..." code above that."""
    # imported here to avoid a cycle: catalog and coloring build on Graph
    from .catalog import CanonicalCode
    from .coloring import connected_code

    adj = comp.local_adj()
    if comp.is_tree():
        return CanonicalCode(connected_code(adj, _EXACT_CENSUS_CAP))
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
    by their order, so one representative of each order is coded; every
    other component is coded on its own.
    """
    edges, labels, roots = _labelled(g)
    comp_order = np.bincount(labels, minlength=g.n)[roots]
    comp_size = np.bincount(labels[edges[:, 0]], minlength=g.n)[roots]
    max_degree = np.zeros(g.n, dtype=np.int64)
    np.maximum.at(max_degree, labels, np.bincount(edges.ravel(), minlength=g.n))
    is_path = (comp_size == comp_order - 1) & (max_degree[roots] <= 2)
    counts: dict = {}
    orders: dict = {}

    def tally(rep: Component, multiplicity: int) -> None:
        code = _component_code(rep)
        counts[code] = counts.get(code, 0) + multiplicity
        orders[code] = rep.order

    isolated = int(np.count_nonzero(comp_order == 1))
    if isolated:
        tally(Component(vertices=(0,), edges=()), isolated)
    paths: dict[int, list[Component]] = {}
    big = comp_order >= 2
    grouped = _grouped(edges, labels, roots[big])
    for comp, path in zip(grouped, is_path[big].tolist()):
        if path:
            paths.setdefault(comp.order, []).append(comp)
        else:
            tally(comp, 1)
    for comps in paths.values():
        tally(comps[0], len(comps))
    return ComponentCensus(
        counts=counts,
        orders=orders,
        paths={k: tuple(comps) for k, comps in sorted(paths.items())},
    )


def write_edgelist(g: Graph, path: str) -> None:
    """Write the text edge-list format: "n m" header, then "u v" per line."""
    us, vs = _lex_endpoints(g.ranks)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        fh.writelines(f"{u} {v}\n" for u, v in zip(us.tolist(), vs.tolist()))


def read_edgelist(path: str) -> Graph:
    """Read the format written by write_edgelist.  The format checks are
    made here; Graph.from_edges rejects out-of-range and repeated edges."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"malformed header line: {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)}")
    return Graph.from_edges(n, [parse_edge_line(ln) for ln in body])


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
