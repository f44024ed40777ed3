"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: independent reference implementations
the fast code is checked against, not production paths.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from taulab.graph import Component, Graph, _component_code


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


def component_census(g: Graph) -> tuple[dict, dict, dict]:
    """(counts, orders, paths) with every component coded on its own;
    paths maps each order to its path components in smallest-vertex order."""
    counts: dict = {}
    orders: dict = {}
    paths: dict = {}
    for comp in bfs_components(g):
        code = _component_code(comp)
        counts[code] = counts.get(code, 0) + 1
        orders[code] = comp.order
        degrees = Counter(v for e in comp.edges for v in e)
        if comp.is_tree() and comp.order >= 2 and max(degrees.values()) <= 2:
            paths.setdefault(comp.order, []).append(comp)
    return counts, orders, {k: tuple(v) for k, v in paths.items()}
