"""Catalog of the two families used to build pairwise non-isomorphic classes:
bounded-degree trees and linear forests.

Rooted binary trees (each node has an optional left and an optional right
child, so there are catalan(t) shapes on t nodes) double as a sampler for
unrooted trees with maximum degree 3: forgetting the root of a shape gives
such a tree, and every such tree arises this way.  Sampling a uniform shape
and deduplicating by canonical code therefore yields a stream of pairwise
non-isomorphic max-degree-3 trees without enumerating anything.

Linear forests are disjoint unions of paths; a forest with k edges is exactly
a partition of k into path lengths, so the family on k edges has p(k)
members, counted by the pentagonal-number recurrence.

Canonical codes: trees are encoded by the classic centre-rooted AHU string,
for which code equality coincides with isomorphism; linear forests by their
sorted multiset of path lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional, Sequence

import networkx as nx
import numpy as np

from . import rng as rngmod
from .graph import Graph

_ENUMERATION_CAP = 16
_EXHAUSTIVE_TREE_CAP = 16


@lru_cache(maxsize=None)
def catalan(t: int) -> int:
    """t-th Catalan number, exact."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.comb(2 * t, t) // (t + 1)


@dataclass(frozen=True)
class RootedBinaryTree:
    """Node with an optional left and an optional right child."""

    left: Optional["RootedBinaryTree"] = None
    right: Optional["RootedBinaryTree"] = None

    @property
    def size(self) -> int:
        stack = [self]
        total = 0
        while stack:
            node = stack.pop()
            total += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Order-invariant byte encoding; equal codes mean isomorphic objects."""

    data: bytes

    def text(self) -> str:
        return self.data.decode("ascii")


_MEMO_SIZE_LIMIT = 10


@lru_cache(maxsize=None)
def _shapes(t: int) -> tuple:
    if t == 0:
        return (None,)
    out = []
    for i in range(t):
        for left in _shapes(i):
            for right in _shapes(t - 1 - i):
                out.append(RootedBinaryTree(left, right))
    return tuple(out)


def _iter_shapes(t: int) -> Iterator[Optional[RootedBinaryTree]]:
    if t <= _MEMO_SIZE_LIMIT:
        yield from _shapes(t)
        return
    for i in range(t):
        for left in _iter_shapes(i):
            for right in _iter_shapes(t - 1 - i):
                yield RootedBinaryTree(left, right)


def enumerate_rooted_binary(t: int) -> Iterator[RootedBinaryTree]:
    """All catalan(t) rooted binary shapes on t nodes, t <= 16."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration refused for t={t} > {_ENUMERATION_CAP}; sample instead"
        )
    return _iter_shapes(t)


def _unrank_shape(t: int, r: int) -> Optional[RootedBinaryTree]:
    if t == 0:
        return None
    for i in range(t):
        w = catalan(i) * catalan(t - 1 - i)
        if r < w:
            cr = catalan(t - 1 - i)
            return RootedBinaryTree(_unrank_shape(i, r // cr), _unrank_shape(t - 1 - i, r % cr))
        r -= w
    raise AssertionError("rank out of range")


def sample_rooted_binary(t: int, rng: np.random.Generator) -> RootedBinaryTree:
    """Uniform shape among the catalan(t), by exact big-integer unranking."""
    if t < 1:
        raise ValueError("t must be at least 1")
    rank = rngmod.bigint_below(rng, catalan(t))
    shape = _unrank_shape(t, rank)
    assert shape is not None
    return shape


def rooted_to_graph(root: RootedBinaryTree) -> Graph:
    """Underlying unrooted tree of a shape; max degree 3 by construction."""
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


def _tree_centers(adj: Sequence[Sequence[int]]) -> list[int]:
    n = len(adj)
    if n == 1:
        return [0]
    if n == 2:
        return [0, 1]
    deg = [len(a) for a in adj]
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
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_ahu(adj: Sequence[Sequence[int]], root: int, above: int = -1) -> bytes:
    """AHU string of the tree rooted at root, iteratively (no recursion).
    The branch through the neighbour above, if any, is left out."""
    parent = [-1] * len(adj)
    parent[root] = above
    order = [root]
    for v in order:  # breadth first; order grows while it is walked
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code = [b""] * len(adj)
    for v in reversed(order):
        kids = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def tree_code(adj: Sequence[Sequence[int]]) -> bytes:
    """AHU code of the tree on vertices 0..n-1 with these neighbour lists.

    The tree is rooted at its centre; bicentral trees are split at the central
    edge and both halves encoded, smaller half first.  Codes of two trees are
    equal exactly when the trees are isomorphic.  The caller checks that
    there are n - 1 edges.
    """
    n = len(adj)
    centers = _tree_centers(adj)
    if len(centers) == 1:
        body = _rooted_ahu(adj, centers[0])
        if n > 1 and len(body) != 2 * n:
            raise ValueError("input is not a tree (not connected)")
        return body
    c1, c2 = centers
    if c2 not in adj[c1]:
        raise ValueError("input is not a tree (disconnected centre pair)")
    a = _rooted_ahu(adj, c1, above=c2)
    b = _rooted_ahu(adj, c2, above=c1)
    if len(a) + len(b) != 2 * n:
        raise ValueError("input is not a tree (not connected)")
    lo, hi = sorted((a, b))
    return b"[" + lo + hi + b"]"


def ahu_code(g: Graph) -> CanonicalCode:
    """Canonical code of an unrooted tree: its `tree_code`."""
    if g.n == 0:
        raise ValueError("empty graph is not a tree")
    if g.edge_count != g.n - 1:
        raise ValueError("input is not a tree (wrong edge count)")
    return CanonicalCode(tree_code(g.adj))


def free_trees(t: int) -> list[Graph]:
    """All unlabelled trees on t vertices, in a fixed enumeration order."""
    return _trees_up_to_degree(t, t)


def maxdeg3_trees(t: int) -> list[Graph]:
    """All unlabelled trees on t vertices with maximum degree <= 3."""
    return _trees_up_to_degree(t, 3)


def _trees_up_to_degree(t: int, max_degree: int) -> list[Graph]:
    """The free trees on t vertices with no degree above max_degree, checked
    before a Graph is built for each."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if t == 1:
        return [Graph.from_edges(1, [])]
    if t > _EXHAUSTIVE_TREE_CAP:
        raise ValueError(f"exhaustive tree enumeration refused for t={t}")
    return [
        Graph.from_edges(t, [tuple(sorted(e)) for e in tree.edges()])
        for tree in nx.nonisomorphic_trees(t)
        if max(d for _, d in tree.degree()) <= max_degree
    ]


def iter_distinct_maxdeg3_trees(
    t: int, rng: Optional[np.random.Generator]
) -> Iterator[Graph]:
    """Stream of pairwise non-isomorphic max-degree-3 trees on t vertices.

    Small t yields the exhaustive list; larger t samples uniform rooted
    binary shapes deduplicated by canonical code, giving up once a patience
    budget passes with no new shape, so the stream always terminates.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t <= _EXHAUSTIVE_TREE_CAP:
        yield from maxdeg3_trees(t)
        return
    seen: set[CanonicalCode] = set()
    misses = 0
    while True:
        g = rooted_to_graph(sample_rooted_binary(t, rng))
        code = ahu_code(g)
        if code in seen:
            misses += 1
            if misses > max(10_000, 60 * len(seen)):
                return
            continue
        seen.add(code)
        misses = 0
        yield g


def distinct_maxdeg3_trees(
    t: int, want: int, rng: Optional[np.random.Generator] = None
) -> list[Graph]:
    """The first want trees of `iter_distinct_maxdeg3_trees`; raises if the
    stream ends sooner.  Only t > 16 samples, and so needs rng."""
    if want < 0:
        raise ValueError("want must be nonnegative")
    if t > _EXHAUSTIVE_TREE_CAP and rng is None:
        raise ValueError("sampling path needs an rng")
    out = list(islice(iter_distinct_maxdeg3_trees(t, rng), want))
    if len(out) < want:
        raise RuntimeError(
            f"only {len(out)} of {want} distinct max-degree-3 trees "
            f"found on {t} vertices"
        )
    return out


def partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of k with non-increasing parts, largest-first order."""
    if k < 0:
        raise ValueError("k must be nonnegative")

    def rec(rest: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield prefix
            return
        for part in range(min(rest, cap), 0, -1):
            yield from rec(rest - part, part, prefix + (part,))

    return rec(k, k, ())


_PCOUNT = [1]


def partition_count(k: int) -> int:
    """p(k) by the pentagonal-number recurrence, exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_PCOUNT) <= k:
        m = len(_PCOUNT)
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 == 1 else -1
            total += sign * _PCOUNT[m - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= m:
                total += sign * _PCOUNT[m - g2]
            j += 1
        _PCOUNT.append(total)
    return _PCOUNT[k]


@dataclass(frozen=True)
class LinearForest:
    """Disjoint union of paths, identified by its non-increasing lengths."""

    path_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.path_lengths:
            raise ValueError("a linear forest needs at least one path")
        if any(x < 1 for x in self.path_lengths):
            raise ValueError("path lengths must be positive")
        if any(
            a < b for a, b in zip(self.path_lengths, self.path_lengths[1:])
        ):
            raise ValueError("path lengths must be non-increasing")

    @property
    def k(self) -> int:
        """Total edge count."""
        return sum(self.path_lengths)

    @property
    def part_count(self) -> int:
        return len(self.path_lengths)

    @property
    def order(self) -> int:
        """Vertex count: one more vertex than edges per path."""
        return self.k + self.part_count


def forest_code(f: LinearForest) -> CanonicalCode:
    """Code of a linear forest: its sorted length multiset."""
    return CanonicalCode(
        b"F:" + ",".join(str(x) for x in f.path_lengths).encode("ascii")
    )
