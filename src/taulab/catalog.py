"""Catalog of the two families used to build pairwise non-isomorphic classes:
bounded-degree trees and linear forests.

Rooted binary trees (each node has an optional left and an optional right
child, so there are catalan(t) shapes on t nodes) double as a sampler for
unrooted trees with maximum degree 3: forgetting the root of a shape gives
such a tree, and every such tree arises this way.  Sampling a uniform shape
and deduplicating by canonical code therefore yields a stream of pairwise
non-isomorphic max-degree-3 trees without enumerating anything.

Shapes are ranked by one split rule: the shapes on t nodes are ordered by
the size i of the left subtree, and then by the left and the right subtree's
ranks, so a rank falls into the block of catalan(i) * catalan(t - 1 - i)
shapes found by bisecting the cumulative block sizes.  One cached split
table per t holds, for every size up to t, those cumulative sizes and the
right subtrees' Catalan numbers.  The sampler takes its shape ranks from
`rng.bigints_below`, which reads the generator a block of draws at a time,
unranks straight into the tree's pair ranks and sorted neighbour lists,
numbering the nodes in preorder, left subtree first, and hands each tree
over with its code, so nothing downstream codes it again.

Linear forests are disjoint unions of paths; a forest with k edges is exactly
a partition of k into path lengths, so the family on k edges has p(k)
members, counted by the pentagonal-number recurrence.

Canonical codes are bytes, equal exactly when the objects are isomorphic:
trees get their AHU string (`graph.tree_code`), linear forests their
sorted multiset of path lengths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Optional

import networkx as nx
import numpy as np

from . import rng as rngmod
from .graph import Graph, tree_code

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


def enumerate_rooted_binary(t: int) -> Iterator[RootedBinaryTree]:
    """All catalan(t) rooted binary shapes on t nodes, t <= 16, in rank
    order."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration refused for t={t} > {_ENUMERATION_CAP}; sample instead"
        )
    return (_unrank_shape(t, r) for r in range(catalan(t)))


@lru_cache(maxsize=None)
def _split_table(t: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Row s, for each size s <= t: the cumulative counts of the shapes on
    s nodes whose left subtree has at most 0, 1, ..., s - 1 nodes, and
    catalan(s - 1 - i), the right subtree's shape count, for each i."""
    return tuple(
        (tuple(accumulate(catalan(i) * catalan(s - 1 - i) for i in range(s))),
         tuple(catalan(s - 1 - i) for i in range(s)))
        for s in range(t + 1)
    )


def _unrank_shape(t: int, r: int) -> Optional[RootedBinaryTree]:
    if t == 0:
        return None
    bounds, rights = _split_table(t)[t]
    i = bisect_right(bounds, r)
    if i:
        r -= bounds[i - 1]
    left, right = divmod(r, rights[i])
    return RootedBinaryTree(_unrank_shape(i, left), _unrank_shape(t - 1 - i, right))


def _unrank_tree(t: int, r: int) -> Graph:
    """The unrooted tree of the shape of rank r on t nodes, built without
    the shape: the nodes are numbered in preorder, left subtree first, so
    the subtree of a node k with i nodes on its left holds k's left child
    at k + 1 and its right child at k + 1 + i.  Each node's neighbours are
    its parent, its left and its right child, which is their sorted
    order."""
    table = _split_table(t)
    adj: list[list[int]] = [[] for _ in range(t)]
    stack = [(0, t, r)]  # (node, subtree size, subtree rank)
    while stack:
        k, size, rank = stack.pop()
        bounds, rights = table[size]
        i = bisect_right(bounds, rank)
        if i:
            rank -= bounds[i - 1]
        left, right = divmod(rank, rights[i])
        if i:
            adj[k].append(k + 1)
            adj[k + 1].append(k)
            stack.append((k + 1, i, left))
        if i < size - 1:
            adj[k].append(k + 1 + i)
            adj[k + 1 + i].append(k)
            stack.append((k + 1 + i, size - 1 - i, right))
    # the edge from c to its parent adj[c][0] < c has rank in
    # [C(c, 2), C(c + 1, 2)), so the ranks increase with c
    ranks = np.array(
        [c * (c - 1) // 2 + adj[c][0] for c in range(1, t)], dtype=np.int64
    )
    return Graph.from_parts(t, ranks, tuple(map(tuple, adj)))


def ahu_code(g: Graph) -> bytes:
    """Canonical code of an unrooted tree: its `tree_code`."""
    if g.n == 0:
        raise ValueError("empty graph is not a tree")
    if g.edge_count != g.n - 1:
        raise ValueError("input is not a tree (wrong edge count)")
    return tree_code(g.adj)


@lru_cache(maxsize=None)
def _coded_maxdeg3_trees(t: int) -> tuple[tuple[Graph, bytes], ...]:
    """The max-degree-3 trees on 1 <= t <= 16 vertices with their codes,
    enumerated once per t, each checked before a Graph is built for it;
    their rank arrays are read-only, since every caller shares them."""
    if t == 1:
        trees = [Graph.from_edges(1, [])]
    else:
        trees = [
            Graph.from_edges(t, tree.edges())
            for tree in nx.nonisomorphic_trees(t)
            if max(d for _, d in tree.degree()) <= 3
        ]
    for g in trees:
        g.ranks.setflags(write=False)
    return tuple((g, ahu_code(g)) for g in trees)


def iter_distinct_maxdeg3_trees(
    t: int, rng: Optional[np.random.Generator]
) -> Iterator[tuple[Graph, bytes]]:
    """Stream of pairwise non-isomorphic max-degree-3 trees on t vertices,
    each with its `ahu_code`.

    Small t yields the exhaustive list; larger t samples uniform rooted
    binary shapes deduplicated by canonical code, giving up once a patience
    budget passes with no new shape, so the stream always terminates.  Only
    t > 16 samples, and so needs rng.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t <= _EXHAUSTIVE_TREE_CAP:
        yield from _coded_maxdeg3_trees(t)
        return
    if rng is None:
        raise ValueError("sampling path needs an rng")
    seen: set[bytes] = set()
    misses = 0
    for rank in rngmod.bigints_below(rng, catalan(t)):
        g = _unrank_tree(t, rank)
        code = ahu_code(g)
        if code in seen:
            misses += 1
            if misses > max(10_000, 60 * len(seen)):
                return
            continue
        seen.add(code)
        misses = 0
        yield g, code


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


def forest_code(f: LinearForest) -> bytes:
    """Code of a linear forest: its sorted length multiset."""
    return b"F:" + ",".join(str(x) for x in f.path_lengths).encode("ascii")
