"""Edge-disjoint long paths by depth-first search, and linear forests laid
out along them.

The path finder keeps the classic two-set invariant: U holds untouched
vertices, W holds vertices that dead-ended.  The current path is extended
from its last vertex to any unused neighbour still in U; when none exists
the endpoint moves to W and the path backtracks; when the path empties it
restarts from the lowest-index vertex of U.  A path is harvested the moment
its length reaches the target, its edges leave the residual graph, and the
sweep state is rebuilt from scratch.  There is no rollback: a sweep that
ends with U empty and no harvest proves no further path will be found.
Each vertex keeps its residual neighbours, sliced out of the graph's CSR
arrays on its first visit; a harvest deletes the path's edges from both
endpoints, so a sweep only asks whether a neighbour is still in U.

Forests, of any sizes, are then placed along the harvested paths, first fit
in path order: a sub-path of length x consumes x + 1 consecutive path
vertices, so a forest with lengths (x_1 >= ... >= x_l) occupies k + l
consecutive vertices and the next placement starts right after it.  Sub-paths
of one forest never share a vertex, so each class really is the disjoint
union its label promises.  A pack is only its paths, a pack result only its
placements, and a placement only its layout (path, offset, lengths).  The
classes are cut afterwards: the consecutive vertex pairs of all the paths are
ranked once, in one array, and a forest's class is one slice of it per
sub-path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .catalog import LinearForest
from .graph import Graph


@dataclass
class PathPack:
    """Harvested vertex-paths, each of the target_len edges asked for."""

    paths: list[tuple[int, ...]]


def _sweep(
    residual: list[Optional[array]],
    offsets: list[int],
    targets: array,
    target_len: int,
) -> Optional[tuple[list[int], list[int]]]:
    """One DFS sweep over the residual graph; returns a path of exactly
    target_len edges and the scan pointers (path[j + 1] is at index
    ptr[path[j]] - 1 of residual[path[j]]), or None if the sweep exhausts U
    without one."""
    n = len(residual)
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
        neighbours = residual[v]
        if neighbours is None:
            neighbours = residual[v] = targets[offsets[v]:offsets[v + 1]]
        i, end = ptr[v], len(neighbours)
        while i < end and not in_u[neighbours[i]]:
            i += 1
        if i == end:  # dead end: endpoint goes to W (never back to U)
            path.pop()
            continue
        w = neighbours[i]
        ptr[v] = i + 1
        in_u[w] = 0
        path.append(w)
        if len(path) > target_len:
            return path, ptr


def dfs_path_pack(g: Graph, target_len: int, max_paths: int) -> PathPack:
    """Harvest up to max_paths edge-disjoint paths of exactly target_len
    edges, rerunning the DFS sweep on the residual graph after each one."""
    if target_len < 1:
        raise ValueError("target_len must be at least 1")
    if max_paths < 0:
        raise ValueError("max_paths must be nonnegative")
    offsets, targets = g.csr
    # an array copies the CSR bytes as they are, with no Python int per arc
    bounds, targets = offsets.tolist(), array("q", targets.tobytes())
    residual: list[Optional[array]] = [None] * g.n
    paths: list[tuple[int, ...]] = []
    while len(paths) < max_paths:
        found = _sweep(residual, bounds, targets, target_len)
        if found is None:
            break
        path, ptr = found
        if len(set(path)) != len(path):
            raise RuntimeError("harvested path repeats a vertex")
        for a in path[:-1]:
            # forward deletions first: each leaves the other path vertices'
            # scan pointers valid, which a reverse removal could shift
            del residual[a][ptr[a] - 1]
        for a, b in zip(path, path[1:]):
            back = residual[b]
            if back is None:  # the path's last vertex is never scanned
                back = residual[b] = targets[bounds[b]:bounds[b + 1]]
            back.remove(a)  # raises if an earlier path took the edge
        paths.append(tuple(path))
    return PathPack(paths)


@dataclass(frozen=True)
class ForestPlacement:
    """One forest laid along one harvested path: its sub-paths, of the given
    lengths, take path vertices from offset on, one vertex apart."""

    path_index: int
    offset: int
    lengths: tuple[int, ...]


@dataclass
class PackResult:
    """The placed forests, in supply order."""

    placements: list[ForestPlacement]


def pack_forests(
    paths: Sequence[Sequence[int]], forests: Iterable[LinearForest]
) -> PackResult:
    """Lay forests of any sizes along the paths, each on the first path with
    room for its order, stopping at the first forest that fits nowhere
    (later forests untouched).  Only the layout is computed;
    `_forest_classes` cuts the edges."""
    cursors = [0] * len(paths)
    placements: list[ForestPlacement] = []
    for forest in forests:
        if not isinstance(forest, LinearForest):
            raise ValueError("forests must be LinearForest instances")
        order = forest.order
        target = next(
            (i for i, path in enumerate(paths) if len(path) - cursors[i] >= order), None
        )
        if target is None:
            break
        placements.append(ForestPlacement(target, cursors[target], forest.path_lengths))
        cursors[target] += order
    return PackResult(placements)


def _forest_classes(
    paths: Sequence[Sequence[int]], placements: Sequence[ForestPlacement]
) -> list[np.ndarray]:
    """The sorted pair ranks of each placed forest's edges.  The consecutive
    vertex pairs of all the paths, laid end to end, are ranked once, and a
    forest's class is one slice of those ranks per sub-path."""
    starts = np.cumsum([0, *map(len, paths)]).tolist()
    flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=starts[-1])
    lo, hi = np.minimum(flat[:-1], flat[1:]), np.maximum(flat[:-1], flat[1:])
    ranks = hi * (hi - 1) // 2 + lo  # pairs across two paths are never cut
    classes = []
    for pl in placements:
        pos, parts = starts[pl.path_index] + pl.offset, []
        for x in pl.lengths:
            parts.append(ranks[pos : pos + x])
            pos += x + 1
        classes.append(np.sort(np.concatenate(parts)))
    return classes
