"""Edge colourings whose colour classes are pairwise non-isomorphic.

A colouring here is a partition of the host's edge set; isolated vertices
never matter, so each class is a sorted int64 array of the pair ranks its
edges have in the host (see `taulab.graph`).  Three builders produce the
classes for the three random-graph regimes (embedded trees, linear forests
packed into long paths, unions of small path components), each followed by a
single leftover class absorbing everything unused: one `np.setdiff1d` against
the host's ranks.  Constructing a `Coloring` checks with one sort that the
classes cover the host disjointly.  `verify_distinct` then certifies
pairwise non-isomorphism from scratch: classes of different edge counts are
trivially non-isomorphic, and classes of equal size are compared by the
multiset of their components' codes.  One rule, `connected_code`, codes
every component on plain neighbour lists, for census and `tau_exact` too: a
tree of any size gets its AHU string, any other component its exact
certificate, which needs a small component.

`tau_exact` answers the inverse question for tiny graphs (at most 8 edges)
by exhausting set partitions of the edge set, and `tau_matching` gives the
closed form for a perfect obstruction-free case, a matching of m edges.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .bounds import ell, theta_verysparse
# ahu_code is not called here since class_signature codes trees through
# tree_code, but it stays importable as coloring.ahu_code, where
# perfbench/run.py's tracer looks it up
from .catalog import LinearForest, ahu_code, partitions, tree_code  # noqa: F401
from .embed import EmbedResult
from .graph import (
    ComponentCensus,
    Graph,
    components,
    edge_tuples,
    pair_ranks,
    parse_edge_line,
)
from .pathpack import dfs_path_pack, pack_forests

Edge = tuple[int, int]


class CanonicalizationError(ValueError):
    """Raised when a graph is too large (or too symmetric) for the exact
    canonical form."""


class VerifyError(RuntimeError):
    """Raised when a colouring cannot be certified: a class with a
    component that is neither a tree nor small enough to canonicalise."""


# ---------------------------------------------------------------------------
# exact canonical form for small graphs


_LEAF_LIMIT = 200_000


def _refine(n: int, adj: Sequence[Sequence[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    # stable colour refinement: colour + sorted neighbour colours, renumbered
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = tuple(order[k] for k in keys)
        if new == colors:
            return colors
        colors = new


def _canonical_bits(n: int, adj: Sequence[Sequence[int]]) -> int:
    """Minimum adjacency bitstring over all discrete refinements reached by
    individualisation; exact but exponential in the worst case, hence the
    leaf budget."""
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
            if leaves > _LEAF_LIMIT:
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


def _connected_cert(adj: Sequence[Sequence[int]], cap: int) -> bytes:
    """Exact certificate of the connected graph on 0..n-1 with these
    neighbour lists, n <= cap."""
    n = len(adj)
    if n > cap:
        raise CanonicalizationError(
            f"component has {n} vertices, canonical form capped at {cap}"
        )
    degrees = sorted(map(len, adj))
    # two shapes common enough to special-case: complete graphs and cycles
    if degrees[0] == n - 1:
        return b"K%d" % n
    if n >= 3 and degrees[0] == 2 and degrees[-1] == 2:
        return b"C%d" % n
    bits = _canonical_bits(n, adj)
    return b"B%d:%x" % (n, bits)


def connected_code(adj: Sequence[Sequence[int]], max_vertices: int) -> bytes:
    """Code of the connected graph on 0..n-1 with these neighbour lists:
    equal codes exactly when isomorphic.  A tree of any size gets its AHU
    string (starting with "(" or "["), anything else its exact certificate
    (starting with "K", "C" or "B"), which needs n <= max_vertices."""
    if sum(map(len, adj)) == 2 * (len(adj) - 1):
        return tree_code(adj)
    return _connected_cert(adj, max_vertices)


def canonical_form(g: Graph, max_vertices: int = 10) -> bytes:
    """Canonical certificate for a small graph: equal bytes iff isomorphic.
    Isolated vertices contribute K1 certificates, so graphs on the same
    vertex count compare exactly.  Each connected component must have at
    most max_vertices vertices."""
    certs = [
        _connected_cert(comp.local_adj(), max_vertices) for comp in components(g)
    ]
    return b"G{" + b"|".join(sorted(certs)) + b"}"


# ---------------------------------------------------------------------------
# colourings


@dataclass(frozen=True, eq=False)
class Coloring:
    """A partition of the host's edges into labelled colour classes, each a
    sorted int64 array of host pair ranks."""

    host: Graph
    classes: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.classes) != len(self.labels):
            raise ValueError("one label per class required")
        if any(len(cls) == 0 for cls in self.classes):
            raise ValueError("empty colour class")
        ranks = np.sort(_joined(self.classes))
        if not np.array_equal(ranks, self.host.ranks):
            _check_edges(
                ranks,
                self.host,
                "edge {} appears in two classes",
                "edge {} not in host graph",
            )
            raise ValueError("classes do not cover the host edge set")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _joined(classes: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate((np.empty(0, np.int64), *classes))


def _check_edges(ranks: np.ndarray, host: Graph, repeated: str, stray: str) -> None:
    """Raise ValueError naming the first edge that the sorted ranks repeat,
    else the first that host lacks; the messages format the edge into {}."""
    twice = ranks[1:][ranks[1:] == ranks[:-1]]
    if len(twice):
        raise ValueError(repeated.format(edge_tuples(twice[:1])[0]))
    missing = np.setdiff1d(ranks, host.ranks, assume_unique=True)
    if len(missing):
        raise ValueError(stray.format(edge_tuples(missing[:1])[0]))


_COLORING_MAGIC = "coloring 1"


def write_coloring(coloring: Coloring, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_COLORING_MAGIC}\n")
        fh.write(f"{coloring.host.n} {coloring.num_classes}\n")
        for label, cls in zip(coloring.labels, coloring.classes):
            fh.write(f"label {label}\n{len(cls)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edge_tuples(cls))


def read_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _COLORING_MAGIC:
            raise ValueError(f"unsupported colouring header: {magic!r}")
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("expected '<n> <classes>' on line 2")
        n, num = int(header[0]), int(header[1])
        classes: list[list[Edge]] = []
        labels: list[str] = []
        for _ in range(num):
            tag = fh.readline().rstrip("\n")
            if not tag.startswith("label "):
                raise ValueError(f"expected a label line, got {tag!r}")
            labels.append(tag[len("label "):])
            count = int(fh.readline())
            classes.append(
                [parse_edge_line(fh.readline().rstrip("\n")) for _ in range(count)]
            )
        if fh.readline() != "":
            raise ValueError("trailing data after colouring")
    host = Graph.from_edges(n, [e for cls in classes for e in cls])
    return Coloring(
        host=host,
        classes=tuple(np.sort(pair_ranks(cls)) for cls in classes),
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# distinctness


def _class_components(edges: Sequence[Edge]) -> list[list[list[int]]]:
    """The connected components of an edge set, each as neighbour lists
    over its own vertices renumbered 0.. in order of discovery."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    index: dict[int, int] = {}  # vertex -> its number in its component
    out: list[list[list[int]]] = []
    for start in adj:
        if start in index:
            continue
        index[start] = 0
        order = [start]
        for x in order:  # breadth first; order grows while it is walked
            for y in adj[x]:
                if y not in index:
                    index[y] = len(order)
                    order.append(y)
        out.append([[index[y] for y in adj[x]] for x in order])
    return out


def class_signature(edges: Sequence[Edge], max_vertices: int = 10) -> tuple:
    """Isomorphism invariant of an edge set that is also complete: the
    sorted `connected_code` of its components, so equal signatures mean
    isomorphic classes.  Tree components of any size are coded exactly;
    every other component must have at most max_vertices vertices."""
    return tuple(
        sorted(connected_code(adj, max_vertices) for adj in _class_components(edges))
    )


def verify_distinct(
    coloring: Coloring, max_vertices: int = 10
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Certify that all colour classes are pairwise non-isomorphic.

    Returns (True, None), or (False, (i, j)) naming the first two classes
    found isomorphic.  Classes are grouped by edge count first, so
    signatures are only computed inside groups of equal size; a class in
    such a group with a component that is neither a tree nor of at most
    max_vertices vertices raises VerifyError.
    """
    by_count: dict[int, list[int]] = {}
    for i, cls in enumerate(coloring.classes):
        by_count.setdefault(len(cls), []).append(i)
    for count in sorted(by_count):
        group = by_count[count]
        if len(group) < 2:
            continue
        seen: dict[tuple, int] = {}
        for i in group:
            try:
                sig = class_signature(edge_tuples(coloring.classes[i]), max_vertices)
            except CanonicalizationError as exc:
                raise VerifyError(
                    f"class {i} ({count} edges) cannot be verified: {exc}"
                ) from exc
            if sig in seen:
                return False, (seen[sig], i)
            seen[sig] = i
    return True, None


def _append_leftover(
    host: Graph, classes: list[np.ndarray], labels: list[str], what: str
) -> None:
    """Check that the classes take distinct host edges, then add the leftover
    class, merging it into the largest existing class if it happens to be
    isomorphic to one (possible only on tiny inputs).  what names the class
    edges in error messages."""
    used = np.sort(_joined(classes))
    _check_edges(
        used,
        host,
        f"{what} edge {{}} used twice",
        f"{what} edge {{}} missing from host graph",
    )
    leftover = np.setdiff1d(host.ranks, used, assume_unique=True)
    if not len(leftover):
        return
    collide = None
    for i, cls in enumerate(classes):
        if len(cls) != len(leftover):
            continue
        try:
            if class_signature(edge_tuples(cls)) == class_signature(
                edge_tuples(leftover)
            ):
                collide = i
                break
        except CanonicalizationError as exc:
            raise VerifyError(
                "leftover class matches an existing class in size "
                "but neither can be canonicalised"
            ) from exc
    if collide is None:
        classes.append(leftover)
        labels.append("leftover")
        return
    big = max(range(len(classes)), key=lambda i: (len(classes[i]), -i))
    classes[big] = np.union1d(classes[big], leftover)
    labels[big] = labels[big] + "+leftover"
    # a merge can only happen on tiny inputs, so a full recheck is cheap
    probe = Coloring(host=host, classes=tuple(classes), labels=tuple(labels))
    ok, pair = verify_distinct(probe)
    if not ok:
        raise VerifyError(
            f"degenerate input: classes {pair} still isomorphic after merging "
            "the leftover"
        )


# ---------------------------------------------------------------------------
# regime builders


def build_dense_coloring(result: EmbedResult, host: Graph) -> Coloring:
    """Colour classes from embedded trees plus one leftover class.

    The embedded trees are pairwise non-isomorphic by construction (their
    codes are distinct); the host must contain every embedded edge.
    """
    classes: list[np.ndarray] = []
    labels: list[str] = []
    codes = set()
    for tree in result.embedded:
        if tree.code in codes:
            raise ValueError("embedded trees repeat a shape")
        codes.add(tree.code)
        classes.append(np.sort(pair_ranks(tree.edges)))
        labels.append(f"tree:{tree.code.text()}")
    _append_leftover(host, classes, labels, "embedded")
    return Coloring(host=host, classes=tuple(classes), labels=tuple(labels))


def build_sparse_coloring(
    g: Graph,
    k: int,
    *,
    c_path: float = 0.05,
    p: Optional[float] = None,
    target_len: Optional[int] = None,
    max_paths: Optional[int] = None,
) -> Coloring:
    """Pack one linear forest per partition of k into harvested long paths.

    target_len defaults to floor(c_path * n); max_paths to floor(n * p)
    when p is given, else to an estimate of the mean degree.  If the DFS
    finds no path at all the whole edge set becomes a single class.
    """
    if g.edge_count == 0:
        return Coloring(host=g, classes=(), labels=())
    if target_len is None:
        target_len = max(1, math.floor(c_path * g.n))
    if max_paths is None:
        if p is not None:
            max_paths = max(1, math.floor(g.n * p))
        else:
            max_paths = max(1, round(2 * g.edge_count / max(1, g.n - 1)))
    pack = dfs_path_pack(g, target_len, max_paths)
    if not pack.paths:
        return Coloring(host=g, classes=(g.ranks,), labels=("leftover",))
    # lazy: pack_forests stops consuming at the first forest that fits
    # nowhere, and p(k) is far too large to materialise
    forests = (LinearForest(lengths) for lengths in partitions(k))
    packed = pack_forests(pack.paths, forests)
    classes = [np.sort(pair_ranks(pl.edges)) for pl in packed.placements]
    labels = ["forest:" + ",".join(map(str, pl.lengths)) for pl in packed.placements]
    _append_leftover(g, classes, labels, "placed")
    return Coloring(host=g, classes=tuple(classes), labels=tuple(labels))


@dataclass(frozen=True)
class CensusVector:
    """How many path components of each order a class takes: counts[i] is
    the number of paths on (i + 2) vertices."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("empty census vector")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count in census vector")
        if all(c == 0 for c in self.counts):
            raise ValueError("all-zero census vector")

    def label(self) -> str:
        return "vector:" + ",".join(map(str, self.counts))


def verysparse_box(
    g: Graph,
    tally: ComponentCensus,
    k: int,
    *,
    safety: float = 0.5,
    p: Optional[float] = None,
    xi: Optional[Sequence[int]] = None,
) -> tuple[list[int], list[int], float]:
    """Per-order class budgets for the very sparse regime.

    Reads the path components of each order 2..l off tally, the census of
    g, scales each count by safety / theta, subtracts one, and clamps so
    that realising every vector in the resulting box cannot exceed the
    observed supply.  Returns (xi, observed, theta) with xi[i] the budget
    for order i + 2.

    An explicit xi skips the density estimate and is used as the starting
    box instead; the supply clamp still applies.
    """
    if not 0 < safety <= 1:
        raise ValueError("safety must be in (0, 1]")
    L = ell(k)
    if L < 2:
        raise ValueError(f"k={k} needs no census (single path order)")
    if p is None:
        if g.edge_count == 0:
            raise ValueError("cannot infer edge density from an empty graph")
        p = g.edge_count / (g.n * (g.n - 1) / 2)
    theta = theta_verysparse(g.n, p, k)
    observed = [tally.path_counts.get(order, 0) for order in range(2, L + 1)]
    if xi is not None:
        if len(xi) != L - 1 or any(x < 0 for x in xi):
            raise ValueError(
                f"explicit xi needs {L - 1} nonnegative entries (orders 2..{L})"
            )
        xi = list(xi)
    else:
        xi = [max(0, math.floor(safety * obs / theta) - 1) for obs in observed]
    while True:
        box = 1
        for x in xi:
            box *= x + 1
        bad = None
        for i, x in enumerate(xi):
            if x == 0:
                continue
            # realising the whole box needs x*(x+1)/2 * (box/(x+1)) paths
            need = x * (x + 1) // 2 * (box // (x + 1))
            if need > observed[i]:
                bad = i
                break
        if bad is None:
            return xi, observed, theta
        xi[bad] -= 1


def build_verysparse_coloring(
    g: Graph,
    tally: ComponentCensus,
    k: int,
    *,
    safety: float = 0.5,
    p: Optional[float] = None,
    xi: Optional[Sequence[int]] = None,
) -> Coloring:
    """One colour class per nonzero census vector in the clamped box, each a
    union of small path components taken from tally, the census of g, plus
    the leftover class."""
    xi, observed, _ = verysparse_box(g, tally, k, safety=safety, p=p, xi=xi)
    if all(x == 0 for x in xi):
        raise RuntimeError(
            "census too small: no census vector is realisable "
            f"(observed path counts {observed})"
        )
    L = ell(k)
    pools = [tally.paths.get(order, ()) for order in range(2, L + 1)]
    cursors = [0] * (L - 1)
    classes: list[np.ndarray] = []
    labels: list[str] = []
    for counts in product(*(range(x + 1) for x in xi)):
        if all(c == 0 for c in counts):
            continue
        vector = CensusVector(counts)
        edges: list[Edge] = []
        for i, c in enumerate(counts):
            take = pools[i][cursors[i] : cursors[i] + c]
            assert len(take) == c, "supply clamp failed"
            cursors[i] += c
            for comp in take:
                edges.extend(comp.edges)
        classes.append(np.sort(pair_ranks(edges)))
        labels.append(vector.label())
    _append_leftover(g, classes, labels, "census")
    return Coloring(host=g, classes=tuple(classes), labels=tuple(labels))


# ---------------------------------------------------------------------------
# exact small tau


def tau_matching(m: int) -> int:
    """Largest t with t*(t+1)/2 <= m: a matching of m edges splits into
    classes of 1, 2, ..., t disjoint edges."""
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    return (math.isqrt(8 * m + 1) - 1) // 2


def tau_exact(g: Graph, max_edges: int = 8) -> int:
    """Maximum number of pairwise non-isomorphic parts over all partitions
    of g's edge set, by exhaustive search over set partitions."""
    m = g.edge_count
    if m > max_edges:
        raise ValueError(f"tau_exact is limited to {max_edges} edges, got {m}")
    if m == 0:
        return 0
    edge_list = g.edges

    sig_memo: dict[int, tuple] = {}

    def subset_sig(mask: int) -> tuple:
        got = sig_memo.get(mask)
        if got is None:
            edges = [edge_list[i] for i in range(m) if mask >> i & 1]
            got = class_signature(edges, max_vertices=2 * max_edges)
            sig_memo[mask] = got
        return got

    # how many isomorphism types of each size exist among subsets of g:
    # a partition using more parts of one size than that is dead on arrival
    types_by_size = [0] * (m + 1)
    by_size: list[set] = [set() for _ in range(m + 1)]
    for mask in range(1, 1 << m):
        by_size[mask.bit_count()].add(subset_sig(mask))
    for s in range(1, m + 1):
        types_by_size[s] = len(by_size[s])

    best = 0

    def rec(i: int, parts: list[int]) -> None:
        nonlocal best
        if len(parts) + (m - i) <= best:
            return
        if i == m:
            sizes = Counter(mask.bit_count() for mask in parts)
            if any(c > types_by_size[s] for s, c in sizes.items()):
                return
            sigs = [subset_sig(mask) for mask in parts]
            if len(set(sigs)) == len(sigs):
                best = len(parts)
            return
        bit = 1 << i
        for j in range(len(parts)):
            parts[j] |= bit
            rec(i + 1, parts)
            parts[j] &= ~bit
        parts.append(bit)
        rec(i + 1, parts)
        parts.pop()
    rec(0, [])
    return best
