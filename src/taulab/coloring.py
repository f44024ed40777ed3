"""Edge colourings whose colour classes are pairwise non-isomorphic.

A colouring here is a partition of the host's edge set; isolated vertices
never matter, so each class is a sorted int64 array of the pair ranks its
edges have in the host (see `taulab.graph`).  Three builders produce the
classes for the three random-graph regimes (embedded trees, linear forests
packed into long paths, unions of small path components), each followed by a
single leftover class absorbing everything unused: each used rank is found
in the host's by binary search, and the leftover is what remains.
Constructing a `Coloring` checks with one sort that the classes cover the
host disjointly.  `verify_distinct` then certifies pairwise non-isomorphism
from scratch: classes of different edge counts are trivially
non-isomorphic, and classes of equal size are compared by the multiset of
their components' codes.  `class_signatures` computes those for a whole
batch of classes in one labelling pass.  A path is coded by its order
alone, as in the census; every other component goes through
`connected_code` on its own neighbour lists, which gives a tree of any size
its AHU string and anything else its exact certificate (small ones only).
That certificate is the least adjacency bitstring over the leaves of an
individualisation-refinement search, which branches on one vertex per twin
class of a cell (u and v are twins when N(u) - {v} == N(v) - {u}).  Swapping
twins is an automorphism, so a skipped twin's subtree holds the same
bitstrings and the bytes are those of the full search.  A complete
multipartite graph is searched only across its parts of equal size.
`class_signatures` is the only routine that signs an edge set:
`class_signature` signs one class given as (u, v) pairs through it, and
`canonical_form` is a graph's class signature plus one K1 per isolated
vertex.

`tau_exact` answers the inverse question for tiny graphs (8 edges by
default, 12 at most) by signing every edge subset in one batch and then
exhausting set partitions of the edge set, and `tau_matching` gives the
closed form for a perfect obstruction-free case, a matching of m edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Optional, Sequence

import numpy as np

from .bounds import ell, theta_verysparse
# ahu_code and components are unused here; they stay importable as
# coloring.ahu_code and coloring.components for perfbench/run.py's tracer
from .catalog import LinearForest, ahu_code, partitions, tree_code  # noqa: F401
from .embed import EmbedResult
from .graph import components  # noqa: F401
from .graph import (
    ComponentCensus,
    Graph,
    _checked_ranks,
    _component_labels,
    _component_shapes,
    _grouped,
    _unrank_pairs,
    edge_tuples,
    pair_ranks,
    parse_count,
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
    leaf budget.

    A cell is branched on once per twin class: v is skipped when an earlier
    vertex u of the cell has N(u) - {v} == N(v) - {u}.  Swapping such twins
    is an automorphism that fixes every individualised vertex (each sits in
    a singleton cell), and refinement does not look at labels, so it maps
    v's subtree onto u's leaf for leaf with equal bitstrings: the minimum,
    and every certificate byte, is what the full search gives."""
    best: Optional[int] = None
    leaves = 0

    adj_sets = [set(a) for a in adj]
    # being twins is an equivalence relation; twin[v] is the least of v's class
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

    stack = [(0,) * n]  # colourings still to refine, walked depth first
    while stack:
        colors = _refine(n, adj, stack.pop())
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if split is None:
            leaves += 1
            if leaves > _LEAF_LIMIT:
                raise CanonicalizationError("graph too symmetric to canonicalise")
            bits = encode(colors)
            if best is None or bits < best:
                best = bits
            continue
        branched = set()  # twin classes of the cell already branched on
        for v in split:
            if twin[v] not in branched:
                branched.add(twin[v])
                child = list(colors)
                child[v] = n
                stack.append(tuple(child))
    assert best is not None
    return best


def connected_code(adj: Sequence[Sequence[int]], max_vertices: int) -> bytes:
    """Code of the connected graph on 0..n-1 with these neighbour lists:
    equal codes exactly when isomorphic.  A tree of any size gets its AHU
    string (starting with "(" or "["), anything else its exact certificate
    (starting with "K", "C" or "B"), which needs n <= max_vertices."""
    n = len(adj)
    if sum(map(len, adj)) == 2 * (n - 1):
        return tree_code(adj)
    if n > max_vertices:
        raise CanonicalizationError(
            f"component has {n} vertices, canonical form capped at {max_vertices}"
        )
    degrees = sorted(map(len, adj))
    # two shapes common enough to special-case: complete graphs and cycles
    if degrees[0] == n - 1:
        return b"K%d" % n
    if degrees[0] == 2 and degrees[-1] == 2:
        return b"C%d" % n
    return b"B%d:%x" % (n, _canonical_bits(n, adj))


def canonical_form(g: Graph, max_vertices: int = 10) -> bytes:
    """Canonical certificate of a graph: equal bytes iff isomorphic.  The
    `class_signature` of its edges, with one K1 per isolated vertex so that
    graphs on the same vertex count compare exactly, sorted inside G{...}.
    Tree components of any size get their AHU string; every other
    component must have at most max_vertices vertices."""
    us, vs = _unrank_pairs(g.ranks)
    isolated = [b"K1"] * (g.n - len(np.union1d(us, vs)))
    certs = sorted((*class_signature(g.edges, max_vertices), *isolated))
    return b"G{" + b"|".join(certs) + b"}"


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
        ranks = _joined(self.classes)
        ranks.sort(kind="stable")  # merges the classes' sorted runs
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
    """Read the format written by write_coloring.  Counts are read by
    `parse_count` and edge lines by `parse_edge_line`; all the file's
    edges are then checked and ranked once, together, by the routine behind
    `Graph.from_edges`, and the classes and the host share those ranks."""
    with open(path, "r", encoding="ascii") as fh:

        def line() -> str:
            return fh.readline().rstrip("\n")

        magic = line()
        if magic != _COLORING_MAGIC:
            raise ValueError(f"unsupported colouring header: {magic!r}")
        header = line().split()
        if len(header) != 2:
            raise ValueError("expected '<n> <classes>' on line 2")
        n = parse_count(header[0], "vertex count", 2)
        num = parse_count(header[1], "class count", 2)
        lineno = 2  # lines read so far
        edges: list[Edge] = []
        ends: list[int] = []
        labels: list[str] = []
        for _ in range(num):
            tag = line()
            if not tag.startswith("label "):
                raise ValueError(
                    f"line {lineno + 1}: expected a label line, got {tag!r}"
                )
            labels.append(tag[len("label "):])
            count = parse_count(line(), "edge count", lineno + 2)
            edges.extend(parse_edge_line(line()) for _ in range(count))
            ends.append(len(edges))
            lineno += 2 + count
        if fh.readline() != "":
            raise ValueError("trailing data after colouring")
    ranks = _checked_ranks(n, edges)
    return Coloring(
        host=Graph(n, np.sort(ranks)),
        classes=tuple(np.sort(cls) for cls in np.split(ranks, ends)[:-1]),
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# distinctness


@lru_cache(maxsize=None)
def _path_code(order: int) -> bytes:
    """`tree_code` of the path on order >= 1 vertices."""
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < order] for i in range(order)]
    return tree_code(adj)


def class_signatures(
    classes: Sequence[np.ndarray], n: int, max_vertices: int = 10
) -> list:
    """Signature of every class, a rank array on vertices below n: the
    sorted codes of its components, so equal signatures mean isomorphic
    classes.  One labelling pass covers them all, with vertex v of class c
    keyed c * n + v.  Paths are coded by their order alone, every other
    component by `connected_code`; a class with a component that cannot be
    coded gets the CanonicalizationError of the first, by smallest vertex,
    instead."""
    if not classes:
        return []
    tags = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    us, vs = _unrank_pairs(_joined(classes))
    both = np.concatenate((tags * n + us, tags * n + vs))
    keys, ends = np.unique(both, return_inverse=True)
    edges = ends.reshape(2, -1).T  # each edge's two endpoints, as key indices
    labels = _component_labels(len(keys), edges[:, 0], edges[:, 1])
    roots = np.flatnonzero(labels == np.arange(len(keys)))
    order, path = _component_shapes(labels, edges, roots)
    owner = keys[roots] // n  # class of each component
    codes: list[list[bytes]] = [[] for _ in classes]
    for c, size in zip(owner[path].tolist(), order[path].tolist()):
        codes[c].append(_path_code(size))
    failed: dict[int, CanonicalizationError] = {}
    others = _grouped(edges, labels, roots[~path])
    for c, comp in zip(owner[~path].tolist(), others):
        if c not in failed:
            try:
                codes[c].append(connected_code(comp.local_adj(), max_vertices))
            except CanonicalizationError as exc:
                failed[c] = exc
    return [failed.get(c) or tuple(sorted(cs)) for c, cs in enumerate(codes)]


def class_signature(edges: Sequence[Edge], max_vertices: int = 10) -> tuple:
    """`class_signatures` of the one class with these (u, v) edges,
    0 <= u < v: the sorted `connected_code` of its components.  Raises the
    class's CanonicalizationError if a component cannot be coded."""
    n = 1 + max((v for _, v in edges), default=0)
    (sig,) = class_signatures([pair_ranks(edges)], n, max_vertices)
    if isinstance(sig, CanonicalizationError):
        raise sig
    return sig


def verify_distinct(
    coloring: Coloring, max_vertices: int = 10
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Certify that all colour classes are pairwise non-isomorphic.

    Returns (True, None), or (False, (i, j)) naming the first two classes
    found isomorphic.  Every class that shares its edge count with another
    is signed, all in one `class_signatures` call, and the classes are then
    walked by ascending edge count and index; reaching one with a component
    that is neither a tree nor of at most max_vertices vertices raises
    VerifyError.
    """
    classes = coloring.classes
    by_count: dict[int, list[int]] = {}
    for i, cls in enumerate(classes):
        by_count.setdefault(len(cls), []).append(i)
    signed = [i for c in sorted(by_count) if len(by_count[c]) > 1 for i in by_count[c]]
    sigs = class_signatures([classes[i] for i in signed], coloring.host.n, max_vertices)
    seen: dict[tuple, int] = {}  # classes of different sizes never match
    for i, sig in zip(signed, sigs):
        if isinstance(sig, CanonicalizationError):
            raise VerifyError(
                f"class {i} ({len(classes[i])} edges) cannot be verified: {sig}"
            ) from sig
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
    ranks = host.ranks
    used = _joined(classes)
    at = np.searchsorted(ranks, used)  # where each used rank sits in host
    placed = bool((at < len(ranks)).all()) and np.array_equal(ranks[at], used)
    if placed:
        leftover = np.delete(ranks, at)
        placed = len(leftover) == len(ranks) - len(used)  # else one repeats
    if not placed:  # some rank repeats or is missing, so this raises
        _check_edges(
            np.sort(used),
            host,
            f"{what} edge {{}} used twice",
            f"{what} edge {{}} missing from host graph",
        )
    if not len(leftover):
        return
    same = [cls for cls in classes if len(cls) == len(leftover)]
    left, *sigs = class_signatures([leftover, *same], host.n) if same else [None]
    for sig in sigs:  # same-size classes in index order, up to the first match
        bad = next((s for s in (sig, left) if isinstance(s, Exception)), None)
        if bad is not None:
            raise VerifyError(
                "leftover class matches an existing class in size "
                "but neither can be canonicalised"
            ) from bad
        if sig == left:
            break
    else:
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
    flat = chain.from_iterable(e for pl in packed.placements for e in pl.edges)
    ranks = pair_ranks(np.fromiter(flat, dtype=np.int64).reshape(-1, 2))
    ends = np.cumsum([len(pl.edges) for pl in packed.placements], dtype=np.int64)
    classes = [np.sort(cls) for cls in np.split(ranks, ends)[:-1]]
    labels = ["forest:" + ",".join(map(str, pl.lengths)) for pl in packed.placements]
    _append_leftover(g, classes, labels, "placed")
    return Coloring(host=g, classes=tuple(classes), labels=tuple(labels))


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
    union of small path components, plus the leftover class.  A class takes
    the next unused rows of tally.paths (tally is the census of g), whose
    rows are the edge ranks of one path each, and sorts their ranks."""
    xi, observed, _ = verysparse_box(g, tally, k, safety=safety, p=p, xi=xi)
    if all(x == 0 for x in xi):
        raise RuntimeError(
            "census too small: no census vector is realisable "
            f"(observed path counts {observed})"
        )
    L = ell(k)
    no_paths = np.empty((0, 1), dtype=np.int64)
    pools = [tally.paths.get(order, no_paths) for order in range(2, L + 1)]
    cursors = [0] * (L - 1)
    classes: list[np.ndarray] = []
    labels: list[str] = []
    for counts in product(*(range(x + 1) for x in xi)):
        if all(c == 0 for c in counts):
            continue
        takes = []
        for i, c in enumerate(counts):
            take = pools[i][cursors[i] : cursors[i] + c]
            assert len(take) == c, "supply clamp failed"
            cursors[i] += c
            takes.append(take.ravel())
        classes.append(np.sort(_joined(takes)))
        labels.append("vector:" + ",".join(map(str, counts)))
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
    of g's edge set, by exhaustive search over set partitions.  Every edge
    subset is signed before the search starts, all 2^m of them in one
    `class_signatures` call.  max_edges above 12 is refused: the search
    would not finish, and the batch holds 2^m rank arrays at once."""
    if max_edges > 12:
        raise ValueError(f"tau_exact is limited to max_edges <= 12, got {max_edges}")
    m = g.edge_count
    if m > max_edges:
        raise ValueError(f"tau_exact is limited to {max_edges} edges, got {m}")
    if m == 0:
        return 0
    # row mask of `member` holds the edges of subset mask; mask 0 is never a part
    member = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    subsets = np.split(
        np.broadcast_to(g.ranks, member.shape)[member],
        np.cumsum(member.sum(axis=1))[:-1],
    )
    sigs = class_signatures(subsets, g.n, max_vertices=2 * max_edges)
    failed = next((s for s in sigs if isinstance(s, CanonicalizationError)), None)
    if failed is not None:
        raise failed
    best = 0

    def rec(i: int, parts: list[int]) -> None:
        nonlocal best
        if len(parts) + (m - i) <= best:
            return
        if i == m:
            if len({sigs[mask] for mask in parts}) == len(parts):
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
    del rec  # rec refers to itself; dropping the name frees it without the GC
    return best
