"""Edge colourings whose colour classes are pairwise non-isomorphic.

A colouring here is a partition of the host's edge set; isolated vertices
never matter, so each class is a sorted int64 array of the pair ranks its
edges have in the host (see `taulab.graph`).  Three builders produce the
classes for the three random-graph regimes (embedded trees, linear forests
packed into long paths, unions of small path components).  The last two take
the host's edge density p, which caps the path harvest at floor(n p) paths
(of floor(c_path n) edges each) and scales the very sparse box by theta(n, p).
One step adds the leftover class of the host edges that no class takes
(each class rank is found in the host's by binary search); a leftover
isomorphic to a class of its size is merged into the largest class, which
then outsizes every other.  That step checks nothing itself.  Constructing
a `Coloring` checks with one sort that the classes cover the host
disjointly, naming a repeated or stray edge, and `verify_distinct`
certifies pairwise non-isomorphism from scratch: classes of different edge
counts are trivially non-isomorphic, and classes of equal size are compared
by their `graph.class_signatures`, the sorted codes of their components,
computed for a whole batch of classes in one labelling pass.  `class_signature`
signs one class given as (u, v) pairs through it, and `canonical_form` is
a graph's class signature plus one K1 per isolated vertex.  Each of them
certifies a non-tree component only up to `graph._CERT_CAP` vertices.

`tau_exact` answers the inverse question for tiny graphs (8 edges by
default, 12 at most) by branch and bound over whole classes, and
`tau_matching` gives the trivial floor on tau of any m-edge graph (classes
of distinct sizes), which a matching of m edges attains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Optional, Sequence

import numpy as np

from .bounds import C_PATH, GRAPHS_WITH_EDGES, ell, most_classes, theta_verysparse
# ahu_code and components are unused here; they stay importable as
# coloring.ahu_code and coloring.components for perfbench/run.py's tracer
from .catalog import ahu_code  # noqa: F401
from .catalog import LinearForest, partitions
from .embed import EmbedResult
from .graph import components  # noqa: F401
from .graph import (
    CanonicalizationError,
    ComponentCensus,
    Graph,
    _checked_ranks,
    _unrank_pairs,
    class_signatures,
    edge_tuples,
    pair_ranks,
    parse_count,
    parse_edge_line,
)
from .pathpack import _forest_classes, dfs_path_pack, pack_forests

Edge = tuple[int, int]


class VerifyError(RuntimeError):
    """Raised when a colouring cannot be certified: a class with a
    component that is neither a tree nor small enough to canonicalise."""


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
            twice = ranks[1:][ranks[1:] == ranks[:-1]]
            if len(twice):
                edge = edge_tuples(twice[:1])[0]
                raise ValueError(f"edge {edge} appears in two classes")
            missing = np.setdiff1d(ranks, self.host.ranks, assume_unique=True)
            if len(missing):
                edge = edge_tuples(missing[:1])[0]
                raise ValueError(f"edge {edge} not in host graph")
            raise ValueError("classes do not cover the host edge set")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _joined(classes: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate((np.empty(0, np.int64), *classes))


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


def class_signature(edges: Sequence[Edge]) -> tuple:
    """`class_signatures` of the one class with these (u, v) edges,
    0 <= u < v: the sorted codes of its components.  Raises the
    class's CanonicalizationError if a component cannot be coded."""
    (sig,) = class_signatures([pair_ranks(edges)])
    if isinstance(sig, CanonicalizationError):
        raise sig
    return sig


def canonical_form(g: Graph) -> bytes:
    """Canonical certificate of a graph: equal bytes iff isomorphic.  The
    `class_signature` of its edges, with one K1 per isolated vertex so that
    graphs on the same vertex count compare exactly, sorted inside G{...}.
    Tree components of any size get their AHU string; every other
    component must have at most `graph._CERT_CAP` vertices."""
    us, vs = map(np.ndarray.tolist, _unrank_pairs(g.ranks))
    isolated = [b"K1"] * (g.n - len({*us, *vs}))
    certs = sorted((*class_signature(list(zip(us, vs))), *isolated))
    return b"G{" + b"|".join(certs) + b"}"


def verify_distinct(coloring: Coloring) -> tuple[bool, Optional[tuple[int, int]]]:
    """Certify that all colour classes are pairwise non-isomorphic.

    Returns (True, None), or (False, (i, j)) naming the first two classes
    found isomorphic.  Every class that shares its edge count with another
    is signed, all in one `class_signatures` call, and the classes are then
    walked by ascending edge count and index; reaching one with a component
    that is neither a tree nor of at most `graph._CERT_CAP` vertices
    raises VerifyError.
    """
    classes = coloring.classes
    by_count: dict[int, list[int]] = {}
    for i, cls in enumerate(classes):
        by_count.setdefault(len(cls), []).append(i)
    signed = [i for c in sorted(by_count) if len(by_count[c]) > 1 for i in by_count[c]]
    sigs = class_signatures([classes[i] for i in signed])
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


def _with_leftover(
    host: Graph, classes: list[np.ndarray], labels: list[str]
) -> Coloring:
    """The colouring of host by the classes plus a leftover class of the host
    edges that no class takes.  A leftover isomorphic to a class of its size
    (only on tiny inputs) is merged into the largest class, which then
    outsizes the rest.  The `Coloring` checks that the classes cover the
    host disjointly, and `verify_distinct` that they are distinct."""
    ranks = host.ranks
    used = _joined(classes)
    at = np.searchsorted(ranks, used)  # where each used rank would sit in host
    inside = at < len(ranks)
    at = at[inside][ranks[at[inside]] == used[inside]]  # the ranks host has
    leftover = np.delete(ranks, at)
    if len(leftover):
        same = [cls for cls in classes if len(cls) == len(leftover)]
        left, *sigs = class_signatures([leftover, *same]) if same else [None]
        # a class that cannot be signed gets an exception, which equals nothing
        if any(sig == left for sig in sigs):
            big = max(range(len(classes)), key=lambda i: (len(classes[i]), -i))
            classes[big] = np.sort(_joined([classes[big], leftover]))
            labels[big] += "+leftover"
        else:
            classes.append(leftover)
            labels.append("leftover")
    return Coloring(host=host, classes=tuple(classes), labels=tuple(labels))


# ---------------------------------------------------------------------------
# regime builders


def _ranked_classes(parts: Sequence[Sequence[Edge]]) -> list[np.ndarray]:
    """The sorted pair ranks of each part's (u, v) edges, u < v, all ranked
    in one `pair_ranks` call and split."""
    flat = chain.from_iterable(chain.from_iterable(parts))
    ranks = pair_ranks(np.fromiter(flat, dtype=np.int64).reshape(-1, 2))
    ends = np.cumsum([len(part) for part in parts], dtype=np.int64)
    return [np.sort(cls) for cls in np.split(ranks, ends)[:-1]]


def build_dense_coloring(result: EmbedResult, host: Graph) -> Coloring:
    """Colour classes from embedded trees, one per tree, plus the leftover
    class.  A supply of distinct codes gives distinct classes; that, and
    that the host holds every embedded edge, is proven by `verify_distinct`
    and the `Coloring`, not here."""
    trees = result.embedded
    classes = _ranked_classes([tree.edges for tree in trees])
    labels = ["tree:" + tree.code.decode("ascii") for tree in trees]
    return _with_leftover(host, classes, labels)


def build_sparse_coloring(
    g: Graph, k: int, *, p: float, c_path: float = C_PATH
) -> Coloring:
    """Pack one linear forest per partition of k into long paths: at most
    max(1, floor(n * p)) harvested paths of max(1, floor(c_path * n)) edges
    each.  If the DFS finds no path the whole edge set becomes a single class.
    """
    target_len = max(1, math.floor(c_path * g.n))
    pack = dfs_path_pack(g, target_len, max(1, math.floor(g.n * p)))
    # lazy: pack_forests stops consuming at the first forest that fits
    # nowhere, and p(k) is far too large to materialise
    forests = (LinearForest(lengths) for lengths in partitions(k))
    packed = pack_forests(pack.paths, forests)
    classes = _forest_classes(pack.paths, packed.placements)
    labels = ["forest:" + ",".join(map(str, pl.lengths)) for pl in packed.placements]
    return _with_leftover(g, classes, labels)


_SAFETY = 0.5  # the share of each observed path count the box budgets


def verysparse_box(
    n: int, tally: ComponentCensus, k: int, p: float
) -> tuple[list[int], list[int]]:
    """Per-order class budgets for the very sparse regime.

    Reads the path components of each order 2..l off tally, the census of
    a host on n vertices with edge density p, scales each count by
    _SAFETY / theta, subtracts one, and clamps so that realising every
    vector in the resulting box cannot exceed the observed supply.  Returns
    (xi, observed) with xi[i] the budget for order i + 2.
    """
    L = ell(k)
    if L < 2:
        raise ValueError(f"k={k} needs no census (single path order)")
    theta = theta_verysparse(n, p, k)
    observed = [tally.path_counts.get(order, 0) for order in range(2, L + 1)]
    xi = [max(0, math.floor(_SAFETY * obs / theta) - 1) for obs in observed]
    while True:
        box = math.prod(x + 1 for x in xi)
        # realising the whole box needs x*(x+1)/2 * (box/(x+1)) paths
        bad = next((i for i, x in enumerate(xi)
                    if x and x * (x + 1) // 2 * (box // (x + 1)) > observed[i]), None)
        if bad is None:
            return xi, observed
        xi[bad] -= 1


def build_verysparse_coloring(
    g: Graph, tally: ComponentCensus, k: int, *, p: float
) -> Coloring:
    """One colour class per nonzero census vector in the clamped box, each a
    union of small path components, plus the leftover class.  A class takes
    the next unused rows of tally.paths (tally is the census of g), whose
    rows are the edge ranks of one path each, and sorts their ranks."""
    xi, observed = verysparse_box(g.n, tally, k, p)
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
            if len(take) != c:
                raise RuntimeError(
                    f"supply clamp failed: {c} paths on {i + 2} vertices wanted, "
                    f"{len(take)} left"
                )
            cursors[i] += c
            takes.append(take.ravel())
        classes.append(np.sort(_joined(takes)))
        labels.append("vector:" + ",".join(map(str, counts)))
    return _with_leftover(g, classes, labels)


# ---------------------------------------------------------------------------
# exact small tau


def tau_matching(m: int) -> int:
    """Largest t with t*(t+1)/2 <= m, a lower bound on tau of every graph
    with m edges: they split into classes of 1, 2, ..., t - 1 edges plus one
    of the rest (at least t), and classes of different sizes are never
    isomorphic.  A matching attains it, since its classes are matchings."""
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    return (math.isqrt(8 * m + 1) - 1) // 2


def tau_exact(g: Graph, max_edges: int = 8) -> int:
    """Maximum number of pairwise non-isomorphic parts over all partitions
    of g's edge set, by branch and bound over whole classes: the class of
    the lowest unassigned edge is each subset of the unassigned edges that
    holds it, smallest first, pruned unsigned when the classes so far, plus
    one, plus `most_classes` of the rest (types of each size less those
    taken) cannot beat the best.  A size is signed, all its subsets in one
    `class_signatures` call, when two classes of that size first meet, and
    its types become their distinct signatures.  max_edges above 12, where
    the table of types ends, is refused."""
    if max_edges > len(GRAPHS_WITH_EDGES):
        raise ValueError(f"tau_exact is limited to max_edges <= 12, got {max_edges}")
    m = g.edge_count
    if m > max_edges:
        raise ValueError(f"tau_exact is limited to {max_edges} edges, got {m}")
    free = list(GRAPHS_WITH_EDGES)  # free[s - 1]: classes of s edges still allowed
    chosen: list[list[int]] = [[] for _ in free]  # edge masks taken, by size
    sigs: dict[int, dict[int, tuple]] = {}  # signed sizes: mask -> signature
    best = 0

    def signed(s: int) -> dict[int, tuple]:
        if s not in sigs:
            idx = np.array(list(combinations(range(m), s)))
            got = class_signatures(list(g.ranks[idx]))
            failed = next((x for x in got if isinstance(x, CanonicalizationError)), None)
            if failed is not None:
                raise failed
            sigs[s] = dict(zip((1 << idx).sum(axis=1).tolist(), got))
            free[s - 1] -= GRAPHS_WITH_EDGES[s - 1] - len(set(got))
        return sigs[s]

    def search(rest: int, k: int) -> None:
        nonlocal best
        if not rest:
            best = k
            return
        low = rest & -rest
        others = [1 << b for b in range(m) if (rest ^ low) >> b & 1]
        for s in range(1, len(others) + 2):
            if free[s - 1] <= 0:
                continue
            free[s - 1] -= 1
            ceiling = k + 1 + most_classes(len(others) + 1 - s, free)
            for extra in combinations(others, s - 1):
                if ceiling <= best:
                    break
                cls = low + sum(extra)
                sig = signed(s) if chosen[s - 1] else {}
                if any(sig[c] == sig[cls] for c in chosen[s - 1]):
                    continue
                chosen[s - 1].append(cls)
                search(rest ^ cls, k + 1)
                chosen[s - 1].pop()
            free[s - 1] += 1

    search((1 << m) - 1, 0)
    del search  # search refers to itself; dropping the name frees it without the GC
    return best
