"""Greedy tree embedding into a lazily revealed random graph.

The host graph is G(n, p), but no pair is revealed until the process asks:
``LazyRandomGraph.reveal(u, v)`` reads the pair's Bernoulli outcome, which
comes from a stateless hash of (seed, pair), so outcomes depend only on the
seed and the pair, never on the order or number of other reveals.  Each
pair may be revealed at most once.  The graph keeps one byte per pair rank:
bit 0 is the pair's outcome and bit 1 is set once the pair is revealed, so
there are no per-vertex partner sets and no other table.  Since the order
of hashing decides nothing, every outcome is hashed when the graph is
built, by one `rng.pair_outcomes` call; `materialize` reads bit 0.

The embedding walks a supply of trees, each handed over with its canonical
code.  A tree's vertices are taken in an order where each prefix is
connected, so every new vertex has exactly one already-embedded neighbour;
the image of that neighbour is the *active* vertex.  The process reveals
pairs at the active vertex against uniformly random candidates (excluding
pairs already revealed and the current tree's image) until an edge
appears, then moves on.  Trees in progress when the step budget runs out,
or when a candidate pool empties, are discarded.

Bookkeeping mirrors the analysis:

* rev(v)   -- pairs touching v revealed so far (both endpoints count);
* rev+(v)  -- those revealed while v was the active vertex;
* rev-(v)  -- those revealed while v was not active;
* activations -- times v was chosen as a root or embedded via a found edge.

So rev(v) = rev+(v) + rev-(v) for every v, and the rev totals over all
vertices add up to twice the step count.

The picker's generator is read by the embedding alone, as one stream of
``rng.integers(0, n, size=512)`` blocks, which give the same values as
512 scalar calls; so seeded results are those of one scalar draw per
candidate.  Every candidate, roots and fallback picks included, is the
next item of one iterator over those blocks.  The common step, an accepted
first candidate, runs inline in `greedy_embed`: it ranks the candidate's
pair from a list of triangular numbers, tests the candidate against the
active vertex and the image, then reads the pair's byte once for the
reveal and outcome tests, and counts the active vertex's reveals
once per embedded edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from . import rng as rngmod
# ahu_code is not called here, since the supply hands each tree over with
# its code, but it stays importable as embed.ahu_code, where
# perfbench/run.py's tracer looks it up
from .catalog import ahu_code  # noqa: F401
from .graph import Graph, pair_rank

_REJECTION_TRIES = 40
_DRAW_BLOCK = 512  # a tree of order 34 takes about 310 candidate draws
_MAX_PAIRS = 1 << 30  # the pair table takes one byte per pair
_REVEALED = 2  # bit 1 of a pair's byte; bit 0 is its outcome

REPORT_VERSION = 1


class LazyRandomGraph:
    """G(n, p) with pair outcomes revealed on demand, at most once each."""

    def __init__(self, n: int, p: float, seed: int):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        npairs = n * (n - 1) // 2
        if npairs > _MAX_PAIRS:
            raise ValueError(
                f"n={n} has {npairs:,} vertex pairs, above the cap of "
                f"{_MAX_PAIRS:,} pairs that one byte of outcome each allows"
            )
        self.n = n
        self.p = p
        self._key = rngmod.derive_key(seed, 0)
        # one byte per pair rank: bit 0 the outcome, bit 1 revealed
        self._table = np.zeros(npairs, dtype=np.uint8)
        rngmod.pair_outcomes(self._key, p, self._table.view(np.bool_))
        self._cells = memoryview(self._table)  # indexes to a Python int

    def is_revealed(self, u: int, v: int) -> bool:
        """False for self-pairs and pairs out of range."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self._cells[pair_rank(min(u, v), max(u, v))] & _REVEALED)

    def reveal(self, u: int, v: int) -> bool:
        """The pair's outcome; errors on self-pairs and repeats."""
        if u == v:
            raise ValueError("cannot reveal a self-pair")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range")
        a, b = (u, v) if u < v else (v, u)
        rank = pair_rank(a, b)
        cell = self._cells[rank]
        if cell & _REVEALED:
            raise ValueError(f"pair ({a}, {b}) already revealed")
        self._cells[rank] = cell | _REVEALED
        return bool(cell & 1)


def materialize(g: LazyRandomGraph) -> Graph:
    """Every pair's outcome of g as a concrete Graph, read from bit 0 of g's
    table, so revealed pairs keep their outcomes."""
    # the outcome bits read as bools, where numpy's nonzero is fastest
    return Graph.from_ranks(g.n, np.flatnonzero((g._table & 1).view(np.bool_)))


@dataclass
class EmbedTrace:
    """Per-vertex reveal and activation counters plus per-tree spans."""

    steps: int
    rev: list[int]
    rev_active: list[int]
    rev_inactive: list[int]
    activations: list[int]
    spans: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class EmbeddedTree:
    code: bytes
    mapping: dict[int, int]
    edges: tuple[tuple[int, int], ...]


@dataclass
class EmbedResult:
    n: int
    p: float
    status: str
    embedded: list[EmbeddedTree]
    trace: EmbedTrace


def _connected_order(tree: Graph) -> tuple[list[int], list[int]]:
    """BFS order from vertex 0 and the parent of each vertex in it."""
    order = [0]
    parent = [-1] * tree.n
    seen = bytearray(tree.n)
    seen[0] = 1
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in tree.adj[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                order.append(w)
    if len(order) != tree.n:
        raise ValueError("supplied tree is not connected")
    return order, parent


def _pick_after_rejection(
    take: Callable[[], int], g: LazyRandomGraph, active: int, image: set[int]
) -> Optional[int]:
    """The pick after a rejected first candidate: the first allowed
    candidate, one whose pair with active is not revealed and which is not
    in image.  After _REJECTION_TRIES draws in all it returns None if no
    vertex is allowed, and otherwise draws on, which keeps the pick uniform
    over the allowed vertices."""
    def allowed(w: int) -> bool:
        return w != active and not g.is_revealed(active, w) and w not in image

    for _ in range(_REJECTION_TRIES - 1):
        w = take()
        if allowed(w):
            return w
    if not any(allowed(w) for w in range(g.n)):
        return None
    while not allowed(w := take()):
        pass
    return w


def greedy_embed(
    g: LazyRandomGraph,
    trees: Iterable[tuple[Graph, bytes]],
    step_budget: int,
    rng: np.random.Generator,
) -> EmbedResult:
    """Embed trees from the supply until the budget, the supply, or a
    candidate pool runs out.  One step = one revealed pair.

    The supply yields (tree, code) pairs, code being the tree's `ahu_code`,
    as `catalog.iter_distinct_maxdeg3_trees` does; the code is taken on
    trust.  rng is the embedding's own: it draws blocks of candidates ahead
    of use, so nothing else may draw from it.
    """
    if step_budget < 0:
        raise ValueError("step_budget must be nonnegative")
    n = g.n
    rev, rev_active, rev_inactive = [0] * n, [0] * n, [0] * n
    activations = [0] * n
    trace = EmbedTrace(
        steps=0,
        rev=rev,
        rev_active=rev_active,
        rev_inactive=rev_inactive,
        activations=activations,
    )
    embedded: list[EmbeddedTree] = []
    status = "supply_exhausted"
    # the next candidate, a root's or not, from the blocks in draw order
    take = chain.from_iterable(
        iter(lambda: rng.integers(0, n, size=_DRAW_BLOCK).tolist(), None)
    ).__next__
    cells = g._cells
    tri = [v * (v - 1) // 2 for v in range(n)]  # tri[v] + u ranks (u, v), u < v
    steps = 0
    halt = False
    for tree, code in trees:
        if halt:
            break
        if tree.n < 2:
            raise ValueError("trees must have at least 2 vertices")
        if max(len(a) for a in tree.adj) > 3:
            raise ValueError("trees must have maximum degree 3")
        order, parent = _connected_order(tree)
        start_step = steps + 1
        root_image = take()
        image = {order[0]: root_image}
        image_set = {root_image}
        activations[root_image] += 1
        tree_edges: list[tuple[int, int]] = []
        for v in order[1:]:
            if steps >= step_budget:
                status = "budget_exhausted"
                halt = True
                break
            active = image[parent[v]]
            edge_start = steps
            while True:
                w = take()
                rank = tri[w] + active if active < w else tri[active] + w
                if w == active or w in image_set or (cell := cells[rank]) & _REVEALED:
                    w = _pick_after_rejection(take, g, active, image_set)
                    if w is None:
                        status = "failed"
                        halt = True
                        break
                    rank = tri[w] + active if active < w else tri[active] + w
                    cell = cells[rank]
                # reveal (active, w): the tests above are reveal's own
                # self-pair and repeat checks, and both are in range
                cells[rank] = cell | _REVEALED
                steps += 1
                rev[w] += 1
                rev_inactive[w] += 1
                if cell & 1:
                    break
                if steps >= step_budget:
                    status = "budget_exhausted"
                    halt = True
                    break
            made = steps - edge_start  # reveals made while active was active
            rev[active] += made
            rev_active[active] += made
            if halt:
                break
            image[v] = w
            image_set.add(w)
            activations[w] += 1
            tree_edges.append((active, w) if active < w else (w, active))
        if not halt:
            # an entry with a cycle passes the checks above and is walked
            # along a spanning tree; it is refused here, after its draws
            if tree.edge_count != tree.n - 1:
                raise ValueError("input is not a tree (wrong edge count)")
            trace.spans.append((start_step, steps))
            embedded.append(
                EmbeddedTree(code=code, mapping=image, edges=tuple(tree_edges))
            )
    trace.steps = steps
    return EmbedResult(n=n, p=g.p, status=status, embedded=embedded, trace=trace)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Maxima of the trace counters beside the analysis thresholds."""

    max_rev: int
    max_rev_active: int
    rev_limit: float
    rev_active_limit: float
    total_ok: bool


def diagnostics_check(trace: EmbedTrace, epsilon: float, n: int) -> DiagnosticsReport:
    """The trace maxima beside the rev <= 1000 eps n and rev+ <= 500 eps n
    thresholds; total_ok re-checks the counter identities, rev = rev+ + rev-
    at every vertex and the rev totals at twice the step count."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    identity_ok = all(
        r == a + b
        for r, a, b in zip(trace.rev, trace.rev_active, trace.rev_inactive)
    )
    return DiagnosticsReport(
        max_rev=max(trace.rev, default=0),
        max_rev_active=max(trace.rev_active, default=0),
        rev_limit=1000.0 * epsilon * n,
        rev_active_limit=500.0 * epsilon * n,
        total_ok=identity_ok and sum(trace.rev) == 2 * trace.steps,
    )


def embed_report(result: EmbedResult) -> dict:
    """JSON-ready summary of an embedding run (versioned)."""
    trace = result.trace
    failed = result.status == "failed"  # a failed run halts at once
    return {
        "version": REPORT_VERSION,
        "n": result.n,
        "p": result.p,
        "status": result.status,
        "steps": trace.steps,
        "embedded_count": len(result.embedded),
        "embedded": [
            {
                "code": t.code.decode("ascii"),
                "mapping": sorted(t.mapping.items()),
                "edges": sorted(t.edges),
            }
            for t in result.embedded
        ],
        "trace": {
            "max_rev": max(trace.rev, default=0),
            "max_rev_active": max(trace.rev_active, default=0),
            "max_rev_inactive": max(trace.rev_inactive, default=0),
            "max_activations": max(trace.activations, default=0),
            "spans": list(trace.spans),
            "failed": failed,
            "failure_step": trace.steps if failed else None,
        },
    }


def save_embed_report(result: EmbedResult, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(embed_report(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
