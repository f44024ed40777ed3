"""Greedy tree embedding into a lazily revealed random graph.

The host graph is G(n, p), but no pair is revealed until the process asks:
``LazyRandomGraph.reveal(u, v)`` reads the pair's Bernoulli outcome, which
comes from a stateless hash of (seed, pair), so outcomes depend only on the
seed and the pair, never on the order or number of other reveals.  Each
pair may be revealed at most once.  The outcomes are hashed a block of 2^16
pair ranks at a time, the first time a pair in the block is asked for, into
a table of one byte per pair; `materialize` reads the blocks already hashed
from it and hashes only the rest.

The embedding walks a supply of trees, each handed over with its canonical
code.  A tree's vertices are taken in an order where each prefix is
connected, so every new vertex has exactly one already-embedded neighbour;
the image of that neighbour is the *active* vertex.  The process reveals
pairs at the active vertex against uniformly random candidates (excluding
already-revealed partners and the current tree's image) until an edge
appears, then moves on.  Trees in progress when the step budget runs out,
or when a candidate pool empties, are discarded.

Bookkeeping mirrors the analysis:

* rev(v)   -- pairs touching v revealed so far (both endpoints count);
* rev+(v)  -- those revealed while v was the active vertex;
* rev-(v)  -- those revealed while v was not active;
* activations -- times v was chosen as a root or embedded via a found edge.

So rev(v) = rev+(v) + rev-(v) for every v, and the rev totals over all
vertices add up to twice the step count.

Candidates are drawn a block at a time (``rng.integers(0, n, size=512)``
gives the same values as 512 scalar calls) and replayed exactly: before
the tree supply, the fallback pick or the caller next sees the generator,
it is rewound to the block's start and only the values used are drawn
again.  Seeded results and the generator's final state are therefore those
of one scalar draw per candidate.  The common step, an accepted first
candidate, runs inline in `greedy_embed`: it reads the candidate block and
the outcome table through locals and counts the active vertex's reveals
once per embedded edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import rng as rngmod
# ahu_code is not called here, since the supply hands each tree over with
# its code, but it stays importable as embed.ahu_code, where
# perfbench/run.py's tracer looks it up
from .catalog import CanonicalCode, ahu_code  # noqa: F401
from .graph import Graph

_REJECTION_TRIES = 40
_DRAW_BLOCK = 512  # a tree of order 34 takes about 310 candidate draws
_OUTCOME_BITS = 16  # blocks of 2^16 pairs: the hash temporaries stay in cache
_MAX_PAIRS = 1 << 30  # the outcome table takes one byte per pair

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
        self.seed = seed
        self._key = rngmod.derive_key(seed, 0)
        # the revealed pairs, stored at both ends
        self._partners: dict[int, set[int]] = {}
        # one bool (a byte) per pair rank, True for an edge, valid in the
        # blocks of 2^16 ranks marked hashed; calloc'd, so a block takes
        # memory only once it is hashed
        self._table = np.zeros(npairs, dtype=np.bool_)
        self._outcomes = memoryview(self._table)  # indexes to a Python bool
        self._hashed = bytearray(-(-npairs // (1 << _OUTCOME_BITS)))

    def _hash_block(self, b: int) -> None:
        """Hash the outcomes of block b into the table."""
        start = b << _OUTCOME_BITS
        stop = min(start + (1 << _OUTCOME_BITS), len(self._table))
        ranks = np.arange(start, stop, dtype=np.int64)
        self._table[start:stop] = rngmod.pair_uniform_array(self._key, ranks) < self.p
        self._hashed[b] = 1

    def is_revealed(self, u: int, v: int) -> bool:
        return v in self._partners.get(u, ())

    def reveal(self, u: int, v: int) -> bool:
        """The pair's outcome; errors on self-pairs and repeats."""
        if u == v:
            raise ValueError("cannot reveal a self-pair")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range")
        a, b = (u, v) if u < v else (v, u)
        partners = self._partners
        at_a = partners.get(a)
        if at_a is None:
            at_a = partners[a] = set()
        elif b in at_a:
            raise ValueError(f"pair ({a}, {b}) already revealed")
        at_b = partners.get(b)
        if at_b is None:
            at_b = partners[b] = set()
        at_a.add(b)
        at_b.add(a)
        rank = b * (b - 1) // 2 + a
        if not self._hashed[rank >> _OUTCOME_BITS]:
            self._hash_block(rank >> _OUTCOME_BITS)
        return self._outcomes[rank]


def materialize(g: LazyRandomGraph) -> Graph:
    """Every pair's outcome of g as a concrete Graph: the blocks reveals
    have hashed are read from g's table, the others are hashed now.

    Revealed pairs keep their outcomes because the same table decides them.
    """
    for b, hashed in enumerate(g._hashed):
        if not hashed:
            g._hash_block(b)
    return Graph.from_ranks(g.n, np.flatnonzero(g._table))


@dataclass
class EmbedTrace:
    """Per-vertex reveal and activation counters plus per-tree spans."""

    steps: int
    rev: list[int]
    rev_active: list[int]
    rev_inactive: list[int]
    activations: list[int]
    spans: list[tuple[int, int]] = field(default_factory=list)
    failed: bool = False
    failure_step: Optional[int] = None
    log: Optional[list[tuple[int, int, int, bool]]] = None


@dataclass(frozen=True)
class EmbeddedTree:
    code: CanonicalCode
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


class _CandidateDraws:
    """Candidate vertices ``int(rng.integers(0, n))``, drawn in blocks.

    numpy gives ``rng.integers(0, n, size=k)`` the same values as k scalar
    calls, so a block is read ahead and handed out one value at a time:
    ``block[taken]`` is the next candidate.  A caller that reads the block
    through locals writes taken back before it calls a method.  `settle`
    rewinds rng to the block's start and redraws only the values taken,
    which leaves rng exactly where the scalar calls would.  It must run
    before anything else draws from rng.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self._rng = rng
        self._n = n
        self.block: list[int] = []
        self.taken = 0
        self._start: Optional[dict] = None  # rng's state before the block

    def refill(self) -> list[int]:
        """Read the next block ahead, with none of it taken."""
        self._start = self._rng.bit_generator.state
        self.block = self._rng.integers(0, self._n, size=_DRAW_BLOCK).tolist()
        self.taken = 0
        return self.block

    def take(self) -> int:
        if self.taken == len(self.block):
            self.refill()
        self.taken += 1
        return self.block[self.taken - 1]

    def settle(self) -> None:
        if self.taken < len(self.block):
            self._rng.bit_generator.state = self._start
            self._rng.integers(0, self._n, size=self.taken)
        self.block = []
        self.taken = 0

    def pick_after_rejection(
        self, active: int, partners: set[int], image: set[int]
    ) -> Optional[int]:
        """The pick after a rejected first candidate: up to _REJECTION_TRIES
        draws in all, then a uniform choice among every allowed vertex."""
        for _ in range(_REJECTION_TRIES - 1):
            w = self.take()
            if w != active and w not in partners and w not in image:
                return w
        allowed = [
            w
            for w in range(self._n)
            if w != active and w not in partners and w not in image
        ]
        if not allowed:
            return None
        self.settle()
        return allowed[int(self._rng.integers(0, len(allowed)))]


def greedy_embed(
    g: LazyRandomGraph,
    trees: Iterable[tuple[Graph, CanonicalCode]],
    step_budget: int,
    rng: np.random.Generator,
    record_log: bool = False,
) -> EmbedResult:
    """Embed trees from the supply until the budget, the supply, or a
    candidate pool runs out.  One step = one revealed pair.

    The supply yields (tree, code) pairs, code being the tree's `ahu_code`,
    as `catalog.iter_distinct_maxdeg3_trees` does; the code is taken on
    trust.  Whenever the supply, the fallback pick or the caller (on return
    or on an exception) next sees rng, it is where one scalar
    ``rng.integers(0, n)`` per candidate would have left it, so the supply
    may draw from it too.
    """
    if step_budget < 0:
        raise ValueError("step_budget must be nonnegative")
    n = g.n
    rev, rev_active, rev_inactive = [0] * n, [0] * n, [0] * n
    activations = [0] * n
    log: Optional[list[tuple[int, int, int, bool]]] = [] if record_log else None
    trace = EmbedTrace(
        steps=0,
        rev=rev,
        rev_active=rev_active,
        rev_inactive=rev_inactive,
        activations=activations,
        log=log,
    )
    embedded: list[EmbeddedTree] = []
    status = "supply_exhausted"
    draws = _CandidateDraws(rng, n)
    block, i = draws.block, draws.taken  # the candidates, read through locals
    partners_of, outcomes, hashed = g._partners, g._outcomes, g._hashed
    steps = 0
    halt = False
    try:
        for tree, code in trees:
            if halt:
                break
            if tree.n < 2:
                raise ValueError("trees must have at least 2 vertices")
            if max(len(a) for a in tree.adj) > 3:
                raise ValueError("trees must have maximum degree 3")
            order, parent = _connected_order(tree)
            start_step = steps + 1
            try:
                root_image = block[i]
            except IndexError:
                block, i = draws.refill(), 0
                root_image = block[0]
            i += 1
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
                partners = partners_of.get(active)
                if partners is None:
                    partners = partners_of[active] = set()
                edge_start = steps
                while True:
                    try:
                        w = block[i]
                    except IndexError:
                        block, i = draws.refill(), 0
                        w = block[0]
                    i += 1
                    if w == active or w in partners or w in image_set:
                        draws.taken = i
                        try:
                            w = draws.pick_after_rejection(active, partners, image_set)
                        finally:
                            block, i = draws.block, draws.taken
                        if w is None:
                            status = "failed"
                            trace.failed = True
                            trace.failure_step = steps
                            halt = True
                            break
                    # reveal (active, w): the test above is reveal's own
                    # self-pair and repeat check, and both are in range
                    partners.add(w)
                    at_w = partners_of.get(w)
                    if at_w is None:
                        partners_of[w] = {active}
                    else:
                        at_w.add(active)
                    if active < w:
                        rank = w * (w - 1) // 2 + active
                    else:
                        rank = active * (active - 1) // 2 + w
                    if not hashed[rank >> _OUTCOME_BITS]:
                        g._hash_block(rank >> _OUTCOME_BITS)
                    hit = outcomes[rank]
                    steps += 1
                    rev[w] += 1
                    rev_inactive[w] += 1
                    if log is not None:
                        log.append((steps, active, w, hit))
                    if hit:
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
            draws.taken = i
            draws.settle()  # the supply may draw from rng too
            block, i = draws.block, draws.taken
    finally:
        draws.taken = i
        draws.settle()
    trace.steps = steps
    return EmbedResult(n=n, p=g.p, status=status, embedded=embedded, trace=trace)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Maxima of the trace counters against the analysis thresholds."""

    max_rev: int
    max_rev_active: int
    max_rev_inactive: int
    rev_limit: float
    rev_active_limit: float
    rev_ok: bool
    rev_active_ok: bool
    rev_inactive_ok: bool
    max_activations: int
    identity_ok: bool
    total_ok: bool


def diagnostics_check(trace: EmbedTrace, epsilon: float, n: int) -> DiagnosticsReport:
    """Compare the trace maxima with the rev <= 1000 eps n and
    rev+ <= 500 eps n thresholds and re-check the counter identities."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    max_rev = max(trace.rev, default=0)
    max_pos = max(trace.rev_active, default=0)
    max_neg = max(trace.rev_inactive, default=0)
    rev_limit = 1000.0 * epsilon * n
    half_limit = 500.0 * epsilon * n
    identity_ok = all(
        r == a + b
        for r, a, b in zip(trace.rev, trace.rev_active, trace.rev_inactive)
    )
    total_ok = sum(trace.rev) == 2 * trace.steps
    return DiagnosticsReport(
        max_rev=max_rev,
        max_rev_active=max_pos,
        max_rev_inactive=max_neg,
        rev_limit=rev_limit,
        rev_active_limit=half_limit,
        rev_ok=max_rev <= rev_limit,
        rev_active_ok=max_pos <= half_limit,
        rev_inactive_ok=max_neg <= half_limit,
        max_activations=max(trace.activations, default=0),
        identity_ok=identity_ok,
        total_ok=total_ok,
    )


def embed_report(result: EmbedResult) -> dict:
    """JSON-ready summary of an embedding run (versioned)."""
    trace = result.trace
    return {
        "version": REPORT_VERSION,
        "n": result.n,
        "p": result.p,
        "status": result.status,
        "steps": trace.steps,
        "embedded_count": len(result.embedded),
        "embedded": [
            {
                "code": t.code.text(),
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
            "failed": trace.failed,
            "failure_step": trace.failure_step,
        },
    }


def save_embed_report(result: EmbedResult, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(embed_report(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
