"""Greedy tree embedding into a lazily revealed random graph.

The host graph is G(n, p), but no pair is decided until the process asks:
``LazyRandomGraph.reveal(u, v)`` draws the pair's Bernoulli outcome from a
stateless hash of (seed, pair), so outcomes depend only on the seed and the
pair, never on the order or number of other reveals.  Each pair may be
revealed at most once.

The embedding walks a supply of trees.  A tree's vertices are taken in an
order where each prefix is connected, so every new vertex has exactly one
already-embedded neighbour; the image of that neighbour is the *active*
vertex.  The process reveals pairs at the active vertex against uniformly
random candidates (excluding already-revealed partners and the current
tree's image) until an edge appears, then moves on.  Trees in progress when
the step budget runs out, or when a candidate pool empties, are discarded.

Bookkeeping mirrors the analysis:

* rev(v)   -- pairs touching v revealed so far (both endpoints count);
* rev+(v)  -- those revealed while v was the active vertex;
* rev-(v)  -- those revealed while v was not active;
* activations -- times v was chosen as a root or embedded via a found edge.

So rev(v) = rev+(v) + rev-(v) for every v, and the rev totals over all
vertices add up to twice the step count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import rng as rngmod
from .catalog import CanonicalCode, ahu_code
from .graph import Graph, pair_rank

_REJECTION_TRIES = 40
_MATERIALIZE_BLOCK = 1 << 22

REPORT_VERSION = 1


class LazyRandomGraph:
    """G(n, p) with pair outcomes revealed on demand, at most once each."""

    def __init__(self, n: int, p: float, seed: int):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.n = n
        self.p = p
        self.seed = seed
        self._key = rngmod.derive_key(seed, 0)
        # the revealed pairs, stored at both ends
        self._partners: dict[int, set[int]] = {}

    def is_revealed(self, u: int, v: int) -> bool:
        return v in self._partners.get(u, ())

    def revealed_partners(self, v: int) -> set[int]:
        return self._partners.get(v, set())

    def reveal(self, u: int, v: int) -> bool:
        """Draw the pair's outcome; errors on self-pairs and repeats."""
        if u == v:
            raise ValueError("cannot reveal a self-pair")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range")
        a, b = (u, v) if u < v else (v, u)
        if self.is_revealed(a, b):
            raise ValueError(f"pair ({a}, {b}) already revealed")
        self._partners.setdefault(a, set()).add(b)
        self._partners.setdefault(b, set()).add(a)
        return rngmod.pair_uniform(self._key, pair_rank(a, b)) < self.p


def materialize(g: LazyRandomGraph) -> Graph:
    """Evaluate every pair of g's outcome function into a concrete Graph.

    Revealed pairs keep their outcomes because the same hash decides them.
    """
    npairs = g.n * (g.n - 1) // 2
    blocks = [np.empty(0, dtype=np.int64)]
    for start in range(0, npairs, _MATERIALIZE_BLOCK):
        stop = min(start + _MATERIALIZE_BLOCK, npairs)
        ranks = np.arange(start, stop, dtype=np.int64)
        blocks.append(ranks[rngmod.pair_uniform_array(g._key, ranks) < g.p])
    return Graph.from_ranks(g.n, np.concatenate(blocks))


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


def greedy_embed(
    g: LazyRandomGraph,
    trees: Iterable[Graph],
    step_budget: int,
    rng: np.random.Generator,
    record_log: bool = False,
) -> EmbedResult:
    """Embed trees from the supply until the budget, the supply, or a
    candidate pool runs out.  One step = one revealed pair."""
    if step_budget < 0:
        raise ValueError("step_budget must be nonnegative")
    n = g.n
    trace = EmbedTrace(
        steps=0,
        rev=[0] * n,
        rev_active=[0] * n,
        rev_inactive=[0] * n,
        activations=[0] * n,
        log=[] if record_log else None,
    )
    embedded: list[EmbeddedTree] = []
    status = "supply_exhausted"

    def pick_candidate(active: int, image: set[int]) -> Optional[int]:
        partners = g.revealed_partners(active)
        for _ in range(_REJECTION_TRIES):
            w = int(rng.integers(0, n))
            if w != active and w not in partners and w not in image:
                return w
        allowed = [
            w
            for w in range(n)
            if w != active and w not in partners and w not in image
        ]
        if not allowed:
            return None
        return allowed[int(rng.integers(0, len(allowed)))]

    halt = False
    for tree in trees:
        if halt:
            break
        if tree.n < 2:
            raise ValueError("trees must have at least 2 vertices")
        if max(len(a) for a in tree.adj) > 3:
            raise ValueError("trees must have maximum degree 3")
        order, parent = _connected_order(tree)
        start_step = trace.steps + 1
        root_image = int(rng.integers(0, n))
        image = {order[0]: root_image}
        image_set = {root_image}
        trace.activations[root_image] += 1
        tree_edges: list[tuple[int, int]] = []
        complete = True
        for v in order[1:]:
            active = image[parent[v]]
            found = False
            while not found:
                if trace.steps >= step_budget:
                    status = "budget_exhausted"
                    complete = False
                    halt = True
                    break
                w = pick_candidate(active, image_set)
                if w is None:
                    status = "failed"
                    trace.failed = True
                    trace.failure_step = trace.steps
                    complete = False
                    halt = True
                    break
                hit = g.reveal(active, w)
                trace.steps += 1
                trace.rev[active] += 1
                trace.rev[w] += 1
                trace.rev_active[active] += 1
                trace.rev_inactive[w] += 1
                if trace.log is not None:
                    trace.log.append((trace.steps, active, w, hit))
                if hit:
                    image[v] = w
                    image_set.add(w)
                    trace.activations[w] += 1
                    tree_edges.append((active, w) if active < w else (w, active))
                    found = True
            if not complete:
                break
        if complete:
            trace.spans.append((start_step, trace.steps))
            embedded.append(
                EmbeddedTree(
                    code=ahu_code(tree),
                    mapping=dict(image),
                    edges=tuple(tree_edges),
                )
            )
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
