#!/usr/bin/env python3
"""Profile the exact canonicaliser on the shapes of the bench's `exact`
workload: every complete multipartite graph of 4 to 9 vertices with at least
two parts, each of at least 2 vertices, so that every vertex has a twin.
Each deck relabels every shape at random once and times its `canonical_form`,
and times `tau_exact` of one random graph per shape, with --tau-edges edges
(8 by default, 12 at most) on 5 to 9 vertices, or on as few more as hold
them.  Prints the median `canonical_form` milliseconds per part-size shape,
then the median `tau_exact` milliseconds over all decks and shapes, then
`trial_ms`: the median over the same inputs of the two summed, one
`canonical_form` and the `tau_exact` drawn with it, as the bench's `exact`
trial times them.

Runs from a checkout: python3 scripts/exact_profile.py --decks 5 --tau-edges 12
"""

import argparse
import itertools
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from taulab.catalog import partitions
from taulab.coloring import canonical_form, tau_exact
from taulab.graph import Graph


def shapes() -> list[tuple[int, ...]]:
    return [
        parts
        for nv in range(4, 10)
        for parts in partitions(nv)
        if len(parts) >= 2 and min(parts) >= 2
    ]


def multipartite(parts: tuple[int, ...], rng) -> Graph:
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    perm = rng.permutation(len(side)).tolist()
    pairs = itertools.combinations(range(len(side)), 2)
    return Graph.from_edges(
        len(side), [(perm[u], perm[v]) for u, v in pairs if side[u] != side[v]]
    )


def random_small(rng, edges: int) -> Graph:
    fewest = next(nv for nv in range(5, edges + 5) if nv * (nv - 1) // 2 >= edges)
    nv = int(rng.integers(fewest, max(fewest, 9) + 1))
    pairs = list(itertools.combinations(range(nv), 2))
    pick = rng.choice(len(pairs), size=edges, replace=False)
    return Graph.from_edges(nv, [pairs[i] for i in pick.tolist()])


def millis(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return 1e3 * (time.perf_counter() - t0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--decks", type=int, default=5, help="seeded decks 1..DECKS")
    ap.add_argument("--tau-edges", type=int, default=8, help="edges of each tau graph")
    args = ap.parse_args()
    if not 1 <= args.tau_edges <= 12:
        ap.error("--tau-edges must lie in 1..12")

    todo = shapes()
    canon: dict[tuple[int, ...], list[float]] = {parts: [] for parts in todo}
    tau: list[float] = []
    trial: list[float] = []
    for deck in range(1, args.decks + 1):
        rng = np.random.default_rng(deck)
        for parts in todo:
            canon[parts].append(millis(canonical_form, multipartite(parts, rng)))
            small = random_small(rng, args.tau_edges)
            tau.append(millis(lambda g: tau_exact(g, args.tau_edges), small))
            trial.append(canon[parts][-1] + tau[-1])

    print(f"{'shape':<10} {'n':>2} {'canonical_ms':>12}")
    for parts in todo:
        label = ",".join(map(str, parts))
        print(f"{label:<10} {sum(parts):>2} {statistics.median(canon[parts]):>12.3f}")
    print(f"tau_exact_ms {statistics.median(tau):.3f}")
    print(f"trial_ms {statistics.median(trial):.3f}")


if __name__ == "__main__":
    main()
