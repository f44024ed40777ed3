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

Last comes the crossover table behind `graph._SMALL_BATCH`: the median
`class_signatures` microseconds on the numpy path and on the plain Python
path, for batches of 8 to 256 edges of two kinds: two-edge classes on 9
vertices, as `tau_exact` signs its two-edge level, and relabelled complete
multipartite classes of the shapes above, as many as fit.

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

from taulab import graph as graphmod
from taulab.catalog import partitions
from taulab.coloring import canonical_form, tau_exact
from taulab.graph import Graph, class_signatures


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


BATCH_EDGES = (8, 16, 32, 64, 128, 256)
PATHS = {"numpy": 0, "python": max(BATCH_EDGES)}  # _SMALL_BATCH for each


def two_edge_batch(rng, edges: int) -> list[np.ndarray]:
    # the pair ranks below C(9, 2) = 36 are the pairs of 9 vertices
    return [np.sort(rng.choice(36, 2, replace=False)) for _ in range(edges // 2)]


def multipartite_batch(rng, edges: int) -> list[np.ndarray]:
    """Multipartite classes of random shapes while one fits, so the batch
    holds edges - 3 to edges edges (the smallest shape, K_{2,2}, has 4)."""
    size = {parts: (sum(parts) ** 2 - sum(s * s for s in parts)) // 2 for parts in shapes()}
    batch, left = [], edges
    while fits := [parts for parts in size if size[parts] <= left]:
        parts = fits[int(rng.integers(len(fits)))]
        batch.append(multipartite(parts, rng).ranks)
        left -= size[parts]
    return batch


def crossover(decks: int) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Microseconds of class_signatures on each path, per (kind, edges),
    both paths on each of 20 batches per deck, the first path alternating."""
    kinds = {"two-edge": two_edge_batch, "multipartite": multipartite_batch}
    times = {(kind, e): {path: [] for path in PATHS} for kind in kinds for e in BATCH_EDGES}
    rng = np.random.default_rng(decks)
    saved = graphmod._SMALL_BATCH
    try:
        for draw in range(20 * decks):
            for (kind, edges), row in times.items():
                batch = kinds[kind](rng, edges)
                for path in sorted(PATHS, reverse=draw % 2 == 1):
                    graphmod._SMALL_BATCH = PATHS[path]
                    t0 = time.perf_counter()
                    class_signatures(batch)
                    row[path].append(1e6 * (time.perf_counter() - t0))
    finally:
        graphmod._SMALL_BATCH = saved
    return times


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

    print(f"{'batch':<12} {'edges':>5} {'numpy_us':>9} {'python_us':>9}")
    for (kind, edges), row in crossover(args.decks).items():
        us = [statistics.median(row[path]) for path in PATHS]
        print(f"{kind:<12} {edges:>5} {us[0]:>9.1f} {us[1]:>9.1f}")


if __name__ == "__main__":
    main()
