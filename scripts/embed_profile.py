#!/usr/bin/env python3
"""Profile the lazy tree embedding as n grows: trees embedded, reveal
budget consumed, the worst per-vertex reveal counters against their
thresholds (1000 eps n for rev, 500 eps n for the active side), the wall
time of the embedding and of materialising the host graph, and the
embedding's time per step.  Pair outcomes are hashed a block at a time
into a table the first time a reveal needs the block, and `materialize`
hashes only the blocks no reveal touched, so the two times show where the
table is paid for.  Two more stages are timed on their own: drawing the
trees the embedding consumed from a fresh supply with the same seed (each
tree is coded as it is drawn), and `verify_distinct` of the trial's
colouring.  The edge probability is 40 ln n / n, capped at 1 (it passes 1
below n = 250).

Runs from a checkout: python3 scripts/embed_profile.py --sizes 500 1000
"""

import argparse
import math
import sys
import time
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taulab import rng as rngmod
from taulab.bounds import dense_tree_order
from taulab.catalog import iter_distinct_maxdeg3_trees
from taulab.coloring import build_dense_coloring, verify_distinct
from taulab.embed import (
    LazyRandomGraph,
    diagnostics_check,
    greedy_embed,
    materialize,
)


def one(n: int, seed: int, epsilon: float) -> None:
    p = min(1.0, 40 * math.log(n) / n)
    t = dense_tree_order(n)
    lazy = LazyRandomGraph(n, p, seed)
    trees = iter_distinct_maxdeg3_trees(t, rngmod.stream(seed, 2))
    start = time.perf_counter()
    result = greedy_embed(lazy, trees, int(epsilon * n * n), rngmod.stream(seed, 1))
    embedded = time.perf_counter()
    host = materialize(lazy)
    embed_s, mat_s = embedded - start, time.perf_counter() - embedded
    steps = result.trace.steps
    # the embedding draws one tree past the last it embeds, unless the
    # supply ran out first
    drawn = len(result.embedded) + (result.status != "supply_exhausted")
    start = time.perf_counter()
    for _ in islice(iter_distinct_maxdeg3_trees(t, rngmod.stream(seed, 2)), drawn):
        pass
    supply_s = time.perf_counter() - start
    coloring = build_dense_coloring(result, host)
    start = time.perf_counter()
    verify_distinct(coloring)
    verify_s = time.perf_counter() - start
    diag = diagnostics_check(result.trace, epsilon, n)
    print(f"{n:>7} {p:>6.4f} {t:>3} {len(result.embedded):>6} {steps:>9} "
          f"{diag.max_rev:>8} {diag.rev_limit:>10.0f} "
          f"{diag.max_rev_active:>8} {diag.rev_active_limit:>10.0f} "
          f"{str(diag.total_ok).lower():>5} {1e3 * embed_s:>8.2f} {1e3 * mat_s:>8.2f} "
          f"{1e6 * embed_s / max(steps, 1):>8.2f} {1e3 * supply_s:>9.2f} "
          f"{1e3 * verify_s:>9.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[500, 1000, 2000, 4000])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epsilon", type=float, default=0.01)
    args = ap.parse_args()

    print(f"{'n':>7} {'p':>6} {'t':>3} {'trees':>6} {'steps':>9} "
          f"{'maxrev':>8} {'limit':>10} {'maxrev+':>8} {'limit+':>10} "
          f"{'ok':>5} {'embed_ms':>8} {'mat_ms':>8} {'us/step':>8} "
          f"{'supply_ms':>9} {'verify_ms':>9}")
    for n in args.sizes:
        one(n, args.seed, args.epsilon)


if __name__ == "__main__":
    main()
