#!/usr/bin/env python3
"""Profile the very sparse construction as n grows, one stage at a time:
sampling G(n, n^-x) by rank (`gen`), the component census (`census`),
building one class per census vector in the box plus the leftover class
(`build`), and certifying the colouring (`verify`).  The stages and their
parameters are those of `taulab color --regime verysparse`.  The census
labels only the vertices that carry an edge, so its column should follow
the edge count m, not n.  Each column is the median over the seeds, in
milliseconds.

Runs from a checkout: python3 scripts/verysparse_profile.py --sizes 100000 1000000
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taulab.coloring import build_verysparse_coloring, verify_distinct
from taulab.graph import census, gen_gnp

STAGES = ("gen", "census", "build", "verify")


def one(n: int, exponent: float, k: int, seed: int) -> tuple[int, int, dict[str, float]]:
    p = float(n) ** -exponent
    ms: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        ms[stage] = 1e3 * (now - clock)
        clock = now

    g = gen_gnp(n, p, seed)
    lap("gen")
    tally = census(g)
    lap("census")
    coloring = build_verysparse_coloring(g, tally, k, p=p)
    lap("build")
    ok, _ = verify_distinct(coloring)
    lap("verify")
    if not ok:
        raise SystemExit(f"n={n} seed={seed}: colouring failed verification")
    return g.edge_count, coloring.num_classes, ms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100_000, 1_000_000])
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..SEEDS per size")
    ap.add_argument("--exponent", type=float, default=1.3, help="edge probability n^-x")
    ap.add_argument("--k", type=int, default=4)
    args = ap.parse_args()

    print(f"{'n':>8} {'m':>7} {'classes':>7} "
          + " ".join(f"{s + '_ms':>10}" for s in STAGES))
    for n in args.sizes:
        runs = [one(n, args.exponent, args.k, seed) for seed in range(1, args.seeds + 1)]
        m = statistics.median(m for m, _, _ in runs)
        classes = statistics.median(cls for _, cls, _ in runs)
        med = {s: statistics.median(ms[s] for _, _, ms in runs) for s in STAGES}
        print(f"{n:>8} {m:>7g} {classes:>7g} "
              + " ".join(f"{med[s]:>10.2f}" for s in STAGES))


if __name__ == "__main__":
    main()
