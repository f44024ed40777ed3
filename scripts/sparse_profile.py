#!/usr/bin/env python3
"""Profile the sparse construction as n grows, one stage at a time: sampling
G(n, c/n) by rank (`gen`), the CSR arrays the path finder slices its
residual neighbour lists from (`csr`), the DFS path harvest on them (`dfs`),
laying one linear forest per partition of k along the paths (`pack`),
cutting the forest classes from the ranked paths, splitting off the leftover
class and checking that the classes cover the host (`leftover`), and
certifying the colouring (`verify`).  The stages and their parameters are
those of `taulab color --regime sparse`: paths of floor(c_path n) edges, at
most floor(c) of them, and k = ceil(ln^2 n).
Each column is the median over the seeds, in milliseconds.

Runs from a checkout: python3 scripts/sparse_profile.py --sizes 5000 20000
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taulab.bounds import sparse_k
from taulab.catalog import LinearForest, partitions
from taulab.coloring import _with_leftover, verify_distinct
from taulab.graph import gen_gnp
from taulab.pathpack import _forest_classes, dfs_path_pack, pack_forests

STAGES = ("gen", "csr", "dfs", "pack", "leftover", "verify")


def one(n: int, c: float, c_path: float, seed: int) -> tuple[int, dict[str, float]]:
    k = sparse_k(n)
    ms: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        ms[stage] = 1e3 * (now - clock)
        clock = now

    g = gen_gnp(n, c / n, seed)
    lap("gen")
    g.csr
    lap("csr")
    pack = dfs_path_pack(g, max(1, math.floor(c_path * n)), max(1, math.floor(c)))
    lap("dfs")
    forests = (LinearForest(lengths) for lengths in partitions(k))
    placed = pack_forests(pack.paths, forests).placements
    lap("pack")
    classes = _forest_classes(pack.paths, placed)
    labels = [f"forest:{i}" for i in range(len(classes))]
    coloring = _with_leftover(g, classes, labels, "placed")
    lap("leftover")
    ok, _ = verify_distinct(coloring)
    lap("verify")
    if not ok:
        raise SystemExit(f"n={n} seed={seed}: colouring failed verification")
    return coloring.num_classes, ms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[5000, 10000, 20000])
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..SEEDS per size")
    ap.add_argument("--c", type=float, default=30.0, help="edge probability c/n")
    ap.add_argument("--c-path", type=float, default=0.05)
    args = ap.parse_args()

    print(f"{'n':>7} {'k':>4} {'classes':>7} "
          + " ".join(f"{s + '_ms':>11}" for s in STAGES))
    for n in args.sizes:
        runs = [one(n, args.c, args.c_path, seed) for seed in range(1, args.seeds + 1)]
        classes = statistics.median(cls for cls, _ in runs)
        med = {s: statistics.median(ms[s] for _, ms in runs) for s in STAGES}
        print(f"{n:>7} {sparse_k(n):>4} {classes:>7g} "
              + " ".join(f"{med[s]:>11.2f}" for s in STAGES))


if __name__ == "__main__":
    main()
