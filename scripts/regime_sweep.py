#!/usr/bin/env python3
"""Sweep all three regimes at desk scale and tabulate class counts against
their bounds.  Every row is an independent seeded trial, so the table is
reproducible; pass --seeds to widen it.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taulab.cli import TrialSpec, run_trial


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=3, help="trials per regime")
    ap.add_argument("--base-seed", type=int, default=1)
    args = ap.parse_args()

    rows = []
    for s in range(args.seeds):
        seed = args.base_seed + s
        n = 2000
        rows.append(TrialSpec(
            trial=s, seed=seed, regime="dense", n=n,
            p=40 * math.log(n) / n, k=None, epsilon=0.01, c_path=0.05))
        n = 4000
        rows.append(TrialSpec(
            trial=s, seed=seed, regime="sparse", n=n,
            p=30 / n, k=None, epsilon=0.01, c_path=0.05))
        n = 50000
        rows.append(TrialSpec(
            trial=s, seed=seed, regime="verysparse", n=n,
            p=float(n) ** -1.3, k=4, epsilon=0.01, c_path=0.05))

    print(f"{'regime':<11} {'seed':>5} {'n':>7} {'classes':>8} "
          f"{'upper':>12} {'ratio':>10} {'ok':>5} {'ms':>6}")
    for spec in rows:
        rec = run_trial(spec)
        print(f"{rec.regime:<11} {rec.seed:>5} {rec.n:>7} {rec.classes:>8} "
              f"{rec.upper_bound:>12.1f} {rec.ratio:>10.2e} "
              f"{str(rec.ok).lower():>5} {rec.millis:>6}")


if __name__ == "__main__":
    main()
