#!/usr/bin/env python3
"""Time each stage of the real trial, `cli.run_trial`, at each regime's
bench point: dense at p = 40 ln n / n, sparse at p = 30 / n and verysparse
at p = n^-1.3 with k = 4, all with epsilon 0.01 and c_path 0.05.  Row i of a
point is trial i of `taulab experiment --seed 1`, seeded trial_seed(1, i).

While a trial runs, the library names it looks up are rebound to timers, so
each stage's column is its self time in milliseconds: the time of its calls
less that of the timed calls inside them.  `supply` is the tree supply's
draws, `hash` the lazy graph's outcome table (`rng.pair_outcomes`), hashed
once per trial when the graph is built, `harvest` the DFS path
harvest with the CSR arrays it builds, and `build` the rest of the builder:
cutting the classes and the leftover step, and any stage a builder adds
later.  `other` is the trial's wall time
(`wall`) less the sum of the stages.  Dense rows also give the embedding's
steps and the `diagnostics_check` maxima beside their limits.

Runs from a checkout: python3 scripts/stage_profile.py --regime dense --sizes 1000 2000
"""

import argparse
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taulab import cli, coloring, rng

# (module, name, stage) for every name the trial looks up that is timed;
# diagnostics_check is rebound too, only to keep its report
TIMED = (
    (cli, "iter_distinct_maxdeg3_trees", "supply"),
    (cli, "gen_gnp", "gen"),
    (cli, "greedy_embed", "embed"),
    (cli, "materialize", "materialize"),
    (rng, "pair_outcomes", "hash"),
    (cli, "census", "census"),
    (coloring, "dfs_path_pack", "harvest"),
    (coloring, "pack_forests", "pack"),
    (cli, "build_dense_coloring", "build"),
    (cli, "build_sparse_coloring", "build"),
    (cli, "build_verysparse_coloring", "build"),
    (cli, "verify_distinct", "verify"),
)
STAGES = tuple(dict.fromkeys(stage for _, _, stage in TIMED))

# regime -> (default n, edge probability at n, k)
POINTS = {
    "dense": (2000, lambda n: 40 * math.log(n) / n, None),
    "sparse": (4000, lambda n: 30.0 / n, None),
    "verysparse": (50_000, lambda n: float(n) ** -1.3, 4),
}


def profile(spec: cli.TrialSpec):
    """(record, self seconds per stage, wall seconds, [(steps, report)] of
    each diagnostics_check) of one run_trial(spec)."""
    seconds: dict[str, float] = defaultdict(float)
    inner = [0.0]  # per open timed call, the time of the timed calls inside it
    diagnostics = []

    def timed(stage, fn, *args, **kwargs):
        inner.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            seconds[stage] += spent - inner.pop()
            inner[-1] += spent

    def timer(stage, fn):
        def supply(*args, **kwargs):  # the call, then each draw
            trees = timed(stage, fn, *args, **kwargs)
            return iter(lambda: timed(stage, next, trees, None), None)

        return supply if stage == "supply" else lambda *a, **kw: timed(stage, fn, *a, **kw)

    def keep_report(trace, *args):
        diagnostics.append((trace.steps, check(trace, *args)))
        return diagnostics[-1][1]

    check = cli.diagnostics_check
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in TIMED]
    try:
        for (mod, name, stage), (_, _, fn) in zip(TIMED, saved):
            setattr(mod, name, timer(stage, fn))
        cli.diagnostics_check = keep_report
        start = time.perf_counter()
        record = cli.run_trial(spec)
        wall = time.perf_counter() - start
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        cli.diagnostics_check = check
    return record, seconds, wall, diagnostics


def row(spec: cli.TrialSpec) -> str:
    record, seconds, wall, diagnostics = profile(spec)
    cells = [spec.regime, f"n={spec.n}", f"seed={spec.seed}",
             f"classes={record.classes}", f"ok={str(record.ok).lower()}"]
    cells += [f"{stage}={1e3 * seconds[stage]:.3f}" for stage in STAGES if stage in seconds]
    cells += [f"other={1e3 * (wall - sum(seconds.values())):.3f}", f"wall={1e3 * wall:.3f}"]
    for steps, report in diagnostics:
        cells += [f"steps={steps}", f"max_rev={report.max_rev}",
                  f"rev_limit={report.rev_limit:g}",
                  f"max_rev_active={report.max_rev_active}",
                  f"rev_active_limit={report.rev_active_limit:g}"]
    return " ".join(cells)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--regime", nargs="+", choices=list(POINTS), default=list(POINTS))
    ap.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="n for every regime given (default: 2000, 4000, 50000)")
    ap.add_argument("--seeds", type=int, default=3, help="trials per point")
    args = ap.parse_args()
    for regime in args.regime:
        default_n, p, k = POINTS[regime]
        for n in args.sizes or [default_n]:
            for i in range(args.seeds):
                print(row(cli.TrialSpec(
                    trial=i, seed=cli.trial_seed(1, i), regime=regime, n=n,
                    p=p(n), k=k, epsilon=0.01, c_path=0.05)), flush=True)


if __name__ == "__main__":
    main()
