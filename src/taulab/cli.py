"""Command line front end and seeded trial harness.

Subcommands: gen, census, embed, pack-paths, color, tau-exact, bounds,
experiment.  Exit codes: 0 on success, 1 for usage errors (bad flags, bad
parameter combinations), 2 for construction failures (an embedding with no
candidates left, an empty census, a colouring that fails verification).

`experiment` runs independent seeded trials, one CSV row each, and prints a
JSON summary.  Identical flags give byte-identical output except for the
trailing millis column, which records wall time.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

from . import bounds as bnd
from . import rng as rngmod
from .catalog import iter_distinct_maxdeg3_trees
from .coloring import (
    Coloring,
    build_dense_coloring,
    build_sparse_coloring,
    build_verysparse_coloring,
    tau_exact,
    verify_distinct,
    write_coloring,
)
from .embed import (
    LazyRandomGraph,
    diagnostics_check,
    greedy_embed,
    materialize,
    save_embed_report,
)
from .graph import census, gen_gnp, read_edgelist, write_edgelist
from .pathpack import dfs_path_pack

CSV_COLUMNS = ("seed", "regime", "n", "p", "classes", "upper_bound", "ratio", "ok", "millis")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_density_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument(
        "--p-over-n", type=float, default=None, help="edge probability as c/n"
    )
    p.add_argument(
        "--p-exponent",
        type=float,
        default=None,
        help="edge probability as n^(-x)",
    )


def _resolve_p(parser: argparse.ArgumentParser, args: argparse.Namespace) -> float:
    given = [
        x for x in (args.p, args.p_over_n, args.p_exponent) if x is not None
    ]
    if len(given) != 1:
        parser.error("exactly one of --p, --p-over-n, --p-exponent is required")
    if args.p is not None:
        p = args.p
    elif args.p_over_n is not None:
        p = args.p_over_n / args.n
    else:
        p = float(args.n) ** -args.p_exponent
    if not 0.0 < p < 1.0:
        parser.error(f"edge probability {p} outside (0, 1)")
    return p


def _check_window(n: int, p: float, k: int, proceed: bool) -> bool:
    lo, hi = bnd.verysparse_window(n, k)
    if lo < p < hi:
        return True
    sys.stderr.write(
        f"warning: p={p:g} outside the very sparse window "
        f"({lo:g}, {hi:g}) for k={k}\n"
    )
    if proceed:
        return True
    sys.stderr.write("pass --proceed to run anyway\n")
    return False


# ---------------------------------------------------------------------------
# trial harness


@dataclass(frozen=True)
class TrialSpec:
    trial: int
    seed: int
    regime: str
    n: int
    p: float
    k: Optional[int]
    epsilon: float
    c_path: float


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    regime: str
    n: int
    p: float
    classes: int
    upper_bound: float
    ratio: float
    ok: bool
    millis: int

    def row(self) -> list[str]:
        return [
            str(self.seed),
            self.regime,
            str(self.n),
            repr(self.p),
            str(self.classes),
            repr(self.upper_bound),
            repr(self.ratio),
            "true" if self.ok else "false",
            str(self.millis),
        ]


def _census_upper_F(path_counts: dict[int, int], n: int, p: float, k: int) -> float:
    """upper_F with the budgets read off the component census: A_i is the
    number of path components on i+1 vertices, B the number on ell vertices."""
    L = bnd.ell(k)
    A = [float(path_counts.get(i + 1, 0)) for i in range(1, L - 1)]
    B = float(path_counts.get(L, 0))
    return bnd.upper_F(A, B, n, p, k)


def _embed(n: int, p: float, seed: int, epsilon: float,
           t: Optional[int] = None, budget: Optional[int] = None):
    """(lazy graph, result) of the seeded greedy embedding of order-t trees
    (default dense_tree_order(n)) in budget steps (default epsilon * n^2)."""
    if t is None:
        t = bnd.dense_tree_order(n)
    if budget is None:
        budget = int(epsilon * n * n)
    lazy = LazyRandomGraph(n, p, seed)
    trees = iter_distinct_maxdeg3_trees(t, rngmod.stream(seed, 2))
    return lazy, greedy_embed(lazy, trees, budget, rngmod.stream(seed, 1))


def _dense_coloring(spec: TrialSpec) -> tuple[Coloring, bool, float]:
    lazy, result = _embed(spec.n, spec.p, spec.seed, spec.epsilon)
    host = materialize(lazy)
    coloring = build_dense_coloring(result, host)
    diag = diagnostics_check(result.trace, spec.epsilon, spec.n)
    ok = diag.total_ok and result.status != "failed"
    return coloring, ok, bnd.upper_dense(spec.n, spec.p)


def _sparse_coloring(spec: TrialSpec) -> tuple[Coloring, bool, float]:
    g = gen_gnp(spec.n, spec.p, spec.seed)
    k = spec.k if spec.k is not None else bnd.sparse_k(spec.n)
    coloring = build_sparse_coloring(
        g, k, c_path=spec.c_path, p=spec.p
    )
    return coloring, True, bnd.upper_dense(spec.n, spec.p)


def _verysparse_coloring(spec: TrialSpec) -> tuple[Coloring, bool, float]:
    if spec.k is None:
        raise ValueError("the verysparse regime requires --k")
    g = gen_gnp(spec.n, spec.p, spec.seed)
    tally = census(g)
    coloring = build_verysparse_coloring(g, tally, spec.k, p=spec.p)
    upper = _census_upper_F(tally.path_counts, spec.n, spec.p, spec.k)
    return coloring, True, upper


_REGIMES = {
    "dense": _dense_coloring,
    "sparse": _sparse_coloring,
    "verysparse": _verysparse_coloring,
}


def run_trial(spec: TrialSpec) -> TrialRecord:
    """One seeded end-to-end trial: build the regime's colouring, verify it,
    and compare the class count against the regime's upper bound."""
    start = time.perf_counter()
    coloring, ok, upper = _REGIMES[spec.regime](spec)
    distinct, _ = verify_distinct(coloring)
    ok = ok and distinct and coloring.num_classes >= 1
    millis = int((time.perf_counter() - start) * 1000)
    return TrialRecord(
        seed=spec.seed,
        regime=spec.regime,
        n=spec.n,
        p=spec.p,
        classes=coloring.num_classes,
        upper_bound=upper,
        ratio=coloring.num_classes / upper,
        ok=ok,
        millis=millis,
    )


# trial_seed(base, i) meets trial_seed(base + 1, 0) at i = _SEED_STRIDE, so
# experiment runs at most _SEED_STRIDE trials
_SEED_STRIDE = 1_000_003


def trial_seed(base: int, trial: int) -> int:
    # transparent per-trial seed; distinct trials never share a graph
    return base * _SEED_STRIDE + trial


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    p = _resolve_p(args.parser, args)
    g = gen_gnp(args.n, p, args.seed)
    write_edgelist(g, args.out)
    print(f"n {g.n}")
    print(f"m {g.edge_count}")
    return 0


def _cmd_census(args) -> int:
    g = read_edgelist(args.infile)
    c = census(g)
    if args.as_json:
        payload = {
            "components": sum(c.counts.values()),
            "distinct_types": len(c.counts),
            "path_counts": {str(k): v for k, v in sorted(c.path_counts.items())},
            "vertices_in_components": g.n,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"components {sum(c.counts.values())}")
    print(f"distinct_types {len(c.counts)}")
    for order, cnt in sorted(c.path_counts.items()):
        print(f"paths_order_{order} {cnt}")
    top = sorted(c.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for code, cnt in top[:10]:
        print(f"type {cnt} {code.decode('ascii')}")
    return 0


def _cmd_embed(args) -> int:
    p = _resolve_p(args.parser, args)
    if args.budget is not None and args.budget < 0:
        args.parser.error("--budget must be nonnegative")
    if args.tree_order is not None and args.tree_order < 2:
        args.parser.error("--tree-order must be at least 2")
    _, result = _embed(args.n, p, args.seed, args.epsilon,
                       args.tree_order, args.budget)
    diag = diagnostics_check(result.trace, args.epsilon, args.n)
    print(f"status {result.status}")
    print(f"embedded {len(result.embedded)}")
    print(f"steps {result.trace.steps}")
    print(f"max_rev {diag.max_rev}")
    print(f"max_rev_active {diag.max_rev_active}")
    print(f"diagnostics_ok {'true' if diag.total_ok else 'false'}")
    if args.report:
        save_embed_report(result, args.report)
    return 0 if result.status != "failed" else 2


def _cmd_pack_paths(args) -> int:
    g = read_edgelist(args.infile)
    target = args.target_len if args.target_len else max(1, int(args.c_path * g.n))
    limit = args.max_paths if args.max_paths is not None else g.n
    pack = dfs_path_pack(g, target, limit)
    print(f"paths {len(pack.paths)}")
    print(f"target_len {target}")
    print(f"edges_used {len(pack.used_edges)}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            for path in pack.paths:
                fh.write(" ".join(map(str, path)) + "\n")
    return 0


def _trial_spec(args, p: float) -> Optional[TrialSpec]:
    """Trial 0 of the run the color or experiment flags describe, or None
    when the density lies outside the very sparse window and --proceed is
    not given; the verysparse regime without --k is a usage error."""
    if args.regime == "verysparse":
        if args.k is None:
            args.parser.error("--k is required for the verysparse regime")
        if not _check_window(args.n, p, args.k, args.proceed):
            return None
    return TrialSpec(
        trial=0,
        seed=args.seed,
        regime=args.regime,
        n=args.n,
        p=p,
        k=args.k,
        epsilon=args.epsilon,
        c_path=args.c_path,
    )


def _cmd_color(args) -> int:
    spec = _trial_spec(args, _resolve_p(args.parser, args))
    if spec is None:
        return 1
    coloring, ok, upper = _REGIMES[args.regime](spec)
    print(f"classes {coloring.num_classes}")
    print(f"upper_bound {upper!r}")
    distinct, pair = verify_distinct(coloring)
    print(f"verify_distinct {'true' if distinct else 'false'}")
    if not distinct:
        print(f"isomorphic_pair {pair[0]} {pair[1]}")
        return 2
    if args.out:
        write_coloring(coloring, args.out)
    return 0 if ok else 2


def _cmd_tau_exact(args) -> int:
    if args.bundled:
        ref = resources.files("taulab.data").joinpath(f"{args.bundled}.edges")
        with resources.as_file(ref) as path:
            g = read_edgelist(str(path))
    else:
        g = read_edgelist(args.infile)
    print(tau_exact(g, max_edges=args.max_edges))
    return 0


def _cmd_bounds(args) -> int:
    k = args.k
    L = bnd.ell(k)
    ea, eb = bnd.theta_exponents(k)
    print(f"ell {L}")
    print(f"theta_exponent_n {ea}")
    print(f"theta_exponent_p {eb}")
    print(f"claim_check {'true' if bnd.claim_check(k) else 'false'}")
    if args.n is not None:
        lo, hi = bnd.verysparse_window(args.n, k)
        print(f"window_low {lo!r}")
        print(f"window_high {hi!r}")
        if args.n >= 16:
            print(f"f_dense {bnd.f_dense(args.n)!r}")
        p = None
        if args.p is not None or args.p_over_n is not None or args.p_exponent is not None:
            p = _resolve_p(args.parser, args)
        if p is not None:
            print(f"theta {bnd.theta_verysparse(args.n, p, k)!r}")
            if args.n >= 16:
                print(f"upper_dense {bnd.upper_dense(args.n, p)!r}")
    return 0


def _cmd_experiment(args) -> int:
    p = _resolve_p(args.parser, args)
    if args.trials < 1:
        args.parser.error("--trials must be at least 1")
    if args.trials > _SEED_STRIDE:
        args.parser.error(f"--trials above {_SEED_STRIDE} repeats trial seeds")
    base = _trial_spec(args, p)
    if base is None:
        return 1
    specs = [
        replace(base, trial=i, seed=trial_seed(args.seed, i))
        for i in range(args.trials)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(run_trial, specs))
    else:
        records = [run_trial(s) for s in specs]
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
    classes = [rec.classes for rec in records]
    ratios = [rec.ratio for rec in records]
    summary = {
        "regime": args.regime,
        "trials": len(records),
        "classes": {
            "min": min(classes),
            "median": statistics.median(classes),
            "max": max(classes),
        },
        "ratio": {
            "min": min(ratios),
            "median": statistics.median(ratios),
            "max": max(ratios),
        },
        "all_ok": all(rec.ok for rec in records),
    }
    text = json.dumps(summary, sort_keys=True)
    print(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0 if summary["all_ok"] else 2


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="taulab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name: str, fn, **kwargs) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn, parser=sp)
        return sp

    sp = new("gen", _cmd_gen, help="sample a random graph, write an edge list")
    sp.add_argument("--n", type=int, required=True)
    _add_density_flags(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)

    sp = new("census", _cmd_census, help="classify the components of a graph")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--json", dest="as_json", action="store_true")

    sp = new("embed", _cmd_embed, help="run the lazy tree embedding")
    sp.add_argument("--n", type=int, required=True)
    _add_density_flags(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--epsilon", type=float, default=bnd.DESK_EPSILON)
    sp.add_argument("--tree-order", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--report", default=None, help="write a JSON report here")

    sp = new("pack-paths", _cmd_pack_paths, help="harvest edge-disjoint paths")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--target-len", type=int, default=None)
    sp.add_argument("--c-path", type=float, default=0.05)
    sp.add_argument("--max-paths", type=int, default=None)
    sp.add_argument("--out", default=None, help="write one path per line here")

    sp = new("color", _cmd_color, help="build and verify a full colouring")
    sp.add_argument("--regime", choices=sorted(_REGIMES), required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_density_flags(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--epsilon", type=float, default=bnd.DESK_EPSILON)
    sp.add_argument("--c-path", type=float, default=0.05)
    sp.add_argument("--out", default=None, help="write the colouring here")
    sp.add_argument("--proceed", action="store_true")

    sp = new("tau-exact", _cmd_tau_exact, help="exact tau of a small graph")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile")
    group.add_argument(
        "--bundled", choices=("k3", "k4", "p3"), help="use a bundled edge list"
    )
    sp.add_argument("--max-edges", type=int, default=8)

    sp = new("bounds", _cmd_bounds, help="print derived thresholds and bounds")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    _add_density_flags(sp)

    sp = new("experiment", _cmd_experiment, help="run seeded trials, emit CSV")
    sp.add_argument("--regime", choices=sorted(_REGIMES), required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_density_flags(sp)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default="experiment.csv")
    sp.add_argument("--json-out", default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--epsilon", type=float, default=bnd.DESK_EPSILON)
    sp.add_argument("--c-path", type=float, default=0.05)
    sp.add_argument("--proceed", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"taulab: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
