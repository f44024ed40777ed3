#!/usr/bin/env python3
"""taulab benchmark: seeded trials of the three regime pipelines and of the
exact canonicaliser, with output checks and an optional traced run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports taulab from ./src.  Each
invocation runs one workload in this single process as a closed loop: the
next trial starts when the previous one and its output checks are done, and
trials keep starting until --seconds of wall time have passed (at least one
trial always runs).  Pipeline trial i goes through `taulab.cli.run_trial`
with the seed `cli.trial_seed(seed, i)`, exactly as `taulab experiment` does.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every trial twice,
untraced and traced (the calls into each module's public functions wrapped
in spans), alternating which goes first, and reports per-layer self times
and work counts.  The
last line of stdout is one JSON object; a fuller result file, with the
provenance, every trial and (for traced runs) every span, goes to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import networkx as nx
import numpy as np

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Setup is measured in fresh child processes; the median of this many is
# reported, so one slow interpreter start does not decide the figure.
SETUP_PROBES = 3

END_TO_END = {
    "trial_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "classes": "count",
    "bound_ratio": "ratio",
}

PER_LAYER = {
    "graph.gen_gnp_s": "s",
    "graph.from_edges_s": "s",
    "graph.from_edges_calls": "count",
    "graph.components_s": "s",
    "graph.components_calls": "count",
    "graph.census_s": "s",
    "graph.edges": "count",
    "rng.pair_uniform_array_s": "s",
    "rng.pair_uniform_calls": "count",
    "catalog.tree_supply_s": "s",
    "catalog.trees_drawn": "count",
    "catalog.ahu_code_s": "s",
    "catalog.ahu_code_calls": "count",
    "embed.greedy_embed_s": "s",
    "embed.steps": "count",
    "embed.trees_embedded": "count",
    "embed.hit_rate": "ratio",
    "embed.materialize_s": "s",
    "embed.pairs": "count",
    "pathpack.dfs_path_pack_s": "s",
    "pathpack.paths": "count",
    "pathpack.path_yield": "ratio",
    "pathpack.pack_forests_s": "s",
    "pathpack.forests_placed": "count",
    "coloring.build_s": "s",
    "coloring.validate_s": "s",
    "coloring.leftover_edges": "count",
    "coloring.verify_s": "s",
    "coloring.signatures": "count",
    "coloring.canonical_form_s": "s",
    "coloring.canonical_form_calls": "count",
    "coloring.tau_exact_s": "s",
    "cli.run_trial_s": "s",
    "cli.run_trial_self_s": "s",
    "trace_overhead": "ratio",
}

ROOT_SPAN = "cli.run_trial"


def _import_taulab() -> dict:
    """Import taulab from this checkout's src/ and nowhere else; returns its
    modules by name."""
    sys.path.insert(0, SRC)
    try:
        import taulab
        from taulab import catalog, cli, coloring, embed, graph, rng
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import taulab from {SRC}: {exc}\n")
        sys.exit(2)
    if not os.path.abspath(taulab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: taulab was imported from {taulab.__file__}\n")
        sys.exit(2)
    return dict(catalog=catalog, cli=cli, coloring=coloring, embed=embed,
                graph=graph, rng=rng)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Pipeline:
    """One regime point, given as the flags `taulab experiment` takes."""

    regime: str
    n: int
    density_flag: str  # "--p-over-n" or "--p-exponent"
    density: float
    k: Optional[int] = None
    epsilon: float = 0.01
    c_path: float = 0.05

    @property
    def p(self) -> float:
        # the same arithmetic as cli._resolve_p, so the floats agree bit for bit
        if self.density_flag == "--p-over-n":
            return self.density / self.n
        return float(self.n) ** -self.density

    def spec(self, cli, seed: int, trial: int):
        return cli.TrialSpec(
            trial=trial,
            seed=cli.trial_seed(seed, trial),
            regime=self.regime,
            n=self.n,
            p=self.p,
            k=self.k,
            epsilon=self.epsilon,
            c_path=self.c_path,
        )

    def flags(self) -> list[str]:
        """The `taulab experiment` flags that select this input."""
        argv = ["--regime", self.regime, "--n", str(self.n),
                self.density_flag, repr(self.density),
                "--epsilon", repr(self.epsilon), "--c-path", repr(self.c_path)]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        return argv


@dataclass(frozen=True)
class Exact:
    """Canonical forms of complete multipartite graphs (every vertex has a
    twin) and exact tau of small random graphs.  Trials run in decks: each
    deck holds every part-size shape once, in a seeded order, so whole runs
    see the same shapes and only their order, labelling and the tau graphs
    change with the seed."""

    min_vertices: int
    max_vertices: int
    tau_edges: int

    def shapes(self, catalog) -> list[tuple[int, ...]]:
        return [
            parts
            for nv in range(self.min_vertices, self.max_vertices + 1)
            for parts in catalog.partitions(nv)
            if len(parts) >= 2 and min(parts) >= 2
        ]


def _dense(n: int) -> Pipeline:
    return Pipeline("dense", n, "--p-over-n", 40 * math.log(n))


def _sparse(n: int) -> Pipeline:
    return Pipeline("sparse", n, "--p-over-n", 30.0)


def _verysparse(n: int) -> Pipeline:
    return Pipeline("verysparse", n, "--p-exponent", 1.3, k=4)


# name -> (measured input, small input for the warm-up trial)
WORKLOADS: dict[str, tuple[object, object]] = {
    "dense": (_dense(3000), _dense(500)),
    "sparse": (_sparse(20000), _sparse(2000)),
    "verysparse": (_verysparse(100_000), _verysparse(10_000)),
    "exact": (Exact(4, 9, 8), Exact(4, 5, 4)),
}

# Graphs with s edges and no isolated vertices (OEIS A000664), s = 1, 2, ...
_GRAPHS_WITH_EDGES = (1, 2, 5, 11, 25, 63, 148, 345)


def tau_counting_bound(m: int) -> int:
    """Upper bound on tau of an m-edge graph: pairwise non-isomorphic classes
    can use each edge count s at most as often as there are graphs with s
    edges, so take the smallest class sizes until the edges run out."""
    if not 1 <= m <= len(_GRAPHS_WITH_EDGES):
        raise ValueError(f"counting bound tabulated for 1..8 edges, got {m}")
    sizes = (s for s, cnt in enumerate(_GRAPHS_WITH_EDGES, 1) for _ in range(cnt))
    total = classes = 0
    for s in sizes:
        if total + s > m:
            break
        total += s
        classes += 1
    return classes


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans recorded in memory around calls into the library: name, parent,
    start, end.  Self time (span time minus child span time) and call counts
    are summed per name as spans close; `counts` holds work counters that
    observers read off arguments and results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trial = array("l")
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_trial = -1
        self._stack: list[list] = []  # [span index, child seconds]

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.trial.append(self.current_trial)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self, name: str) -> float:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = end
        dur = end - self.start[idx]
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; returns (result, span seconds)."""
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self._close(name)
        return result, dur

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None):
        tracer = self

        def spanned(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return spanned

    def counted(self, key: str, fn: Callable):
        """Count calls without a span, for calls too small and many to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("trial,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.trial[i]},{i},{self.parent[i]},"
                    f"{self.names[self.name_id[i]]},"
                    f"{self.start[i] - START:.9f},{self.end[i] - START:.9f}\n"
                )


class TracedLibrary:
    """Rebinds the library's public functions to spanned wrappers while the
    context is open, and puts the originals back on exit.  Names are rebound
    in every module that imported them, since `from x import f` copies f."""

    def __init__(self, tracer: Tracer, mods) -> None:
        self.tracer = tracer
        self.mods = mods
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, name: str, fn, owners, observe=None) -> None:
        wrapped = self.tracer.wrap(name, fn, observe)
        for owner, attr in owners:
            self._set(owner, attr, wrapped)

    def __enter__(self) -> "TracedLibrary":
        t = self.tracer
        m = self.mods
        cli, coloring, graph, catalog, embed, rng = (
            m["cli"], m["coloring"], m["graph"], m["catalog"], m["embed"], m["rng"]
        )

        def on_pair_array(c, args, kwargs, out):
            c["rng.pair_uniform_calls"] += len(args[1])

        def on_embed(c, args, kwargs, result):
            steps = result.trace.steps
            c["embed.steps"] += steps
            c["rng.pair_uniform_calls"] += steps  # one scalar hash per reveal
            c["embed.trees_embedded"] += len(result.embedded)
            c["embed.edges_embedded"] += sum(len(tr.edges) for tr in result.embedded)

        def on_materialize(c, args, kwargs, host):
            c["embed.pairs"] += args[0].n * (args[0].n - 1) // 2

        def on_paths(c, args, kwargs, pack):
            c["pathpack.paths"] += len(pack.paths)
            c["pathpack.max_paths"] += args[2]

        def on_forests(c, args, kwargs, packed):
            c["pathpack.forests_placed"] += len(packed.placements)

        def on_build(c, args, kwargs, col):
            c["coloring.leftover_edges"] += sum(
                len(cls) for cls, label in zip(col.classes, col.labels)
                if "leftover" in label
            )

        supply = catalog.iter_distinct_maxdeg3_trees

        def traced_supply(*args, **kwargs):
            return _SpannedIterator(t, supply(*args, **kwargs))

        self._set(cli, "iter_distinct_maxdeg3_trees", traced_supply)
        from_edges = graph.Graph.__dict__["from_edges"].__func__
        self._set(graph.Graph, "from_edges",
                  staticmethod(t.wrap("graph.from_edges", from_edges, None)))
        self._set(coloring.Coloring, "__post_init__",
                  t.wrap("coloring.validate", coloring.Coloring.__post_init__))
        self._span("graph.gen_gnp", graph.gen_gnp, [(cli, "gen_gnp")])
        self._span("graph.components", graph.components,
                   [(graph, "components"), (coloring, "components")])
        self._span("graph.census", graph.census, [(cli, "census")])
        self._span("rng.pair_uniform_array", rng.pair_uniform_array,
                   [(rng, "pair_uniform_array")], on_pair_array)
        self._span("catalog.ahu_code", catalog.ahu_code,
                   [(catalog, "ahu_code"), (embed, "ahu_code"), (coloring, "ahu_code")])
        self._span("embed.greedy_embed", embed.greedy_embed,
                   [(cli, "greedy_embed")], on_embed)
        self._span("embed.materialize", embed.materialize,
                   [(cli, "materialize")], on_materialize)
        self._span("pathpack.dfs_path_pack", coloring.dfs_path_pack,
                   [(coloring, "dfs_path_pack")], on_paths)
        self._span("pathpack.pack_forests", coloring.pack_forests,
                   [(coloring, "pack_forests")], on_forests)
        for builder in ("build_dense_coloring", "build_sparse_coloring",
                        "build_verysparse_coloring"):
            self._span("coloring.build", getattr(coloring, builder),
                       [(cli, builder)], on_build)
        self._span("coloring.verify", coloring.verify_distinct,
                   [(cli, "verify_distinct")])
        self._span("coloring.canonical_form", coloring.canonical_form,
                   [(coloring, "canonical_form")])
        self._span("coloring.tau_exact", coloring.tau_exact,
                   [(coloring, "tau_exact")])
        self._set(coloring, "class_signature",
                  t.counted("coloring.signatures", coloring.class_signature))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class _SpannedIterator:
    """The tree supply, with each draw timed as a catalog.tree_supply span."""

    def __init__(self, tracer: Tracer, it) -> None:
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tree, _ = self._tracer.run("catalog.tree_supply", next, self._it)
        self._tracer.counts["catalog.trees_drawn"] += 1
        return tree


def per_layer_metrics(tracer: Tracer, traced: int, untraced_s, traced_s) -> dict:
    """Per-trial means of self times and counts over the traced trials."""
    per = 1.0 / traced
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    m = {
        name: s[name[:-2]] * per
        for name in PER_LAYER
        if name.endswith("_s") and name not in ("cli.run_trial_s", "cli.run_trial_self_s")
    }
    m.update({
        "graph.from_edges_calls": calls["graph.from_edges"] * per,
        "graph.components_calls": calls["graph.components"] * per,
        "graph.edges": c["graph.edges"] * per,
        "rng.pair_uniform_calls": c["rng.pair_uniform_calls"] * per,
        "catalog.trees_drawn": c["catalog.trees_drawn"] * per,
        "catalog.ahu_code_calls": calls["catalog.ahu_code"] * per,
        "embed.steps": c["embed.steps"] * per,
        "embed.trees_embedded": c["embed.trees_embedded"] * per,
        "embed.hit_rate": _ratio(c["embed.edges_embedded"], c["embed.steps"]),
        "embed.pairs": c["embed.pairs"] * per,
        "pathpack.paths": c["pathpack.paths"] * per,
        "pathpack.path_yield": _ratio(c["pathpack.paths"], c["pathpack.max_paths"]),
        "pathpack.forests_placed": c["pathpack.forests_placed"] * per,
        "coloring.leftover_edges": c["coloring.leftover_edges"] * per,
        "coloring.signatures": c["coloring.signatures"] * per,
        "coloring.canonical_form_calls": calls["coloring.canonical_form"] * per,
        "cli.run_trial_s": sum(traced_s) * per,
        "cli.run_trial_self_s": s[ROOT_SPAN] * per,
        "trace_overhead": statistics.median(traced_s) / statistics.median(untraced_s),
    })
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# trials and output checks


@dataclass
class TrialResult:
    seed: int
    seconds: float
    traced: bool
    check_s: Optional[float] = None
    classes: Optional[int] = None
    ratio: Optional[float] = None
    sha256: Optional[str] = None
    shape: Optional[list] = None
    checks: Optional[dict] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(self.checks.values())


def parse_coloring(text: str):
    """Read the `write_coloring` text: the vertex count and one (count, 2)
    int64 array of edges per class, in file order."""
    lines = text.split("\n")
    n, num = map(int, lines[1].split())
    classes, i = [], 2
    for _ in range(num):
        count = int(lines[i + 1])
        body = " ".join(lines[i + 2 : i + 2 + count])
        classes.append(np.array(body.split(), dtype=np.int64).reshape(count, 2))
        i += 2 + count
    return n, classes


def check_pipeline(mods, record, captured, scratch: str) -> tuple[str, dict]:
    """Checks made on the written colouring, not on the builder's own state:
    the classes are non-empty and pairwise disjoint, every edge is in the
    host, and the edge total equals the host's, so they cover it.  Also
    verify_distinct held and the record agrees with the colouring."""
    col, distinct = captured["coloring"], captured["distinct"]
    path = scratch + ".coloring"
    mods["coloring"].write_coloring(col, path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    finally:
        os.remove(path)
    n, classes = parse_coloring(raw.decode("ascii"))
    edges = np.concatenate(classes) if classes else np.zeros((0, 2), np.int64)
    u, v = edges[:, 0], edges[:, 1]
    keys = np.sort(u * n + v)
    has_edge = col.host.has_edge
    checks = {
        "verify_distinct": bool(distinct),
        "record_ok": bool(record.ok),
        "class_count": record.classes == len(classes) >= 1,
        "nonempty": all(len(c) for c in classes),
        "ordered_pairs": bool(np.all((0 <= u) & (u < v) & (v < n))),
        "disjoint": bool(np.all(keys[1:] != keys[:-1])),
        "in_host": all(map(has_edge, u.tolist(), v.tolist())),
        "covers_host": len(edges) == col.host.edge_count,
    }
    return hashlib.sha256(raw).hexdigest(), checks


@contextlib.contextmanager
def capturing_coloring(cli, captured: dict):
    """Wrap cli.verify_distinct (run_trial's last library call) so the
    benchmark sees the colouring run_trial built and the verdict it got."""
    verify = cli.verify_distinct

    def capturing(col, *args, **kwargs):
        out = verify(col, *args, **kwargs)
        captured["coloring"], captured["distinct"] = col, out[0]
        return out

    cli.verify_distinct = capturing
    try:
        yield
    finally:
        cli.verify_distinct = verify


@dataclass(frozen=True)
class ExactInput:
    shape: tuple[int, ...]
    edges: list[tuple[int, int]]  # the multipartite graph, relabelled
    twin_edges: list[tuple[int, int]]  # the same graph relabelled again
    moved_edges: list[tuple[int, int]]  # one edge moved onto a non-edge
    small_n: int
    small_edges: list[tuple[int, int]]  # the graph whose tau is computed
    small_twin_edges: list[tuple[int, int]]  # the same graph relabelled


def exact_inputs(work: Exact, seed: int, deck: int, shapes) -> list[ExactInput]:
    """Deterministic inputs for one deck, one per shape in a seeded order."""
    rng = np.random.default_rng([seed, deck])
    out = []
    for pos in rng.permutation(len(shapes)).tolist():
        parts = shapes[pos]
        nv = sum(parts)
        side = [i for i, size in enumerate(parts) for _ in range(size)]
        pairs = [(u, v) for u, v in itertools.combinations(range(nv), 2)
                 if side[u] != side[v]]
        edges = _relabel(pairs, rng.permutation(nv))
        twin = _relabel(edges, rng.permutation(nv))
        present = set(edges)
        non_edges = [e for e in itertools.combinations(range(nv), 2) if e not in present]
        drop = edges[int(rng.integers(len(edges)))]
        add = non_edges[int(rng.integers(len(non_edges)))]
        moved = sorted([e for e in edges if e != drop] + [add])
        tv = int(rng.integers(5, 10))
        all_pairs = list(itertools.combinations(range(tv), 2))
        pick = rng.choice(len(all_pairs), size=work.tau_edges, replace=False)
        small = [all_pairs[i] for i in sorted(pick.tolist())]
        small_twin = _relabel(small, rng.permutation(tv))
        out.append(ExactInput(parts, edges, twin, moved, tv, small, small_twin))
    return out


def _relabel(edges, perm) -> list[tuple[int, int]]:
    return sorted(
        (min(a, b), max(a, b)) for a, b in ((int(perm[u]), int(perm[v])) for u, v in edges)
    )


def exact_graphs(mods, inp: ExactInput):
    Graph = mods["graph"].Graph
    return (Graph.from_edges(sum(inp.shape), inp.edges),
            Graph.from_edges(inp.small_n, inp.small_edges))


def run_exact_trial(mods, g, small, tracer: Optional[Tracer]) -> tuple[float, tuple]:
    """Timed: canonical_form of the multipartite graph, then tau_exact of the
    small graph."""
    coloring = mods["coloring"]

    def body():
        return coloring.canonical_form(g), coloring.tau_exact(small)

    if tracer is None:
        t0 = time.perf_counter()
        out = body()
        return time.perf_counter() - t0, out
    out, dur = tracer.run(ROOT_SPAN, body)
    return dur, out


def check_exact(mods, inp: ExactInput, cert: bytes, tau: int) -> dict:
    """Certificates are unchanged by relabelling, both of the multipartite
    graph (all of whose vertices have twins) and of the random tau graph
    (few symmetries, so a search that stops at its first leaf shows);
    certificate equality with the moved-edge copy agrees with networkx; tau
    is within its bounds."""
    coloring, Graph = mods["coloring"], mods["graph"].Graph
    nv = sum(inp.shape)

    def nxg(edges):
        x = nx.Graph()
        x.add_nodes_from(range(nv))
        x.add_edges_from(edges)
        return x

    twin = coloring.canonical_form(Graph.from_edges(nv, inp.twin_edges))
    moved = coloring.canonical_form(Graph.from_edges(nv, inp.moved_edges))
    small = [Graph.from_edges(inp.small_n, e) for e in (inp.small_edges, inp.small_twin_edges)]
    return {
        "relabel_invariant": twin == cert,
        "small_relabel_invariant": (coloring.canonical_form(small[0])
                                    == coloring.canonical_form(small[1])),
        "moved_edge_agrees": (moved == cert) == nx.is_isomorphic(
            nxg(inp.edges), nxg(inp.moved_edges)),
        "tau_in_range": 1 <= tau <= tau_counting_bound(len(inp.small_edges)),
    }


# ---------------------------------------------------------------------------
# the measured loop


def _pipeline_trial(mods, spec, tracer: Optional[Tracer], res: "TrialResult",
                    scratch: str) -> None:
    cli = mods["cli"]
    captured: dict = {}
    res.seed = spec.seed
    if tracer is None:
        with capturing_coloring(cli, captured):
            t0 = time.perf_counter()
            record = cli.run_trial(spec)
            res.seconds = time.perf_counter() - t0
    else:
        with TracedLibrary(tracer, mods), capturing_coloring(cli, captured):
            record, res.seconds = tracer.run(ROOT_SPAN, cli.run_trial, spec)
        tracer.counts["graph.edges"] += captured["coloring"].host.edge_count
    res.classes, res.ratio = record.classes, record.ratio
    t0 = time.perf_counter()
    res.sha256, res.checks = check_pipeline(mods, record, captured, scratch)
    res.check_s = time.perf_counter() - t0


def _exact_trial(mods, inp: ExactInput, tracer: Optional[Tracer], res: "TrialResult",
                 scratch: str) -> None:
    res.shape = list(inp.shape)
    g, small = exact_graphs(mods, inp)
    if tracer is None:
        res.seconds, (cert, tau) = run_exact_trial(mods, g, small, None)
    else:
        with TracedLibrary(tracer, mods):
            res.seconds, (cert, tau) = run_exact_trial(mods, g, small, tracer)
    res.classes = tau
    res.ratio = tau / tau_counting_bound(len(inp.small_edges))
    res.sha256 = hashlib.sha256(cert).hexdigest()
    t0 = time.perf_counter()
    res.checks = check_exact(mods, inp, cert, tau)
    res.check_s = time.perf_counter() - t0


def run_workload(mods, work, seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> list[TrialResult]:
    """Closed loop over the workload's trials until `seconds` have passed.
    Exact trials come in whole decks.  With a tracer every trial runs twice,
    untraced and traced, the order alternating from one trial to the next."""
    if isinstance(work, Exact):
        shapes = work.shapes(mods["catalog"])
        batches = (exact_inputs(work, seed, deck, shapes) for deck in itertools.count())
        trial = _exact_trial
    else:
        batches = ([work.spec(mods["cli"], seed, i)] for i in itertools.count())
        trial = _pipeline_trial
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"check-{os.getpid()}")
    results: list[TrialResult] = []
    count = 0
    t_begin = time.perf_counter()
    for batch in batches:
        for item in batch:
            if tracer is None:
                modes = (None,)
            else:
                modes = (None, tracer) if count % 2 == 0 else (tracer, None)
            count += 1
            for mode in modes:
                res = TrialResult(seed=seed, seconds=float("nan"), traced=mode is not None)
                if mode is not None:
                    mode.current_trial += 1
                try:
                    trial(mods, item, mode, res, scratch)
                except Exception:  # a failed trial is counted, the loop goes on
                    res.error = traceback.format_exc()
                    sys.stderr.write(res.error)
                results.append(res)
        if time.perf_counter() - t_begin >= seconds:
            break
    return results


def warm_up(mods, name: str) -> None:
    """One small trial of the workload, outside every measurement."""
    small = WORKLOADS[name][1]
    if isinstance(small, Exact):
        inp = exact_inputs(small, 0, 0, small.shapes(mods["catalog"]))[0]
        run_exact_trial(mods, *exact_graphs(mods, inp), None)
    else:
        mods["cli"].run_trial(small.spec(mods["cli"], 0, 0))


def measure_setup(name: str) -> list[float]:
    """Wall seconds from spawning a fresh interpreter, through importing
    taulab and the warm-up trial, to the point where timing would start."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# provenance and output


def _git_revision() -> Optional[str]:
    # only this checkout's own repository: git would otherwise search upwards
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over src/ (paths and bytes), which names the code under test
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(name: str, work, seed: int, seconds: float, trace: int) -> dict:
    params = asdict(work)
    if isinstance(work, Pipeline):
        params["p"] = work.p
        params["experiment_flags"] = work.flags()
    return {
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": nx.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def end_to_end_metrics(results: list[TrialResult], setup: list[float]) -> dict:
    good = [r for r in results if not r.failed]
    return {
        "trial_s": statistics.median(r.seconds for r in good),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "classes": statistics.median(r.classes for r in good),
        "bound_ratio": statistics.median(r.ratio for r in good),
    }


def p90(times) -> Optional[float]:
    """90th percentile, only when at least ten samples lie beyond it."""
    times = list(times)
    return statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    mods = _import_taulab()
    warm_up(mods, args.workload)
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    work = WORKLOADS[args.workload][0]
    setup = measure_setup(args.workload) if args.trace == 0 else []
    tracer = Tracer() if args.trace else None
    results = run_workload(mods, work, args.seed, args.seconds, tracer)

    attempted = len(results)
    failed = sum(r.failed for r in results)
    untraced = [r for r in results if not r.traced and not r.failed]
    traced = [r for r in results if r.traced and not r.failed]
    metrics: dict = {}
    if untraced and (traced or not tracer):
        if tracer:
            metrics = per_layer_metrics(
                tracer, len(traced), [r.seconds for r in untraced],
                [r.seconds for r in traced])
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(results, setup)
            units = END_TO_END
        metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write_spans(stem + ".spans.csv")
    report = {
        "provenance": provenance(args.workload, work, args.seed, args.seconds, args.trace),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "trials": len(untraced),
        "trial_s_p90": p90(r.seconds for r in untraced),
        "setup_probes_s": setup,
        "metrics": metrics,
        "trial_results": [asdict(r) for r in results],
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
