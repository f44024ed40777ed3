import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blockwise_materialize, coded, scalar_greedy_embed
from taulab import embed
from taulab import rng as rngmod
from taulab.catalog import ahu_code, free_trees, rooted_to_graph, sample_rooted_binary
from taulab.embed import (
    LazyRandomGraph,
    diagnostics_check,
    embed_report,
    greedy_embed,
    materialize,
    save_embed_report,
)
from taulab.graph import Graph


def path_tree(t: int) -> Graph:
    return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])


def maxdeg3_trees(t: int) -> list[Graph]:
    # the embedder rejects higher degrees, so filter the stars out
    return [g for g in free_trees(t) if max(len(a) for a in g.adj) <= 3]


def test_reveal_extremes():
    g1 = LazyRandomGraph(6, 1.0, 0)
    assert g1.reveal(0, 1) is True
    g0 = LazyRandomGraph(6, 0.0, 0)
    assert g0.reveal(0, 1) is False


def test_reveal_rejects_bad_pairs():
    g = LazyRandomGraph(5, 0.5, 0)
    with pytest.raises(ValueError):
        g.reveal(2, 2)
    with pytest.raises(ValueError):
        g.reveal(0, 5)
    g.reveal(0, 1)
    with pytest.raises(ValueError):
        g.reveal(1, 0)  # already revealed, either orientation


def test_reveal_matches_materialize():
    lazy = LazyRandomGraph(40, 0.3, 9)
    outcomes = {}
    for u in range(10):
        for v in range(u + 1, 10):
            outcomes[(u, v)] = lazy.reveal(u, v)
    full = materialize(lazy)
    for (u, v), present in outcomes.items():
        assert full.has_edge(u, v) == present
    # outcomes are a pure function of (seed, pair): a fresh instance agrees
    again = materialize(LazyRandomGraph(40, 0.3, 9))
    assert again.edges == full.edges


def test_embed_p1_single_tree():
    t = 6
    lazy = LazyRandomGraph(30, 1.0, 1)
    res = greedy_embed(lazy, coded([path_tree(t)]), 10**6, rngmod.stream(1, 0))
    assert res.status == "supply_exhausted"
    assert len(res.embedded) == 1
    # with p = 1 every reveal is a hit: exactly t - 1 steps
    assert res.trace.steps == t - 1
    assert res.trace.spans == [(1, t - 1)]
    tree = res.embedded[0]
    assert tree.code == ahu_code(path_tree(t))
    assert len(set(tree.mapping.values())) == t
    assert sum(res.trace.activations) == t


def test_embed_rejects_bad_supply():
    lazy = LazyRandomGraph(30, 0.5, 1)
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(ValueError):
        greedy_embed(lazy, coded([star]), 100, rngmod.stream(1, 0))
    single = Graph.from_edges(1, [])
    with pytest.raises(ValueError):
        greedy_embed(lazy, coded([single]), 100, rngmod.stream(1, 0))


def test_counter_identities():
    lazy = LazyRandomGraph(60, 0.4, 3)
    trees = maxdeg3_trees(5) + maxdeg3_trees(6)
    res = greedy_embed(lazy, coded(trees), 10**6, rngmod.stream(3, 0))
    assert res.status == "supply_exhausted"
    tr = res.trace
    assert sum(tr.rev) == 2 * tr.steps
    assert sum(tr.rev_active) == tr.steps
    assert sum(tr.rev_inactive) == tr.steps
    for v in range(60):
        assert tr.rev[v] == tr.rev_active[v] + tr.rev_inactive[v]


def test_budget_exhaustion_discards_partial():
    lazy = LazyRandomGraph(50, 1.0, 2)
    res = greedy_embed(lazy, coded([path_tree(10)]), 4, rngmod.stream(2, 0))
    assert res.status == "budget_exhausted"
    assert res.embedded == []
    assert res.trace.steps == 4
    assert res.trace.spans == []


def test_failure_when_candidates_run_out():
    n = 12
    lazy = LazyRandomGraph(n, 0.0, 5)
    res = greedy_embed(lazy, coded([path_tree(2)]), 10**6, rngmod.stream(5, 0))
    assert res.status == "failed"
    assert res.embedded == []
    assert res.trace.failed
    # the root's image revealed a pair to every other vertex, all absent
    assert res.trace.steps == n - 1
    assert res.trace.failure_step == n - 1


def test_embed_deterministic():
    def run():
        lazy = LazyRandomGraph(80, 0.35, 7)
        return greedy_embed(
            lazy, coded(maxdeg3_trees(6)), 10**5, rngmod.stream(7, 0)
        )

    a, b = run(), run()
    assert a.status == b.status
    assert [t.code for t in a.embedded] == [t.code for t in b.embedded]
    assert [t.mapping for t in a.embedded] == [t.mapping for t in b.embedded]
    assert a.trace.rev == b.trace.rev


def test_embedded_trees_live_in_host():
    supply = maxdeg3_trees(6)
    lazy = LazyRandomGraph(100, 0.3, 11)
    res = greedy_embed(lazy, coded(supply), 10**5, rngmod.stream(11, 0))
    assert res.status == "supply_exhausted"
    assert len(res.embedded) == len(supply)
    host = materialize(lazy)
    used = set()
    for tree, emb in zip(supply, res.embedded):
        assert emb.code == ahu_code(tree)
        assert set(emb.mapping) == set(range(tree.n))
        images = set(emb.mapping.values())
        assert len(images) == tree.n
        want = {
            tuple(sorted((emb.mapping[u], emb.mapping[v])))
            for u, v in tree.edges
        }
        assert set(emb.edges) == want
        for e in emb.edges:
            assert host.has_edge(*e)
            assert e not in used
            used.add(e)


def test_record_log():
    lazy = LazyRandomGraph(40, 0.5, 13)
    res = greedy_embed(
        lazy, coded(maxdeg3_trees(5)), 10**4, rngmod.stream(13, 0), record_log=True
    )
    assert res.status == "supply_exhausted"
    assert res.trace.log is not None
    assert len(res.trace.log) == res.trace.steps
    hits = sum(1 for _, _, _, hit in res.trace.log if hit)
    assert hits == sum(len(t.edges) for t in res.embedded)
    # without the flag no log is kept
    quiet = greedy_embed(
        LazyRandomGraph(40, 0.5, 13),
        coded(maxdeg3_trees(5)),
        10**4,
        rngmod.stream(13, 0),
    )
    assert quiet.trace.log is None


def test_diagnostics_thresholds():
    lazy = LazyRandomGraph(200, 0.2, 17)
    res = greedy_embed(lazy, coded(maxdeg3_trees(6)), 3000, rngmod.stream(17, 0))
    diag = diagnostics_check(res.trace, 0.01, 200)
    assert diag.rev_limit == 1000 * 0.01 * 200
    assert diag.rev_active_limit == 500 * 0.01 * 200
    assert diag.max_rev == max(res.trace.rev)
    assert diag.max_rev_active == max(res.trace.rev_active)
    assert diag.identity_ok
    assert diag.total_ok
    assert diag.rev_ok == (diag.max_rev <= diag.rev_limit)
    with pytest.raises(ValueError):
        diagnostics_check(res.trace, 0.0, 200)


def test_report_round_trip(tmp_path):
    lazy = LazyRandomGraph(50, 0.4, 19)
    res = greedy_embed(lazy, coded(maxdeg3_trees(5)), 500, rngmod.stream(19, 0))
    rep = embed_report(res)
    assert rep["status"] == res.status
    assert rep["embedded_count"] == len(res.embedded)
    assert rep["steps"] == res.trace.steps
    out = tmp_path / "report.json"
    save_embed_report(res, str(out))
    loaded = json.loads(out.read_text())
    assert loaded == json.loads(json.dumps(rep))


@given(st.integers(0, 2**31), st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_embed_invariants_property(seed, p):
    lazy = LazyRandomGraph(30, p, seed)
    supply = maxdeg3_trees(4) + maxdeg3_trees(5)
    res = greedy_embed(lazy, coded(supply), 400, rngmod.stream(seed, 1))
    tr = res.trace
    assert sum(tr.rev) == 2 * tr.steps
    assert tr.steps <= 400
    codes = [t.code for t in res.embedded]
    assert len(set(codes)) == len(codes)
    host = materialize(lazy)
    for tree in res.embedded:
        for u, v in tree.edges:
            assert lazy.is_revealed(u, v)
            assert host.has_edge(u, v)


# --- block draws against the scalar-draw oracle ----------------------------


def plain(value):
    """A generator state with its numpy arrays turned into lists."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def make_rng(kind: str, seed: int) -> np.random.Generator:
    bits = {"philox": np.random.Philox, "pcg64": np.random.PCG64}[kind]
    return np.random.Generator(bits(seed))


# Two bad supply entries: the star is refused before any draw, the 4-cycle
# (handed over with the code of the 4-vertex path) passes the degree and
# connectivity checks, is embedded along a spanning path and only then is
# refused as not a tree, with candidates of its own taken.
BAD_TREES = {
    "star": Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "cycle": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}
BAD_CODES = {"star": ahu_code(BAD_TREES["star"]), "cycle": ahu_code(path_tree(4))}


def make_supply(kind: str, orders: list[int], rng: np.random.Generator):
    """A supply of (tree, code) pairs.  "shared" draws from the picker's own
    generator before each tree, in 64-bit, 32-bit and byte-sized amounts;
    "star" and "cycle" put that bad entry in the middle of the supply."""
    if kind in BAD_TREES:
        half = len(orders) // 2
        return (
            coded(path_tree(t) for t in orders[:half])
            + [(BAD_TREES[kind], BAD_CODES[kind])]
            + coded(path_tree(t) for t in orders[half:])
        )
    if kind == "paths":
        return coded(path_tree(t) for t in orders)

    def shared():
        for t in orders:
            rng.random()
            rng.integers(0, 7)
            tree = rooted_to_graph(sample_rooted_binary(t, rng))
            yield tree, ahu_code(tree)

    return shared()


def run_embed(embed, n, p, seed, supply, orders, budget, rng_kind, log):
    lazy = LazyRandomGraph(n, p, seed)
    rng = make_rng(rng_kind, seed)
    try:
        outcome = embed(lazy, make_supply(supply, orders, rng), budget, rng, log)
    except ValueError as exc:
        outcome = ("raised", str(exc))
    return outcome, lazy._partners, plain(rng.bit_generator.state)


@given(
    n=st.integers(2, 80),
    p=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
    supply=st.sampled_from(["paths", "shared", "star", "cycle"]),
    orders=st.lists(st.integers(2, 12), min_size=1, max_size=8),
    budget=st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 3000)),
    rng_kind=st.sampled_from(["philox", "pcg64"]),
    log=st.booleans(),
)
@example(n=2, p=1.0, seed=3, supply="paths", orders=[3], budget=100,
         rng_kind="philox", log=True)  # candidates run out: "failed"
@example(n=30, p=0.5, seed=2, supply="shared", orders=[5, 6, 7], budget=10**4,
         rng_kind="philox", log=True)  # every tree is embedded
@settings(max_examples=300, deadline=None)
def test_greedy_embed_matches_scalar_oracle(
    n, p, seed, supply, orders, budget, rng_kind, log
):
    args = (n, p, seed, supply, orders, budget, rng_kind, log)
    assert run_embed(greedy_embed, *args) == run_embed(scalar_greedy_embed, *args)


@pytest.mark.parametrize("n", [363, 700, 1500])
@pytest.mark.parametrize("supply", ["paths", "shared"])
def test_greedy_embed_matches_scalar_oracle_across_outcome_blocks(n, supply):
    # above n = 362 the pairs span several outcome blocks of 2**16 ranks
    args = (n, 0.2, n, supply, [12, 9, 14, 7, 11, 10], 2000, "philox", True)
    assert run_embed(greedy_embed, *args) == run_embed(scalar_greedy_embed, *args)


class CountingRng:
    """A generator that records the upper bound of every integers call."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.highs: list[int] = []

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def integers(self, low, high, size=None):
        self.highs.append(high)
        return self._rng.integers(low, high, size=size)


def test_fallback_pick_matches_scalar_oracle():
    # p ~ 0 makes every reveal a miss, so the root's candidate pool shrinks
    # until 40 draws in a row are rejected and the scan picks instead
    n = 80
    rng = CountingRng(make_rng("philox", 1))
    lazy = LazyRandomGraph(n, 1e-9, 1)
    res = greedy_embed(lazy, coded([path_tree(2)]), 10**4, rng)
    assert any(high != n for high in rng.highs)  # the scan drew a pick
    assert res.status == "failed"
    assert res.trace.steps == n - 1
    want = run_embed(scalar_greedy_embed, n, 1e-9, 1, "paths", [2], 10**4,
                     "philox", False)
    assert (res, lazy._partners, plain(rng.bit_generator.state)) == want


@pytest.mark.parametrize(
    "bad, message",
    [
        ("star", "trees must have maximum degree 3"),
        ("cycle", "input is not a tree (wrong edge count)"),
    ],
)
def test_bad_tree_mid_supply_leaves_rng_where_scalar_draws_would(bad, message):
    args = (40, 0.4, 5, bad, [6, 7, 8, 9], 10**4, "philox", False)
    got = run_embed(greedy_embed, *args)
    assert got[0] == ("raised", message)
    assert got == run_embed(scalar_greedy_embed, *args)


@pytest.mark.parametrize("n", [1, 2, 3, 362, 363, 364, 600])
def test_materialize_matches_blockwise_oracle(n):
    # C(362, 2) = 65341 < 2**16 < C(363, 2) = 65703: 362 fits one block of
    # 2**16 ranks, 363 and 364 spill into a second, 600 needs three
    for p in (0.0, 0.3, 1.0):
        lazy = LazyRandomGraph(n, p, 4)
        assert materialize(lazy) == blockwise_materialize(lazy)


@pytest.mark.parametrize("n", [362, 363, 364])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_materialize_after_reveals_matches_blockwise_oracle(n, p):
    # reveals in a shuffled order hash some blocks of the outcome table
    # first; materialize must read those and hash the rest to the same graph
    lazy = LazyRandomGraph(n, p, 6)
    rng = np.random.default_rng(n)
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(400, 2)) if u != v]
    seen = {}
    for u, v in pairs:
        if not lazy.is_revealed(u, v):
            seen[(u, v)] = lazy.reveal(u, v)
    host = materialize(lazy)
    assert host == blockwise_materialize(lazy)
    assert all(host.has_edge(u, v) == hit for (u, v), hit in seen.items())
    # a reveal after materialize reads the same table
    u, v = next((u, v) for u in range(n) for v in range(u + 1, n)
                if not lazy.is_revealed(u, v))
    assert lazy.reveal(u, v) == host.has_edge(u, v)


def test_lazy_graph_refuses_a_table_above_the_cap(monkeypatch):
    # C(46341, 2) fits 2**30 bytes of outcome and C(46342, 2) does not; the
    # refusal comes before the table is allocated
    with pytest.raises(ValueError, match="n=46342 .* cap of 1,073,741,824 pairs"):
        LazyRandomGraph(46342, 0.5, 0)
    # the cap is inclusive: at a cap of 10 pairs, n = 5 fits and n = 6 not
    monkeypatch.setattr(embed, "_MAX_PAIRS", 10)
    assert LazyRandomGraph(5, 0.5, 0).n == 5
    with pytest.raises(ValueError, match="n=6 "):
        LazyRandomGraph(6, 0.5, 0)
