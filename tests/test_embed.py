import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    blockwise_materialize,
    coded,
    free_trees,
    oracle_revealed,
    scalar_greedy_embed,
)
from taulab import embed
from taulab import rng as rngmod
from taulab.catalog import ahu_code
from taulab.embed import (
    LazyRandomGraph,
    diagnostics_check,
    embed_report,
    greedy_embed,
    materialize,
    save_embed_report,
)
from taulab.graph import Graph, edge_tuples


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
    with pytest.raises(ValueError, match="cannot reveal a self-pair"):
        g.reveal(2, 2)
    with pytest.raises(ValueError, match=r"pair \(0, 5\) out of range"):
        g.reveal(0, 5)
    g.reveal(0, 1)
    with pytest.raises(ValueError, match=r"pair \(0, 1\) already revealed"):
        g.reveal(1, 0)  # already revealed, either orientation


def test_is_revealed_is_false_off_the_table():
    g = LazyRandomGraph(5, 1.0, 0)
    g.reveal(3, 4)  # rank C(4, 2) + 3 = 9, the last of the C(5, 2) pairs
    assert g.is_revealed(3, 4) and g.is_revealed(4, 3)
    # (4, 4) would index one past the table, (-1, 0) wraps to its end
    for u, v in [(2, 2), (4, 4), (0, 5), (5, 0), (-1, 0), (0, -1), (4, 5)]:
        assert not g.is_revealed(u, v)
    assert revealed_pairs(g) == {(3, 4)}


def revealed_pairs(lazy: LazyRandomGraph) -> set[tuple[int, int]]:
    """The pairs (u, v), u < v, whose reveal bit is set in lazy's table."""
    return set(edge_tuples(np.flatnonzero(lazy._table & embed._REVEALED)))


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
    # a triangle plus an isolated vertex passes the degree check; ahu_code
    # refuses it, so it comes with a made-up code
    split = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="supplied tree is not connected"):
        greedy_embed(lazy, [(split, b"x")], 100, rngmod.stream(1, 0))


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
    assert embed_report(res)["trace"]["failed"]
    # the root's image revealed a pair to every other vertex, all absent
    assert res.trace.steps == n - 1
    assert embed_report(res)["trace"]["failure_step"] == n - 1


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


def test_diagnostics_thresholds():
    lazy = LazyRandomGraph(200, 0.2, 17)
    res = greedy_embed(lazy, coded(maxdeg3_trees(6)), 3000, rngmod.stream(17, 0))
    diag = diagnostics_check(res.trace, 0.01, 200)
    assert diag.rev_limit == 1000 * 0.01 * 200
    assert diag.rev_active_limit == 500 * 0.01 * 200
    assert diag.max_rev == max(res.trace.rev)
    assert diag.max_rev_active == max(res.trace.rev_active)
    assert diag.total_ok
    with pytest.raises(ValueError):
        diagnostics_check(res.trace, 0.0, 200)
    # total_ok covers rev = rev+ + rev- at each vertex, not just the sum
    res.trace.rev[0] += 1
    res.trace.rev[1] -= 1
    assert not diagnostics_check(res.trace, 0.01, 200).total_ok


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


def make_supply(kind: str, orders: list[int]):
    """A supply of (tree, code) pairs: paths of the given orders, and for
    "star" and "cycle" that bad entry in the middle of the supply."""
    if kind in BAD_TREES:
        half = len(orders) // 2
        return (
            coded(path_tree(t) for t in orders[:half])
            + [(BAD_TREES[kind], BAD_CODES[kind])]
            + coded(path_tree(t) for t in orders[half:])
        )
    return coded(path_tree(t) for t in orders)


def run_embed(embed, n, p, seed, supply, orders, budget, rng_kind):
    """The outcome and the revealed pairs.  The scalar oracle keeps its own
    partner sets, and leaves the graph's reveal bits clear."""
    lazy = LazyRandomGraph(n, p, seed)
    try:
        outcome = embed(lazy, make_supply(supply, orders), budget,
                        make_rng(rng_kind, seed))
    except ValueError as exc:
        outcome = ("raised", str(exc))
    if embed is scalar_greedy_embed:
        assert not revealed_pairs(lazy)
        revealed = oracle_revealed(lazy)
    else:
        assert not oracle_revealed(lazy)
        revealed = revealed_pairs(lazy)
    return outcome, revealed


@given(
    n=st.integers(2, 80),
    p=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
    supply=st.sampled_from(["paths", "star", "cycle"]),
    orders=st.lists(st.integers(2, 12), min_size=1, max_size=8),
    budget=st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 3000)),
    rng_kind=st.sampled_from(["philox", "pcg64"]),
)
@example(n=2, p=1.0, seed=3, supply="paths", orders=[3], budget=100,
         rng_kind="philox")  # candidates run out: "failed"
@example(n=30, p=0.5, seed=2, supply="paths", orders=[5, 6, 7], budget=10**4,
         rng_kind="philox")  # every tree is embedded
@settings(max_examples=300, deadline=None)
def test_greedy_embed_matches_scalar_oracle(
    n, p, seed, supply, orders, budget, rng_kind
):
    args = (n, p, seed, supply, orders, budget, rng_kind)
    assert run_embed(greedy_embed, *args) == run_embed(scalar_greedy_embed, *args)


@pytest.mark.parametrize("n", [363, 700, 1500])
@pytest.mark.parametrize("supply", ["paths"])
def test_greedy_embed_matches_scalar_oracle_across_outcome_blocks(n, supply):
    # above n = 362 the pairs span several outcome blocks of 2**16 ranks
    args = (n, 0.2, n, supply, [12, 9, 14, 7, 11, 10], 2000, "philox")
    assert run_embed(greedy_embed, *args) == run_embed(scalar_greedy_embed, *args)


class RecordingRng:
    """A generator with only an integers method, which records its
    arguments: reading the bit generator, or any other draw, raises."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls: list[tuple] = []

    def integers(self, low, high, size=None):
        self.calls.append((low, high, size))
        return self._rng.integers(low, high, size=size)


def test_greedy_embed_draws_only_candidate_blocks():
    n = 100
    rng = RecordingRng(make_rng("philox", 3))
    res = greedy_embed(LazyRandomGraph(n, 0.1, 3), coded(maxdeg3_trees(8)),
                       10**5, rng)
    assert res.status == "supply_exhausted" and len(res.embedded) > 1
    assert len(rng.calls) > 1  # the run crosses a block boundary
    assert set(rng.calls) == {(0, n, 512)}


def embed_recording_picks(monkeypatch, args):
    """greedy_embed's outcome and revealed pairs on the scenario args (as
    run_embed takes them), with, per fallback pick, the generator block of
    each candidate it took and the vertex it returned."""
    n, p, seed, supply, orders, budget, rng_kind = args
    rng = RecordingRng(make_rng(rng_kind, seed))
    real = embed._pick_after_rejection
    picks = []

    def pick(take, g, active, image):
        blocks = []

        def recorded_take():
            w = take()
            blocks.append(len(rng.calls))
            return w

        w = real(recorded_take, g, active, image)
        picks.append((blocks, w))
        return w

    monkeypatch.setattr(embed, "_pick_after_rejection", pick)
    lazy = LazyRandomGraph(n, p, seed)
    res = greedy_embed(lazy, make_supply(supply, orders), budget, rng)
    assert set(rng.calls) == {(0, n, 512)}
    return (res, revealed_pairs(lazy)), picks


def test_fallback_pick_matches_scalar_oracle(monkeypatch):
    # five 15-vertex paths are embedded in 30 vertices before the sixth runs
    # out of candidates, so the result depends on the vertex each of the 118
    # fallback picks returns; one pick returns after 137 draws, and the last
    # finds no vertex allowed at the check after 40 draws
    args = (30, 0.3, 7, "paths", [15] * 6, 10**4, "philox")
    got, picks = embed_recording_picks(monkeypatch, args)
    res = got[0]
    assert res.status == "failed" and len(res.embedded) == 5
    assert any(len(blocks) > 40 and w is not None for blocks, w in picks)
    assert picks[-1][1] is None
    assert got == run_embed(scalar_greedy_embed, *args)


def test_fallback_pick_across_a_block_boundary_matches_scalar_oracle(monkeypatch):
    # four draws of one fallback pick straddle the second block boundary,
    # and two trees are embedded before a candidate pool empties, so a
    # candidate read out of order changes the result
    args = (80, 0.03, 4, "paths", [12] * 6, 10**4, "philox")
    got, picks = embed_recording_picks(monkeypatch, args)
    assert any(blocks[0] < blocks[-1] for blocks, _ in picks)
    assert len(got[0].embedded) == 2
    assert got == run_embed(scalar_greedy_embed, *args)


class CountingTake:
    """Candidates from generator blocks of 512, as `greedy_embed` takes
    them, counting the calls."""

    def __init__(self, rng: np.random.Generator, n: int):
        self._next = chain.from_iterable(
            iter(lambda: rng.integers(0, n, size=512).tolist(), None)
        ).__next__
        self.takes = 0

    def __call__(self) -> int:
        self.takes += 1
        return self._next()


@pytest.mark.parametrize("k", [0, 2, 3])
def test_fallback_pick_is_uniform_over_the_allowed_vertices(k):
    # all but k + 1 pairs at the active vertex are revealed and one of those
    # k + 1 partners is in the image, so about 82% of the picks with k = 2
    # and 75% with k = 3 come after the 40th draw (the rejected first
    # candidate is the caller's)
    n, active, seeds = 400, 5, 2000
    allowed = [17, 250, 399][:k]
    lazy = LazyRandomGraph(n, 0.5, 0)
    for w in range(n):
        if w not in (active, 100, *allowed):
            lazy.reveal(active, w)
    picks, late = [], 0
    for seed in range(seeds):
        take = CountingTake(np.random.default_rng(seed), n)
        picks.append(embed._pick_after_rejection(take, lazy, active, {100}))
        late += take.takes >= embed._REJECTION_TRIES
    if k == 0:
        assert picks == [None] * seeds
        return
    assert late > seeds // 2
    for w in allowed:
        assert abs(picks.count(w) / seeds - 1 / k) < 0.05
    assert sorted(set(picks)) == allowed


@pytest.mark.parametrize(
    "bad, message",
    [
        ("star", "trees must have maximum degree 3"),
        ("cycle", "input is not a tree (wrong edge count)"),
    ],
)
def test_bad_tree_mid_supply_matches_scalar_oracle(bad, message):
    args = (40, 0.4, 5, bad, [6, 7, 8, 9], 10**4, "philox")
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


@pytest.mark.parametrize("n", [363, 600])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_the_outcome_table_is_complete_at_construction(n, p):
    # every outcome is hashed when the graph is built, over more than one
    # block of hashing; an embedding then adds the reveal bit alone
    lazy = LazyRandomGraph(n, p, 10)
    outcomes = np.zeros(len(lazy._table), dtype=np.bool_)
    outcomes[blockwise_materialize(lazy).ranks] = True
    assert np.array_equal(lazy._table & 1, outcomes)
    res = greedy_embed(lazy, coded(maxdeg3_trees(7)), 400, rngmod.stream(10, 0))
    assert int(lazy._table.max()) <= 3
    assert np.count_nonzero(lazy._table & embed._REVEALED) == res.trace.steps > 0
    assert np.array_equal(lazy._table & 1, outcomes)


@pytest.mark.parametrize("n", [362, 363, 364])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_materialize_after_reveals_matches_blockwise_oracle(n, p):
    # reveals in a shuffled order set reveal bits across the outcome table;
    # materialize must read the outcome bits alone to the same graph
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


@pytest.mark.parametrize("n", [60, 700])
def test_reveal_refuses_pairs_greedy_embed_revealed(n):
    lazy = LazyRandomGraph(n, 0.3, 8)
    res = greedy_embed(lazy, coded(maxdeg3_trees(7)), 400, rngmod.stream(8, 0))
    revealed = revealed_pairs(lazy)
    assert len(revealed) == res.trace.steps > 0
    for u, w in revealed:
        assert lazy.is_revealed(w, u)
        with pytest.raises(ValueError, match="already revealed"):
            lazy.reveal(w, u)


@pytest.mark.parametrize("n", [60, 700])
def test_materialize_after_embedding_equals_a_fresh_graph(n):
    # the reveal bits sit beside the outcomes in the same bytes; materialize
    # must read the outcome bit alone
    lazy = LazyRandomGraph(n, 0.3, 9)
    res = greedy_embed(lazy, coded(maxdeg3_trees(8)), 3000, rngmod.stream(9, 0))
    assert res.trace.steps > 0
    lazy.reveal(*next((u, v) for u in range(n) for v in range(u + 1, n)
                      if not lazy.is_revealed(u, v)))
    assert materialize(lazy) == materialize(LazyRandomGraph(n, 0.3, 9))


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
