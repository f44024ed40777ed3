import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab import rng as rngmod
from taulab.catalog import ahu_code, free_trees
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
    res = greedy_embed(lazy, [path_tree(t)], 10**6, rngmod.stream(1, 0))
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
        greedy_embed(lazy, [star], 100, rngmod.stream(1, 0))
    single = Graph.from_edges(1, [])
    with pytest.raises(ValueError):
        greedy_embed(lazy, [single], 100, rngmod.stream(1, 0))


def test_counter_identities():
    lazy = LazyRandomGraph(60, 0.4, 3)
    trees = maxdeg3_trees(5) + maxdeg3_trees(6)
    res = greedy_embed(lazy, trees, 10**6, rngmod.stream(3, 0))
    assert res.status == "supply_exhausted"
    tr = res.trace
    assert sum(tr.rev) == 2 * tr.steps
    assert sum(tr.rev_active) == tr.steps
    assert sum(tr.rev_inactive) == tr.steps
    for v in range(60):
        assert tr.rev[v] == tr.rev_active[v] + tr.rev_inactive[v]


def test_budget_exhaustion_discards_partial():
    lazy = LazyRandomGraph(50, 1.0, 2)
    res = greedy_embed(lazy, [path_tree(10)], 4, rngmod.stream(2, 0))
    assert res.status == "budget_exhausted"
    assert res.embedded == []
    assert res.trace.steps == 4
    assert res.trace.spans == []


def test_failure_when_candidates_run_out():
    n = 12
    lazy = LazyRandomGraph(n, 0.0, 5)
    res = greedy_embed(lazy, [path_tree(2)], 10**6, rngmod.stream(5, 0))
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
            lazy, maxdeg3_trees(6), 10**5, rngmod.stream(7, 0)
        )

    a, b = run(), run()
    assert a.status == b.status
    assert [t.code for t in a.embedded] == [t.code for t in b.embedded]
    assert [t.mapping for t in a.embedded] == [t.mapping for t in b.embedded]
    assert a.trace.rev == b.trace.rev


def test_embedded_trees_live_in_host():
    supply = maxdeg3_trees(6)
    lazy = LazyRandomGraph(100, 0.3, 11)
    res = greedy_embed(lazy, supply, 10**5, rngmod.stream(11, 0))
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
        lazy, maxdeg3_trees(5), 10**4, rngmod.stream(13, 0), record_log=True
    )
    assert res.status == "supply_exhausted"
    assert res.trace.log is not None
    assert len(res.trace.log) == res.trace.steps
    hits = sum(1 for _, _, _, hit in res.trace.log if hit)
    assert hits == sum(len(t.edges) for t in res.embedded)
    # without the flag no log is kept
    quiet = greedy_embed(
        LazyRandomGraph(40, 0.5, 13), maxdeg3_trees(5), 10**4, rngmod.stream(13, 0)
    )
    assert quiet.trace.log is None


def test_diagnostics_thresholds():
    lazy = LazyRandomGraph(200, 0.2, 17)
    res = greedy_embed(lazy, maxdeg3_trees(6), 3000, rngmod.stream(17, 0))
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
    res = greedy_embed(lazy, maxdeg3_trees(5), 500, rngmod.stream(19, 0))
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
    res = greedy_embed(lazy, supply, 400, rngmod.stream(seed, 1))
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
