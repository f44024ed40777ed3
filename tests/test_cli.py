import csv
import hashlib
import json
import time

import pytest

from taulab import graph
from taulab.cli import CSV_COLUMNS, main, trial_seed
from taulab.coloring import read_coloring
from taulab.graph import Graph, write_edgelist


def lines(capsys) -> list[str]:
    return capsys.readouterr().out.strip().splitlines()


def kv(out_lines: list[str]) -> dict[str, str]:
    return {l.split(" ", 1)[0]: l.split(" ", 1)[1] for l in out_lines if " " in l}


# --- exit codes ------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path):
    out = str(tmp_path / "g.edges")
    cases = [
        ["gen", "--n", "10", "--seed", "1", "--out", out],  # no density flag
        ["gen", "--n", "10", "--p", "0.5", "--p-over-n", "3", "--seed", "1", "--out", out],
        ["gen", "--n", "10", "--p", "1.5", "--seed", "1", "--out", out],
        ["nonsense"],
        ["tau-exact"],
        ["color", "--regime", "verysparse", "--n", "30", "--p", "0.01", "--seed", "1"],
        ["embed", "--n", "50", "--p", "0.5", "--seed", "3", "--budget", "-5"],
        ["embed", "--n", "50", "--p", "0.5", "--seed", "3", "--tree-order", "1"],
        ["embed", "--n", "50", "--p", "0.5", "--seed", "3", "--tree-order", "0"],
        ["color", "--regime", "sparse", "--n", "50", "--p-over-n", "3", "--seed", "1",
         "--no-verify"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


def test_missing_file_exits_2(capsys, tmp_path):
    assert main(["census", "--in", str(tmp_path / "absent.edges")]) == 2
    assert "taulab:" in capsys.readouterr().err


def test_vertex_id_beyond_int64_exits_2(capsys, tmp_path):
    f = tmp_path / "huge.edges"
    f.write_text("3 1\n0 99999999999999999999\n")
    assert main(["census", "--in", str(f)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_pair_rank_beyond_int64_exits_2(capsys, tmp_path):
    # both ids fit the header's n, but the pair's rank passes 2^63
    f = tmp_path / "wide.edges"
    f.write_text("10000000000 1\n0 9999999999\n")
    assert main(["census", "--in", str(f)]) == 2
    assert "edge (0, 9999999999) out of range" in capsys.readouterr().err


def test_construction_failure_exits_2(capsys, tmp_path):
    # inside the density window but far too few path components for a box
    rc = main(
        [
            "color",
            "--regime",
            "verysparse",
            "--n",
            "30",
            "--p",
            "0.012",
            "--k",
            "4",
            "--seed",
            "1",
        ]
    )
    assert rc == 2
    assert "census too small" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--n", "46342", "--p", "0.5", "--seed", "1"],
        ["color", "--regime", "dense", "--n", "46342", "--p", "0.5", "--seed", "1"],
    ],
)
def test_dense_above_the_outcome_cap_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "n=46342" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "1000", "--p-over-n", "30", "--seed", "1", "--out", "g.edges"],
        ["color", "--regime", "sparse", "--n", "1000", "--p-over-n", "30", "--seed", "1"],
        ["color", "--regime", "verysparse", "--n", "10000", "--p-exponent", "1.3",
         "--k", "4", "--seed", "1", "--proceed"],
        ["experiment", "--regime", "sparse", "--n", "1000", "--p-over-n", "30",
         "--trials", "2", "--seed", "1", "--out", "e.csv"],
    ],
)
def test_sampling_above_the_edge_cap_exits_2(capsys, monkeypatch, tmp_path, argv):
    # the cap is lowered so that the refusal is tested without a large graph
    monkeypatch.setattr(graph, "_MAX_EXPECTED_EDGES", 100)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "edges, above the cap of 100 edges" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- gen / census ----------------------------------------------------------


def test_gen_census_round_trip(capsys, tmp_path):
    out = str(tmp_path / "g.edges")
    assert main(["gen", "--n", "200", "--p", "0.05", "--seed", "3", "--out", out]) == 0
    info = kv(lines(capsys))
    assert info["n"] == "200"
    m = int(info["m"])
    assert m == len(open(out).read().splitlines()) - 1

    assert main(["census", "--in", out]) == 0
    text = lines(capsys)
    assert any(l.startswith("components ") for l in text)

    assert main(["census", "--in", out, "--json"]) == 0
    payload = json.loads(lines(capsys)[0])
    assert payload["vertices_in_components"] == 200
    assert payload["components"] >= 1


# --- tau-exact -------------------------------------------------------------


def test_tau_exact_bundled(capsys):
    for name, want in (("k3", "2"), ("p3", "1"), ("k4", "3")):
        assert main(["tau-exact", "--bundled", name]) == 0
        assert lines(capsys) == [want]


def test_tau_exact_from_file(capsys, tmp_path):
    f = str(tmp_path / "m3.edges")
    write_edgelist(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), f)
    assert main(["tau-exact", "--in", f]) == 0
    assert lines(capsys) == ["2"]


def test_tau_exact_cap(capsys, tmp_path):
    f = str(tmp_path / "c9.edges")
    write_edgelist(Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)]), f)
    assert main(["tau-exact", "--in", f]) == 2  # over the default edge cap
    capsys.readouterr()
    assert main(["tau-exact", "--in", f, "--max-edges", "9"]) == 0
    assert lines(capsys) == ["4"]


def test_tau_exact_ceiling_fails_fast(capsys, tmp_path):
    # 20 edges would sign 2^20 subsets and then search without end
    f = str(tmp_path / "c20.edges")
    write_edgelist(Graph.from_edges(20, [(i, (i + 1) % 20) for i in range(20)]), f)
    t0 = time.perf_counter()
    assert main(["tau-exact", "--in", f, "--max-edges", "13"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "max_edges <= 12" in capsys.readouterr().err


# --- bounds ----------------------------------------------------------------


def test_bounds_output(capsys):
    assert main(["bounds", "--k", "4"]) == 0
    info = kv(lines(capsys))
    assert info["ell"] == "3"
    assert info["theta_exponent_n"] == "5/3"
    assert info["theta_exponent_p"] == "1"
    assert info["claim_check"] == "true"


def test_bounds_with_scale(capsys):
    assert main(["bounds", "--k", "4", "--n", "100000", "--p-exponent", "1.3"]) == 0
    info = kv(lines(capsys))
    assert float(info["window_low"]) < float(10**5) ** -1.3 < float(info["window_high"])
    assert "theta" in info and "f_dense" in info and "upper_dense" in info


# --- embed -----------------------------------------------------------------


def test_embed_cli(capsys, tmp_path):
    report = str(tmp_path / "report.json")
    rc = main(
        [
            "embed",
            "--n",
            "100",
            "--p",
            "0.5",
            "--seed",
            "2",
            "--tree-order",
            "4",
            "--report",
            report,
        ]
    )
    assert rc == 0
    info = kv(lines(capsys))
    assert info["status"] == "supply_exhausted"
    assert info["embedded"] == "2"  # both maxdeg-3 shapes on 4 vertices
    assert info["diagnostics_ok"] == "true"
    payload = json.loads(open(report).read())
    assert payload["embedded_count"] == 2
    assert payload["steps"] == int(info["steps"])


# The digests pin the JSON report and the stdout lines of one budgeted run
# and of one run that ends "failed", so a change to the embedding's draws,
# reveals or bookkeeping that alters seeded output fails here.
EMBED_PINS = {
    "budgeted": (
        ["--n", "300", "--p", "0.5", "--seed", "7"],
        0,
        "59e68630d2e0ab59ca9452162e1d6c0292343ef7671c515dac87e05735a06e7a",
        "9300e510d1b511d03ad2961116b213b7d9464fca855c73502c851586f0824a80",
    ),
    "failed": (
        ["--n", "12", "--p", "0.1", "--seed", "2", "--budget", "10000"],
        2,
        "672fec90bb86623f5136902907c1f977b4411e3df653ebe61928a75202440bd5",
        "88809136ebf15db9d4d0aeb7aa99f5cc5f4b64f6d92b12099ca2047058df73ce",
    ),
}


@pytest.mark.parametrize("case", sorted(EMBED_PINS))
def test_embed_outputs_pinned(capsys, tmp_path, case):
    flags, rc, report_digest, stdout_digest = EMBED_PINS[case]
    report = str(tmp_path / "report.json")
    assert main(["embed", *flags, "--report", report]) == rc
    assert sha256(capsys.readouterr().out) == stdout_digest
    assert sha256(open(report).read()) == report_digest


def test_embed_zero_budget_runs_no_step(capsys):
    # 0 is a budget, not "use the default eps n^2" (25 steps at n = 50)
    argv = ["embed", "--n", "50", "--p", "0.5", "--seed", "3", "--budget", "0"]
    assert main(argv) == 0
    info = kv(lines(capsys))
    assert info["status"] == "budget_exhausted"
    assert info["steps"] == "0"


# --- pack-paths ------------------------------------------------------------


def test_pack_paths_cli(capsys, tmp_path):
    f = str(tmp_path / "c30.edges")
    write_edgelist(Graph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)]), f)
    out = str(tmp_path / "paths.txt")
    assert main(["pack-paths", "--in", f, "--target-len", "5", "--out", out]) == 0
    info = kv(lines(capsys))
    count = int(info["paths"])
    assert count >= 2
    assert info["target_len"] == "5"
    rows = open(out).read().splitlines()
    assert len(rows) == count
    assert all(len(r.split()) == 6 for r in rows)


# --- color -----------------------------------------------------------------


def test_color_sparse_cli(capsys, tmp_path):
    out = str(tmp_path / "col.txt")
    # the default k = ceil(ln^2 n) would not fit on length-10 paths at this
    # toy scale, so pick a small forest size explicitly
    rc = main(
        [
            "color",
            "--regime",
            "sparse",
            "--n",
            "200",
            "--p-over-n",
            "3",
            "--seed",
            "5",
            "--k",
            "5",
            "--out",
            out,
        ]
    )
    assert rc == 0
    info = kv(lines(capsys))
    assert int(info["classes"]) >= 2
    assert info["verify_distinct"] == "true"
    col = read_coloring(out)
    assert col.num_classes == int(info["classes"])


def test_color_dense_cli(capsys):
    rc = main(
        ["color", "--regime", "dense", "--n", "300", "--p", "0.5", "--seed", "7"]
    )
    assert rc == 0
    info = kv(lines(capsys))
    assert int(info["classes"]) >= 2
    assert info["verify_distinct"] == "true"


def test_color_verysparse_cli(capsys):
    rc = main(
        [
            "color",
            "--regime",
            "verysparse",
            "--n",
            "30000",
            "--p-exponent",
            "1.3",
            "--k",
            "4",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    info = kv(lines(capsys))
    assert int(info["classes"]) >= 2
    assert info["verify_distinct"] == "true"


def test_verysparse_window_guard(capsys):
    argv = [
        "color",
        "--regime",
        "verysparse",
        "--n",
        "100",
        "--p",
        "0.01",
        "--k",
        "4",
        "--seed",
        "1",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "outside the very sparse window" in err
    assert "pass --proceed to run anyway" in err
    # --proceed moves past the guard; this tiny graph then fails to build
    assert main(argv + ["--proceed"]) == 2
    err = capsys.readouterr().err
    assert "pass --proceed" not in err


# --- experiment ------------------------------------------------------------


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip_millis(path: str) -> list[str]:
    out = []
    for i, line in enumerate(open(path).read().splitlines()):
        out.append(line if i == 0 else line.rsplit(",", 1)[0])
    return out


def test_experiment_cli(capsys, tmp_path):
    out = str(tmp_path / "runs.csv")
    json_out = str(tmp_path / "runs.json")
    argv = [
        "experiment",
        "--regime",
        "sparse",
        "--n",
        "500",
        "--p-over-n",
        "3",
        "--trials",
        "3",
        "--seed",
        "1",
        "--out",
        out,
        "--json-out",
        json_out,
    ]
    assert main(argv) == 0
    summary = json.loads(lines(capsys)[0])
    assert summary["trials"] == 3
    assert summary["all_ok"] is True
    assert open(json_out).read().strip() == json.dumps(summary, sort_keys=True)

    rows = read_rows(out)
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert int(row["seed"]) == trial_seed(1, i)
        assert row["regime"] == "sparse"
        assert row["ok"] == "true"
        assert int(row["classes"]) >= 1


def test_experiment_deterministic_and_parallel(capsys, tmp_path):
    a, b, c = (str(tmp_path / f"{x}.csv") for x in "abc")
    base = [
        "experiment",
        "--regime",
        "sparse",
        "--n",
        "400",
        "--p-over-n",
        "3",
        "--trials",
        "4",
        "--seed",
        "9",
    ]
    assert main(base + ["--out", a]) == 0
    first = lines(capsys)[0]
    assert main(base + ["--out", b]) == 0
    second = lines(capsys)[0]
    assert main(base + ["--out", c, "--jobs", "2"]) == 0
    third = lines(capsys)[0]
    assert first == second == third
    assert strip_millis(a) == strip_millis(b) == strip_millis(c)


def test_experiment_trials_cap(capsys, tmp_path):
    # one more trial and trial_seed(1, i) would reach trial_seed(2, 0); the
    # flag is refused before any trial runs
    assert trial_seed(1, 1_000_002) < trial_seed(2, 0)
    out = tmp_path / "runs.csv"
    argv = ["experiment", "--regime", "sparse", "--n", "10", "--p", "0.5",
            "--seed", "1", "--trials", "1000004", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "--trials above 1000003" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_needs_a_trial(capsys, tmp_path, trials):
    # an empty batch has no summary; the flag is refused before any file
    # is written
    out = tmp_path / "runs.csv"
    argv = ["experiment", "--regime", "sparse", "--n", "10", "--p", "0.5",
            "--seed", "1", "--trials", trials, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# --- byte-identity pins ----------------------------------------------------

# A small very sparse instance inside the k=4 window.  The digests pin the
# colouring file, the experiment CSV without its millis column and the
# census output, so any change to the component labelling, the census or the
# class construction that alters seeded output fails here.
PIN_FLAGS = ["--regime", "verysparse", "--n", "20000", "--p-exponent", "1.3",
             "--k", "4", "--seed", "7"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_verysparse_outputs_pinned(capsys, tmp_path):
    col = str(tmp_path / "col.txt")
    assert main(["color", *PIN_FLAGS, "--out", col]) == 0
    assert kv(lines(capsys)) == {
        "classes": "5",
        "upper_bound": "191.24911397984096",
        "verify_distinct": "true",
    }
    assert sha256(open(col).read()) == (
        "0e8d4544b798a2c4bd5c0c09fa85e159a7182e4c938ba032bc215eae38d40bb9"
    )

    runs = str(tmp_path / "runs.csv")
    assert main(["experiment", *PIN_FLAGS, "--trials", "3", "--out", runs]) == 0
    capsys.readouterr()
    assert sha256("\n".join(strip_millis(runs))) == (
        "abd65e7330a1b2142f18b37a75a08f8af250f80341049a0a2b8d7b2171ef116a"
    )

    edges = str(tmp_path / "g.edges")
    gen = ["gen", "--n", "20000", "--p-exponent", "1.3", "--seed", "7"]
    assert main([*gen, "--out", edges]) == 0
    capsys.readouterr()
    assert main(["census", "--in", edges, "--json"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "3cf6182921bfaa2fb41fb24e778d26c13dc568a6884ea29947021fd3cbfb91a9"
    )
    assert main(["census", "--in", edges]) == 0
    assert sha256(capsys.readouterr().out) == (
        "598d167edf0e6bd72012e73f58760d5777923d11858efe603a020d605f4f44b3"
    )


# Dense and sparse instances small enough for the unit suite.  The colouring
# file, the experiment CSV without millis and the stdout lines are pinned, so
# a change to the graph store, the builders or the writers that alters seeded
# output fails here.
REGIME_PINS = {
    "dense": (
        ["--regime", "dense", "--n", "300", "--p", "0.5", "--seed", "7"],
        {"classes": "20", "upper_bound": "27473.28810465374"},
        "67517b4a3bad42edbdd28ab491ef32823b39f3b6a79f1ea77a75773470ac795e",
        "6b488eb01474a665710911e806514d63d7aee947c9b17976c601ac48b423655e",
    ),
    "sparse": (
        ["--regime", "sparse", "--n", "2000", "--p-over-n", "30", "--seed", "7"],
        {"classes": "31", "upper_bound": "32021.465804335203"},
        "5c76adbfc2fbe53ff7d001b0406aaacc785cbda192f45c75b4edf685ed70f211",
        "836c8a34c39ab00fb203770cca4e0e7591bee6c12b5a030b7c8c012ce40e2305",
    ),
}


@pytest.mark.parametrize("regime", sorted(REGIME_PINS))
def test_regime_outputs_pinned(capsys, tmp_path, regime):
    flags, info, col_digest, csv_digest = REGIME_PINS[regime]
    col = str(tmp_path / "col.txt")
    assert main(["color", *flags, "--out", col]) == 0
    assert kv(lines(capsys)) == {**info, "verify_distinct": "true"}
    assert sha256(open(col).read()) == col_digest

    runs = str(tmp_path / "runs.csv")
    assert main(["experiment", *flags, "--trials", "3", "--out", runs]) == 0
    capsys.readouterr()
    assert sha256("\n".join(strip_millis(runs))) == csv_digest


# n = 2000 has C(n, 2) <= 2**22 pairs, so gen_gnp draws one Bernoulli per
# pair; n = 5000 at p = 5/n takes the binomial plus rank-sampling branch.
GEN_PINS = {
    "bernoulli": (
        ["--n", "2000", "--p-over-n", "30", "--seed", "7"],
        "30150",
        "0a98b334010a3e7b57f4b4be6039732eaaf33487a0cb3785d6dd7ab580baccec",
    ),
    "rank": (
        ["--n", "5000", "--p-over-n", "5", "--seed", "7"],
        "12315",
        "ff3fcd5eb391d5b5abb0a587d27fdfa561a8ee682f360a863231d2f13b0452ae",
    ),
}


@pytest.mark.parametrize("branch", sorted(GEN_PINS))
def test_gen_outputs_pinned(capsys, tmp_path, branch):
    flags, m, digest = GEN_PINS[branch]
    out = str(tmp_path / "g.edges")
    assert main(["gen", *flags, "--out", out]) == 0
    assert kv(lines(capsys))["m"] == m
    assert sha256(open(out).read()) == digest
