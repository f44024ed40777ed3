"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Every workload runs with its warm-up input in place of the measured one, so
the whole file takes seconds.  It checks the output contract against
BENCHMARK.json, that the output checks run and catch a broken colouring,
that traced self times add up, and that pipeline class counts match
`taulab experiment` with the same flags and seed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Measured inputs replaced by the warm-up ones, one setup probe, and
    result files in a temporary directory."""
    monkeypatch.setattr(
        bench, "WORKLOADS", {name: (small, small) for name, (_, small) in bench.WORKLOADS.items()}
    )
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    return tmp_path


def run_bench(capsys, workload: str, trace: int, seed: int = 1) -> dict:
    rc = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    assert rc == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


def test_config_matches_the_runner():
    assert [w["name"] for w in CONFIG["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    out = run_bench(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    report_path = tiny / f"{workload}-seed1-trace{trace}.json"
    with open(report_path, encoding="ascii") as fh:
        report = json.load(fh)
    prov = report["provenance"]
    for key in ("src_sha256", "python", "numpy", "networkx", "nproc", "cpu_model",
                "seed", "params"):
        assert prov[key] is not None, key
    # the output checks ran on every trial and all passed
    for trial in report["trial_results"]:
        assert trial["checks"] and all(trial["checks"].values())
        assert len(trial["sha256"]) == 64


@pytest.mark.parametrize("workload", ["dense", "sparse", "verysparse", "exact"])
def test_traced_self_times_add_up(tiny, capsys, workload):
    metrics = run_bench(capsys, workload, 1)["metrics"]
    total = metrics["cli.run_trial_s"]["value"]
    parts = sum(
        v["value"] for k, v in metrics.items()
        if v["unit"] == "s" and k != "cli.run_trial_s"
    )
    assert parts == pytest.approx(total, rel=1e-9)
    assert metrics["trace_overhead"]["value"] > 0


def test_traced_counters_follow_the_regime(tiny, capsys):
    dense = run_bench(capsys, "dense", 1)["metrics"]
    assert dense["embed.steps"]["value"] > 0
    assert 0 < dense["embed.hit_rate"]["value"] <= 1
    assert dense["pathpack.paths"]["value"] == 0
    sparse = run_bench(capsys, "sparse", 1)["metrics"]
    assert sparse["pathpack.paths"]["value"] > 0
    assert 0 < sparse["pathpack.path_yield"]["value"] <= 1
    assert sparse["embed.steps"]["value"] == 0
    exact = run_bench(capsys, "exact", 1)["metrics"]
    assert exact["coloring.canonical_form_calls"]["value"] >= 1
    assert exact["coloring.signatures"]["value"] > 0


def test_library_is_restored_after_tracing(tiny, capsys):
    from taulab import cli, coloring, graph

    before = (cli.run_trial, cli.verify_distinct, cli.gen_gnp, coloring.canonical_form,
              graph.Graph.__dict__["from_edges"], coloring.Coloring.__post_init__)
    run_bench(capsys, "sparse", 1)
    after = (cli.run_trial, cli.verify_distinct, cli.gen_gnp, coloring.canonical_form,
             graph.Graph.__dict__["from_edges"], coloring.Coloring.__post_init__)
    assert before == after


def test_checks_catch_a_broken_colouring(tiny, capsys, monkeypatch):
    from taulab import cli

    build = cli.build_sparse_coloring

    def drop_first_class(*args, **kwargs):
        col = build(*args, **kwargs)
        # bypass the frozen dataclass and its validation: an uncovered edge set
        object.__setattr__(col, "classes", col.classes[1:])
        object.__setattr__(col, "labels", col.labels[1:])
        return col

    monkeypatch.setattr(cli, "build_sparse_coloring", drop_first_class)
    out = run_bench(capsys, "sparse", 0)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1
    with open(tiny / "sparse-seed1-trace0.json", encoding="ascii") as fh:
        report = json.load(fh)
    assert report["failed_frac"] == 1.0
    assert not report["trial_results"][0]["checks"]["covers_host"]


@pytest.mark.parametrize("workload", ["dense", "sparse", "verysparse"])
def test_classes_match_taulab_experiment(tiny, capsys, workload):
    from taulab import cli

    run_bench(capsys, workload, 0, seed=3)
    with open(tiny / f"{workload}-seed3-trace0.json", encoding="ascii") as fh:
        trials = json.load(fh)["trial_results"]
    csv_path = str(tiny / "experiment.csv")
    flags = bench.WORKLOADS[workload][0].flags()
    argv = ["experiment", *flags, "--trials", str(len(trials)), "--seed", "3",
            "--out", csv_path, "--proceed"]
    assert cli.main(argv) == 0
    with open(csv_path, encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["classes"]) for r in rows] == [t["classes"] for t in trials]
    assert [int(r["seed"]) for r in rows] == [t["seed"] for t in trials]


def test_tau_counting_bound_is_an_upper_bound():
    from taulab import coloring
    from taulab.graph import Graph

    assert [bench.tau_counting_bound(m) for m in range(1, 9)] == [1, 1, 2, 2, 3, 3, 3, 4]
    for m in range(1, 9):
        matching = Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        assert coloring.tau_exact(matching) <= bench.tau_counting_bound(m)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
