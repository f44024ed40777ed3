"""Every script has a test here.  The scripts run from a checkout, with
taulab neither installed nor on PYTHONPATH, and use only its public names."""

import ast
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from taulab import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str, cwd) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- the scan: a test per script, no private taulab names -----------------


def script_faults(scripts: dict[str, str], tests: str) -> list[str]:
    """'name: fault' for each script (file name -> source) that no test
    function in the tests source names, or that imports a _-prefixed name
    from taulab."""
    named = {
        node.value
        for fn in ast.parse(tests).body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    faults = [f"{name}: no test" for name in scripts if name not in named]
    for name, source in scripts.items():
        faults += [
            f"{name}: imports {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("taulab")
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return faults


def test_scan_finds_an_untested_script_and_a_private_import():
    scripts = {
        "a.py": "from taulab.cli import run_trial\n",
        "b.py": "from taulab.coloring import _with_leftover, verify_distinct\n",
        "c.py": "import taulab\n",
    }
    tests = 'def test_a():\n    run("a.py")\ndef test_b():\n    run("b.py")\nC = "c.py"\n'
    assert script_faults(scripts, tests) == ["c.py: no test", "b.py: imports _with_leftover"]


def test_every_script_is_tested_and_public():
    scripts = {p.name: p.read_text() for p in sorted(SCRIPTS.glob("*.py"))}
    assert script_faults(scripts, Path(__file__).read_text()) == []


# --- stage_profile.py ------------------------------------------------------

# the stages each regime's trial runs
REGIME_STAGES = {
    "dense": ["supply", "embed", "materialize", "hash", "build", "verify"],
    "sparse": ["gen", "harvest", "pack", "build", "verify"],
    "verysparse": ["gen", "census", "build", "verify"],
}
DIAGNOSTICS = ["steps", "max_rev", "rev_limit", "max_rev_active", "rev_active_limit"]


def parse_row(row: str) -> tuple[str, dict[str, str]]:
    regime, *cells = row.split()
    return regime, dict(cell.split("=") for cell in cells)


def test_stage_profile_puts_every_name_back():
    profiler = load_script("stage_profile.py")
    rebound = [(mod, name) for mod, name, _ in profiler.TIMED]
    rebound.append((cli, "diagnostics_check"))
    originals = [getattr(mod, name) for mod, name in rebound]
    spec = cli.TrialSpec(trial=0, seed=3, regime="dense", n=200, p=0.3, k=None,
                         epsilon=0.01, c_path=0.05)
    record, seconds, wall, diagnostics = profiler.profile(spec)
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(rebound, originals))
    assert replace(record, millis=0) == replace(cli.run_trial(spec), millis=0)
    assert sorted(seconds) == sorted(REGIME_STAGES["dense"])
    assert 0 < sum(seconds.values()) <= wall
    assert [steps for steps, _ in diagnostics] == [400]  # the budget, epsilon n^2
    with pytest.raises(ValueError, match="requires --k"):
        profiler.profile(replace(spec, regime="verysparse"))
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(rebound, originals))


@pytest.mark.parametrize("regime", sorted(REGIME_STAGES))
def test_stage_profile_runs(tmp_path, regime):
    out = run_script("stage_profile.py", "--regime", regime, "--seeds", "2", cwd=tmp_path)
    rows = [parse_row(row) for row in out]
    assert [(r, cells["seed"]) for r, cells in rows] == [
        (regime, str(cli.trial_seed(1, i))) for i in range(2)
    ]
    for _, cells in rows:
        assert cells["ok"] == "true"
        stages = [float(cells[stage]) for stage in REGIME_STAGES[regime]]
        assert all(ms > 0 for ms in stages)
        # each value is rounded to 0.001 ms
        other, wall = float(cells["other"]), float(cells["wall"])
        assert other >= 0
        assert abs(sum(stages) + other - wall) <= 0.0005 * (len(stages) + 2)
        assert all(key in cells for key in DIAGNOSTICS) == (regime == "dense")


def test_stage_profile_sizes_and_seeds(capsys, monkeypatch):
    profiler = load_script("stage_profile.py")
    monkeypatch.setattr(sys, "argv", ["stage_profile.py", "--regime", "sparse", "verysparse",
                                      "--sizes", "3000", "20000", "--seeds", "2"])
    profiler.main()
    rows = [parse_row(row) for row in capsys.readouterr().out.splitlines()]
    assert [(r, cells["n"], cells["seed"]) for r, cells in rows] == [
        (regime, n, str(cli.trial_seed(1, i)))
        for regime in ("sparse", "verysparse") for n in ("3000", "20000") for i in range(2)
    ]


def test_exact_profile_runs(tmp_path):
    out = run_script("exact_profile.py", "--decks", "1", cwd=tmp_path)
    assert out[0].split() == ["shape", "n", "canonical_ms"]
    rows = [row.split() for row in out[1:22]]
    assert len(rows) == 21  # the part-size shapes of 4 to 9 vertices
    assert rows[0][:2] == ["2,2", "4"] and rows[-1][:2] == ["3,2,2,2", "9"]
    assert all(float(row[2]) > 0 for row in rows)
    (label, tau), (trial_label, trial) = (row.split() for row in out[22:24])
    assert label == "tau_exact_ms" and float(tau) > 0
    # each trial is one canonical form plus the tau drawn with it, so its
    # median is no less than either part's
    assert trial_label == "trial_ms" and float(trial) >= float(tau)
    assert float(trial) >= min(float(row[2]) for row in rows)
    # the crossover table: each kind of batch at each size, on both paths
    assert out[24].split() == ["batch", "edges", "numpy_us", "python_us"]
    table = [row.split() for row in out[25:]]
    sizes = ["8", "16", "32", "64", "128", "256"]
    assert [row[:2] for row in table] == [
        [kind, size] for kind in ("two-edge", "multipartite") for size in sizes
    ]
    assert all(float(us) > 0 for row in table for us in row[2:])
    out = run_script("exact_profile.py", "--tau-edges", "12", "--decks", "1", cwd=tmp_path)
    (label, tau), (trial_label, trial) = (row.split() for row in out[22:24])
    assert label == "tau_exact_ms" and float(tau) > 0
    assert trial_label == "trial_ms" and float(trial) >= float(tau)
