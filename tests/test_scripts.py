"""The scripts run from a checkout, with taulab neither installed nor on
PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_embed_profile_runs(tmp_path):
    out = run_script("embed_profile.py", "--sizes", "200", "400", cwd=tmp_path)
    stages = ["embed_ms", "mat_ms", "us/step", "supply_ms", "verify_ms"]
    assert out[0].split()[-5:] == stages
    assert [row.split()[0] for row in out[1:]] == ["200", "400"]
    for row in out[1:]:
        assert all(float(x) > 0 for x in row.split()[-5:])


def test_sparse_profile_runs(tmp_path):
    out = run_script("sparse_profile.py", "--sizes", "500", "2000", "--seeds", "2",
                     cwd=tmp_path)
    stages = ["gen_ms", "csr_ms", "dfs_ms", "pack_ms", "leftover_ms", "verify_ms"]
    assert out[0].split() == ["n", "k", "classes", *stages]
    assert [row.split()[0] for row in out[1:]] == ["500", "2000"]
    for row in out[1:]:
        assert all(float(x) > 0 for x in row.split()[1:])


def test_verysparse_profile_runs(tmp_path):
    out = run_script("verysparse_profile.py", "--sizes", "10000", "30000", "--seeds", "2",
                     cwd=tmp_path)
    stages = ["gen_ms", "census_ms", "build_ms", "verify_ms"]
    assert out[0].split() == ["n", "m", "classes", *stages]
    assert [row.split()[0] for row in out[1:]] == ["10000", "30000"]
    for row in out[1:]:
        # verifying classes of distinct edge counts can round to 0.00 ms
        assert all(float(x) > 0 for x in row.split()[1:-1])
        assert float(row.split()[-1]) >= 0


def test_regime_sweep_runs(tmp_path):
    out = run_script("regime_sweep.py", "--seeds", "1", cwd=tmp_path)
    assert [row.split()[0] for row in out[1:]] == ["dense", "sparse", "verysparse"]
    assert all(row.split()[6] == "true" for row in out[1:])


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
