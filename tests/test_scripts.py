"""Smoke tests for the command-line scripts under scripts/.

Each script runs in a fresh interpreter with ``src`` on PYTHONPATH, the way
a checkout without an installed package runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", ["run_ablations.py", "train_reference.py"])
def test_help_exits_zero(name):
    proc = run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_train_reference_writes_checkpoint_and_log(tmp_path):
    out = tmp_path / "reference"
    proc = run_script("train_reference.py", "--count", "12", "--epochs", "1", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.ckpt").stat().st_size > 0
    assert (out / "metrics.jsonl").read_text().strip()
    assert "held-out micro:" in proc.stdout


def test_run_ablations_writes_one_row_per_component_run(tmp_path):
    out = tmp_path / "ablations"
    proc = run_script(
        "run_ablations.py", "--count", "16", "--epochs", "1", "--seeds", "0", "--axes", "components",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "components.csv").read_text().splitlines()
    assert lines[0] == "run,seed,f1,precision,recall"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "full",
        "w/o Coarse-grained Encoder",
        "w/o Common Sense Enhancement",
        "w/o Aggregation with Cross-grained Edges",
    ]
    assert "== components (region_cue corpus)" in proc.stdout


def test_run_ablations_rejects_an_unknown_axis_before_any_work(tmp_path):
    out = tmp_path / "ablations"
    proc = run_script("run_ablations.py", "--axes", "radius", "bogus", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in proc.stderr
    assert not out.exists() and proc.stdout == ""
