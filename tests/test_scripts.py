"""Smoke runs of the README scripts, each in a fresh interpreter on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reduction_table_matches_golden_file():
    out = run_script("reduction_table.py", "--max-rank", "6")
    assert out == (ROOT / "tests" / "golden" / "reduction_table.txt").read_text()


def test_newstead_catalog_counts_the_six_generators():
    out = run_script("newstead_catalog.py", "2", "2")
    assert out.splitlines()[-1] == "total 6 generators (2: 1, 3: 4, 4: 1)"


def test_canonicality_experiment_passes_a_small_grid():
    args = ["--max-rank", "2", "--max-genus", "1", "--count", "3"]
    out = run_script("canonicality_experiment.py", *args)
    assert out.splitlines()[-1] == "all cells passed"
