"""One short run of each benchmark workload, end to end.

`perfbench/run.py --seconds 0` builds a workload's inputs (for twist, the
parameter sets, which are validated as they are built), runs one round and
checks its outputs.  A library change that breaks a workload's set-up or
its correctness checks fails here, not first in a benchmark run.  The
traced twist run also wraps `surfalg.twist_chern`, `canonicality_check`
and `a_classes` by name, so a renamed or unbound site fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _one_round(workload, trace):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1"]
    done = subprocess.run(
        [sys.executable, *argv, "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
    return result["metrics"]


@pytest.mark.parametrize("workload", ["derive", "classify", "twist"])
def test_one_round_is_correct(workload):
    _one_round(workload, 0)


def test_traced_twist_round_is_correct():
    metrics = _one_round("twist", 1)
    for layer in ("surfalg.twist_chern", "surfalg.canonicality_check"):
        assert metrics[f"{layer}.self_s"]["value"] > 0, metrics
