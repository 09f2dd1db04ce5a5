"""One short run of each benchmark workload, end to end.

`perfbench/run.py --seconds 0` builds a workload's inputs (for twist, the
parameter sets, which are validated as they are built), runs one round and
checks its outputs.  A library change that breaks a workload's set-up or
its correctness checks fails here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["derive", "classify", "twist"])
def test_one_round_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1"]
    done = subprocess.run(
        [sys.executable, *argv, "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
