"""The benchmark's own unittest suite, run as part of the tests.

`perfbench/test_*.py` check that each correctness checker of the benchmark
passes projchar's real output and fails a corrupted copy.  They read that
output through `cli.main --json`, `SurfaceClass.alpha` and
`KunnethClass.tensor`, so a library change that breaks those uses fails
here and not only in a benchmark run.  The same suite runs on its own with

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_suite_passes():
    path = list(sys.path)
    try:
        suite = unittest.defaultTestLoader.discover(
            str(PERFBENCH), pattern="test_*.py", top_level_dir=str(PERFBENCH)
        )
        result = unittest.TestResult()
        suite.run(result)
    finally:
        # discovery put perfbench/ first on the path; its flat module names
        # (checks, run, meter, ...) must not shadow anything for later tests
        sys.path[:] = path
        for name, module in list(sys.modules.items()):
            if PERFBENCH in Path(getattr(module, "__file__", None) or "/").parents:
                del sys.modules[name]
    problems = [f"{t.id()}:\n{trace}" for t, trace in result.failures + result.errors]
    assert not problems, "\n".join(problems)
    assert result.testsRun > 0
