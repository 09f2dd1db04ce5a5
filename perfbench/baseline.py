#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline table.

    python3 perfbench/baseline.py

Each library case runs in a fresh interpreter, so every cache starts
empty, and is stopped after CAP_S seconds.  The time is taken inside the
interpreter around the call, import excluded.  The tier-1 suite runs once
through pytest; its wall time and the criterion 3 and 8 times come from
its summary.  The table is printed and written to
perfbench/results/baseline.json.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAP_S = 60

_TIMED = """
import sys, time
sys.path.insert(0, {src!r})
{setup}
start = time.perf_counter()
{call}
print(time.perf_counter() - start)
"""

CASES = [
    ("z_basis(chern_ring(8), 8)", "from projchar.projclass import chern_ring, z_basis",
     "z_basis(chern_ring(8), 8)"),
    ("lambda_p(7, k), all k", "from projchar.projclass import lambda_p",
     "[lambda_p(7, k) for k in range(2, 8)]"),
    ("end_in_a(4, j), all j", "from projchar.projclass import end_in_a",
     "[end_in_a(4, j) for j in range(1, 17)]"),
    ("end_in_a(5, j), all j", "from projchar.projclass import end_in_a",
     "[end_in_a(5, j) for j in range(1, 26)]"),
    ("surjectivity_witness(4)", "from projchar.projclass import surjectivity_witness",
     "surjectivity_witness(4)"),
]
CASES += [
    (
        f"projchar invariance-check 3 '1*c1^{e}'",
        "import io, contextlib\nfrom projchar import cli",
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['invariance-check', '3', '1*c1^{e}'])",
    )
    for e in (12, 20, 40)
]


def time_case(setup: str, call: str) -> str:
    code = _TIMED.format(src=str(ROOT / "src"), setup=setup, call=call)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=CAP_S,
            check=True,
        )
    except subprocess.TimeoutExpired:
        return f"> {CAP_S} s (stopped)"
    return f"{float(proc.stdout):.2f} s"


def tier_one() -> list[tuple[str, str]]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    total = time.perf_counter() - start
    found = dict(re.findall(r"criterion ([38]): \w+ - .*\[([0-9.]+)s <", proc.stdout))
    status = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    return [
        (f"tier-1 total ({status})", f"{total:.1f} s"),
        ("criterion 3 (budget 60 s)", f"{found.get('3', '?')} s"),
        ("criterion 8 (budget 60 s)", f"{found.get('8', '?')} s"),
    ]


def main() -> int:
    rows = tier_one()
    rows += [(name, time_case(setup, call)) for name, setup, call in CASES]
    for name, value in rows:
        print(f"| {name} | {value} |")
    out = HERE / "results" / "baseline.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(dict(rows), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
