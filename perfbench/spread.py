#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload twist --seeds 1-10

Runs perfbench/run.py once per seed, one after another, for the run length
in BENCHMARK.json (run_seconds) and with --trace 0, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
It also prints the share of failed operations, which must be the same in
every run.  Every run's result line and the summary are written to
perfbench/results/spread-<workload>-<first seed>-<last seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "raw": lines[:-1], **result})
        print(f"seed {seed}: correct={result['correct']} {' '.join(lines[:-1])}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        unit = runs[0]["metrics"][name]["unit"]
        print(
            f"{name:40s} median {median:12.6g} {unit:11s}"
            f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.3f}"
        )
    shares = sorted({run["failed"] / run["attempted"] for run in runs})
    print(f"failed shares: {shares}; all correct: {all(run['correct'] for run in runs)}")

    out = HERE / "results" / f"spread-{args.workload}-{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
