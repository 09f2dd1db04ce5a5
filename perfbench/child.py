"""One cold derivation set in a fresh interpreter.

Reads a job from stdin: {"src": path of the package sources, "commands":
[[kind, argv, stdin document or null], ...], "trace": bool}.  Imports
projchar only after the clock has started, runs every command through
projchar.cli.main with its standard output captured, and prints one JSON
object: the round summary of meter.Meter, the captured outputs and exit
codes, the peak RSS and, when traced, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from meter import Meter


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    meter = Meter()
    start = time.perf_counter()
    from projchar import cli

    meter.add("import", time.perf_counter() - start, ops=0)
    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
    outputs, codes = [], []
    with tracer or contextlib.nullcontext():
        for kind, argv, document in job["commands"]:
            buf = io.StringIO()
            sys.stdin = io.StringIO(document or "")
            with contextlib.redirect_stdout(buf):
                try:
                    codes.append(meter.time(kind, cli.main, argv))
                except Exception as exc:  # reported as a failed operation
                    codes.append(f"{type(exc).__name__}: {exc}")
            outputs.append(buf.getvalue())
    print(
        json.dumps(
            {
                "round": meter.summary(),
                "outputs": outputs,
                "codes": codes,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "layers": tracer.snapshot() if tracer else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
