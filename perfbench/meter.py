"""Operation timing against an interleaved reference loop.

On a shared host the speed of a fixed computation drifts by more than ten
percent over seconds, in CPU time as well as wall time.  A Meter therefore
follows each timed operation with chunks of a fixed stdlib-only Fraction
computation (sparse dict polynomial squaring, the same kind of work the
library does) until the chunks have taken REF_SHARE of the work time so
far.  Each operation's time is divided by the mean time of the chunks run
right after it (or, when none ran, of the last chunks that did) and
reported in "ref" units, so a slow patch of the host slows both and
cancels.  Dividing by the mean chunk of the whole round instead spread the
rate of the first stream of a ten-second derivation set about three times
as widely from round to round: drift within the round was charged to the
wrong stream.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable

REF_SHARE = 0.2

_REF_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def reference_chunk() -> dict:
    out: dict = {}
    for (i1, j1), v1 in _REF_TERMS.items():
        for (i2, j2), v2 in _REF_TERMS.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return out


class Meter:
    """Work per operation kind, in seconds and in ref units, and the chunks run beside it."""

    def __init__(self) -> None:
        self.work_s: dict[str, float] = {}
        self.work_ref: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.ref_s = 0.0
        self.chunks = 0
        self._unit_s = 0.0

    def add(self, kind: str, seconds: float, ops: int = 1) -> None:
        self.work_s[kind] = self.work_s.get(kind, 0.0) + seconds
        self.count[kind] = self.count.get(kind, 0) + ops
        target = REF_SHARE * sum(self.work_s.values())
        ran = []
        while self.ref_s < target:
            start = time.perf_counter()
            reference_chunk()
            ran.append(time.perf_counter() - start)
            self.ref_s += ran[-1]
        if ran:
            self.chunks += len(ran)
            self._unit_s = sum(ran) / len(ran)
        # the first call always runs a chunk, so the unit is set from here on
        self.work_ref[kind] = self.work_ref.get(kind, 0.0) + seconds / self._unit_s

    def time(self, kind: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args)
        self.add(kind, time.perf_counter() - start)
        return result

    def summary(self) -> dict:
        """Plain data for one round: work in seconds and in ref, counts, mean chunk time."""
        return {
            "work_s": dict(self.work_s),
            "work_ref": dict(self.work_ref),
            "count": dict(self.count),
            "ref_unit_s": self.ref_s / self.chunks,
        }
