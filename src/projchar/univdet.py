"""Integer weight arithmetic for universal-bundle existence.

A family of parabolic bundles over a moduli problem carries determinant
line bundles whose scalar-gauge weights are integers: the determinant of
the universal bundle twisted by a degree-k line bundle has weight
N + k*n with N = d + n*(1-g), the determinant of the j-th flag subbundle
at a marked point x has weight equal to that subbundle's rank (a tail
sum of multiplicities), and the determinant of the fibre at x has weight
n.  A universal bundle descends exactly when some monomial word in these
generators has weight 1.  This module decides the three coprimality
conditions that make such a word possible and constructs the word.

A `ModuliParams` is validated once, when it is built (also by
`dataclasses.replace`), so every function here trusts the object it is
given; `ModuliParams.validate()` re-runs the same checks on demand.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "ParabolicPoint",
    "ParabolicDatum",
    "ModuliParams",
    "LineFactor",
    "LineBundleWord",
    "ConditionWitness",
    "ConditionReport",
    "CONDITIONS",
    "det_u",
    "det_flag",
    "det_point",
    "check_conditions",
    "construct_xi",
    "weight_of",
    "weight_audit",
    "extended_gcd",
    "bezout_min_nonneg",
    "parse_moduli_params",
]

CONDITIONS = ("C1", "C2", "C3")


@dataclass(frozen=True)
class ParabolicPoint:
    """Marked point with flag multiplicities and strictly increasing weights in [0, 1)."""

    label: str
    multiplicities: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def tail_rank(self, j: int) -> int:
        """Rank of the j-th flag subbundle: sum of multiplicities from block j on."""
        if not 1 <= j <= len(self.multiplicities):
            raise ValueError(
                f"flag index {j} out of range 1..{len(self.multiplicities)} at {self.label!r}"
            )
        return sum(self.multiplicities[j - 1 :])


@dataclass(frozen=True)
class ParabolicDatum:
    points: tuple[ParabolicPoint, ...] = ()

    def validate(self, rank: int) -> None:
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels: {labels}")
        for p in self.points:
            if not p.multiplicities:
                raise ValueError(f"{p.label!r}: empty multiplicity sequence")
            if min(p.multiplicities) < 1:
                raise ValueError(f"{p.label!r}: multiplicities must be positive")
            if sum(p.multiplicities) != rank:
                raise ValueError(
                    f"{p.label!r}: multiplicities sum to {sum(p.multiplicities)},"
                    f" expected {rank}"
                )
            ws = p.weights
            if len(ws) != len(p.multiplicities):
                raise ValueError(f"{p.label!r}: need one weight per multiplicity block")
            increasing = all(a < b for a, b in zip(ws, ws[1:]))
            # increasing weights lie in [0, 1) when their ends do; otherwise
            # each is looked at, as a weight outside is reported first
            if not (increasing and 0 <= ws[0] and ws[-1] < 1):
                for w in ws:
                    if not 0 <= w < 1:
                        raise ValueError(f"{p.label!r}: weight {w} outside [0, 1)")
                raise ValueError(f"{p.label!r}: weights must be strictly increasing")


@dataclass(frozen=True)
class ModuliParams:
    """Rank, degree, genus and parabolic datum of the moduli problem.

    It is validated once, when it is built, so one that exists is valid;
    `validate()` re-runs the same checks on demand.
    """

    n: int
    d: int
    g: int
    datum: ParabolicDatum = ParabolicDatum()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"rank must be positive, got {self.n}")
        if self.g < 0:
            raise ValueError(f"genus must be non-negative, got {self.g}")
        self.datum.validate(self.n)

    def det_weight(self, twist: int) -> int:
        """Weight of Det U(twist): d + n*(1-g) + twist*n."""
        return self.d + self.n * (1 - self.g) + twist * self.n

    def point(self, label: str) -> ParabolicPoint:
        for p in self.datum.points:
            if p.label == label:
                return p
        raise ValueError(f"no marked point labelled {label!r}")


# -- determinant words --------------------------------------------------------


@dataclass(frozen=True)
class LineFactor:
    """One word generator: Det U(k), det of a flag subbundle, or det of a fibre."""

    kind: str  # "det_u" | "det_flag" | "det_point"
    twist: int = 0
    point: str = ""
    flag_index: int = 0

    def text(self) -> str:
        if self.kind == "det_u":
            return "DetU" if self.twist == 0 else f"DetU({self.twist})"
        if self.kind == "det_flag":
            return f"detU[{self.point},{self.flag_index}]"
        if self.kind == "det_point":
            return f"detU[{self.point}]"
        raise ValueError(f"unknown factor kind {self.kind!r}")

    def unit_weight(self, params: ModuliParams) -> int:
        if self.kind == "det_u":
            return params.det_weight(self.twist)
        if self.kind == "det_flag":
            return params.point(self.point).tail_rank(self.flag_index)
        if self.kind == "det_point":
            params.point(self.point)  # resolvability check
            return params.n
        raise ValueError(f"unknown factor kind {self.kind!r}")


def det_u(twist: int = 0) -> LineFactor:
    return LineFactor("det_u", twist=twist)


def det_flag(point: str, flag_index: int) -> LineFactor:
    return LineFactor("det_flag", point=point, flag_index=flag_index)


def det_point(point: str) -> LineFactor:
    return LineFactor("det_point", point=point)


@dataclass(frozen=True)
class LineBundleWord:
    """Formal product of line factors with integer exponents (kept verbatim)."""

    factors: tuple[tuple[LineFactor, int], ...]

    def text(self) -> str:
        if not self.factors:
            return "1"
        return " ⊗ ".join(f"{f.text()}^{e}" for f, e in self.factors)


def weight_of(word: LineBundleWord, params: ModuliParams) -> int:
    """Total weight of a word; errors on unresolvable generators.

    The parameters were validated when they were built and are not checked
    again.
    """
    return sum(f.unit_weight(params) * e for f, e in word.factors)


def weight_audit(word: LineBundleWord, params: ModuliParams) -> list[str]:
    """Line-by-line weight accounting for a word."""
    lines = [
        f"N = d + n*(1-g) = {params.d} + {params.n}*(1-{params.g})"
        f" = {params.det_weight(0)}"
    ]
    total = 0
    for f, e in word.factors:
        uw = f.unit_weight(params)
        total += uw * e
        lines.append(f"{f.text()}: unit weight {uw}, exponent {e}, contribution {uw * e}")
    lines.append(f"total weight = {total}")
    return lines


# -- coprimality conditions ---------------------------------------------------


@dataclass(frozen=True)
class ConditionWitness:
    condition: str
    point: Optional[str] = None
    flag_index: Optional[int] = None
    tail_rank: Optional[int] = None


@dataclass(frozen=True)
class ConditionReport:
    witnesses: tuple[ConditionWitness, ...]

    @property
    def satisfied(self) -> tuple[str, ...]:
        return tuple(w.condition for w in self.witnesses)

    def witness_for(self, condition: str) -> Optional[ConditionWitness]:
        return next((w for w in self.witnesses if w.condition == condition), None)


def _witness(
    params: ModuliParams, condition: str, flag: Optional[tuple[str, int]] = None
) -> Optional[ConditionWitness]:
    """The witness of one condition, or None; `flag` (label, j) limits C2/C3 to it."""
    if condition == "C1":
        return ConditionWitness("C1") if math.gcd(params.n, params.d) == 1 else None
    modulus = params.n if condition == "C2" else params.n + params.d
    # scan order fixes the witness: points as listed, then flag index ascending
    for p in params.datum.points if flag is None else (params.point(flag[0]),):
        for j in range(1, len(p.multiplicities) + 1) if flag is None else (flag[1],):
            m = p.tail_rank(j)
            if math.gcd(m, modulus) == 1:
                return ConditionWitness(condition, p.label, j, m)
    return None


def check_conditions(params: ModuliParams) -> ConditionReport:
    """Decide which coprimality conditions hold, with the first witness of each.

    C1: gcd(n, d) = 1.  C2: some flag subbundle rank m with gcd(m, n) = 1.
    C3: some flag subbundle rank m with gcd(m, n + d) = 1.  The parameters
    were validated when they were built and are not checked again.
    """
    found = (_witness(params, condition) for condition in CONDITIONS)
    return ConditionReport(tuple(w for w in found if w is not None))


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_min_nonneg(u: int, v: int) -> tuple[int, int]:
    """Solve a*u + b*v = 1 with the smallest non-negative a (v = 0 permitting)."""
    g, s, _ = extended_gcd(u, v)
    if g != 1:
        raise ValueError(f"{u} and {v} are not coprime (gcd {g})")
    if v == 0:
        a, b = s, 0  # u is +-1 here
    else:
        a = s % abs(v)
        b = (1 - a * u) // v
    if a * u + b * v != 1:
        raise RuntimeError(
            f"Bezout certificate failed: a*u + b*v = {a * u + b * v}, expected 1"
            f" (u={u}, v={v}, a={a}, b={b})"
        )
    return a, b


def construct_xi(
    params: ModuliParams,
    condition: str,
    witness: Optional[tuple[str, int]] = None,
) -> LineBundleWord:
    """Build a weight-1 determinant word under a satisfied condition.

    C1 with a*n + b*N = 1 yields DetU(1)^a (x) DetU^(b-a);
    C2 with a*m + b*n = 1 yields detU[x,j]^a (x) DetU^(-b) (x) DetU(1)^b;
    C3 with a*m + b*(d+n) = 1 yields detU[x,j]^a (x) DetU(1)^b (x) detU[x]^(b*(g-1)).
    A witness (label, j) picks the flag for C2 or C3; C1 takes none.  The
    constructed word is checked to have weight exactly 1.  The parameters
    were validated when they were built and are not checked again.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    chosen = _witness(params, condition)
    if chosen is None:
        raise ValueError(f"condition {condition} is not satisfied by these parameters")
    if witness is not None:
        if condition == "C1":
            raise ValueError("a witness applies only to conditions C2 and C3, not C1")
        chosen = _witness(params, condition, witness)
        if chosen is None:
            label, j = witness
            m = params.point(label).tail_rank(j)
            raise ValueError(
                f"({label!r}, {j}) with tail rank {m} is not a witness for {condition}"
            )

    n, d, g = params.n, params.d, params.g
    if condition == "C1":
        a, b = bezout_min_nonneg(n, params.det_weight(0))
        word = LineBundleWord(((det_u(1), a), (det_u(0), b - a)))
    elif condition == "C2":
        a, b = bezout_min_nonneg(chosen.tail_rank, n)
        word = LineBundleWord(
            (
                (det_flag(chosen.point, chosen.flag_index), a),
                (det_u(0), -b),
                (det_u(1), b),
            )
        )
    else:
        a, b = bezout_min_nonneg(chosen.tail_rank, d + n)
        word = LineBundleWord(
            (
                (det_flag(chosen.point, chosen.flag_index), a),
                (det_u(1), b),
                (det_point(chosen.point), b * (g - 1)),
            )
        )
    w = sum(f.unit_weight(params) * e for f, e in word.factors)
    if w != 1:
        raise RuntimeError(f"constructed word has weight {w}, expected 1")
    return word


# -- parameter documents -------------------------------------------------------


# a decimal literal as `Fraction` reads it, capturing the digits of its exponent
_DECIMAL_WITH_EXPONENT = re.compile(
    r"[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?(\d+(?:_\d+)*)"
)


def _parse_weight(literal: str) -> Fraction:
    """The Fraction of a weight literal; `Fraction("1e3000000")` would build
    the whole power of ten, so an exponent past the int-string limit (or its
    default, when the limit is off) is refused first."""
    m = _DECIMAL_WITH_EXPONENT.fullmatch(literal)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        # lengths first: int() itself refuses a string longer than the limit
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise ValueError(f"exponent too large in {literal!r}")
    return Fraction(literal)


def parse_moduli_params(text: str) -> ModuliParams:
    """Parse the key-value parameter document.

    Lines are `key = value` with `#` comments.  Keys n, d, g set the scalar
    parameters; each `point = LABEL` opens a marked point whose following
    `multiplicities` and `weights` lines (space- or comma-separated) belong
    to it.  Weights are exact rationals like 1/3 (see `_parse_weight`).  A key
    may appear once per document (n, d, g) or once per point (the others).
    """
    scalars: dict[str, int] = {}
    points: list[ParabolicPoint] = []
    current: dict | None = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        if "multiplicities" not in current:
            raise ValueError(f"point {current['label']!r} has no multiplicities")
        if "weights" not in current:
            raise ValueError(f"point {current['label']!r} has no weights")
        points.append(
            ParabolicPoint(
                current["label"],
                tuple(current["multiplicities"]),
                tuple(current["weights"]),
            )
        )
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        try:
            if key in ("n", "d", "g"):
                if key in scalars:
                    raise ValueError(f"duplicate key {key!r}")
                scalars[key] = int(value)
            elif key == "point":
                flush()
                current = {"label": value}
            elif key in ("multiplicities", "weights"):
                if current is None:
                    raise ValueError(f"{key} appears before any point")
                if key in current:
                    raise ValueError(f"duplicate key {key!r}")
                items = [s for s in value.replace(",", " ").split() if s]
                if key == "multiplicities":
                    current[key] = [int(s) for s in items]
                else:
                    current[key] = [_parse_weight(s) for s in items]
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        except ZeroDivisionError:  # Fraction("1/0")
            raise ValueError(f"line {lineno}: zero denominator in {value!r}") from None
    flush()
    if len(scalars) < 3:
        raise ValueError("document must set n, d and g")
    return ModuliParams(
        scalars["n"], scalars["d"], scalars["g"], ParabolicDatum(tuple(points))
    )
