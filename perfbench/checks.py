"""Independent output checks, written with the standard library only.

Nothing here imports projchar.  Polynomial text from the CLI is read by the
small reader below and evaluated at rational roots; each expected value is
computed directly from those roots: elementary symmetric functions of the
difference roots n*r_i - sum(r), of the n^2 endomorphism roots r_a - r_b
and of the Hom roots t_b - s_a.  Words are re-weighed from their text with
the unit weights of the determinant line bundles.  Every checker returns
None when the output is right and a message naming the mismatch otherwise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

# A polynomial is {exponent tuple: Fraction} over an ordered list of names.
Poly = dict

_NAME_RE = re.compile(r"([a-z][0-9]+)(?:\^([0-9]+))?")
_WORD_RE = re.compile(
    r"(?:DetU(?:\((-?[0-9]+)\))?|detU\[([^],]+)(?:,([0-9]+))?\])\^(-?[0-9]+)"
)


# -- polynomials ---------------------------------------------------------------


def read_poly(text: str, names: list[str]) -> Poly:
    """Read the CLI's polynomial text ('3*c1^2 + -1/2*c2', '0') over `names`."""
    index = {name: i for i, name in enumerate(names)}
    out: Poly = {}
    if text.strip() == "0":
        return out
    for chunk in text.split(" + "):
        exps = [0] * len(names)
        coef = Fraction(1)
        for factor in chunk.split("*"):
            m = _NAME_RE.fullmatch(factor)
            if m:
                exps[index[m.group(1)]] += int(m.group(2) or 1)
            else:
                coef *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: v for k, v in out.items() if v}


def write_poly(poly: Poly, names: list[str]) -> str:
    """Text in the CLI's input grammar."""
    parts = []
    for exps, coef in sorted(poly.items(), reverse=True):
        factors = [str(coef)]
        for name, e in zip(names, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def evaluate(poly: Poly, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for exps, coef in poly.items():
        term = coef
        for v, e in zip(values, exps):
            if e:
                term *= v**e
        total += term
    return total


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def esp(values: list[Fraction]) -> list[Fraction]:
    """e_0..e_m of a list of rationals."""
    es = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for k in range(len(es) - 1, 0, -1):
            es[k] += v * es[k - 1]
    return es


def c_names(n: int) -> list[str]:
    return [f"c{i}" for i in range(1, n + 1)]


def z_names(n: int) -> list[str]:
    return [f"z{k}" for k in range(2, n + 1)]


def z_closed_form(n: int, k: int) -> Poly:
    """z_k = sum_i C(n-i, k-i) * n^i * (-c1)^(k-i) * c_i over c1..cn, c_0 = 1."""
    out: Poly = {}
    for i in range(k + 1):
        exps = [0] * n
        exps[0] += k - i
        if i:
            exps[i - 1] += 1
        coef = Fraction(math.comb(n - i, k - i) * n**i * (-1) ** (k - i))
        out = poly_add(out, {tuple(exps): coef})
    return out


def z_monomials(n: int, weight: int) -> list[tuple[int, ...]]:
    """Exponent vectors over z2..zn of total weight `weight`."""
    out: list[tuple[int, ...]] = []

    def rec(k: int, remaining: int, acc: tuple[int, ...]) -> None:
        if k > n:
            if remaining == 0:
                out.append(acc)
            return
        for e in range(remaining // k + 1):
            rec(k + 1, remaining - e * k, acc + (e,))

    rec(2, weight, ())
    return out


def z_poly_in_c(n: int, z_poly: Poly) -> Poly:
    """Expand a polynomial over z2..zn into c1..cn by the closed form."""
    zs = [z_closed_form(n, k) for k in range(2, n + 1)]
    out: Poly = {}
    for exps, coef in z_poly.items():
        term: Poly = {(0,) * n: coef}
        for z, e in zip(zs, exps):
            for _ in range(e):
                term = poly_mul(term, z)
        out = poly_add(out, term)
    return out


# -- values at roots -------------------------------------------------------------


class Roots:
    """Rational Chern roots r_1..r_n and the values derived from them."""

    def __init__(self, roots: list[Fraction]) -> None:
        n = len(roots)
        self.n = n
        self.c = esp(roots)  # c_i = e_i(r)
        total = sum(roots, Fraction(0))
        self.z = esp([n * r - total for r in roots])  # z_k = e_k(y)
        self.end = esp([a - b for a in roots for b in roots])


def _mismatch(what: str, got: Fraction, want: Fraction) -> Optional[str]:
    return None if got == want else f"{what}: got {got}, expected {want}"


def check_zbasis(k: int, text: str, at: Roots) -> Optional[str]:
    got = evaluate(read_poly(text, c_names(at.n)), at.c[1:])
    return _mismatch(f"zbasis {at.n} {k} at the roots", got, at.z[k])


def check_lambda_p(k: int, result: dict, at: Roots) -> Optional[str]:
    n = at.n
    if Fraction(result["lambda"]) != n**k:
        return f"lambda-p {n} {k}: lambda {result['lambda']}, expected {n**k}"
    names = ["c1"] + [f"a{i}" for i in range(2, k)]
    p_val = evaluate(read_poly(result["P"], names), [at.c[1], *at.z[2:k]])
    return _mismatch(f"lambda-p {n} {k}: a_k - P - lambda*c_k", at.z[k] - p_val, n**k * at.c[k])


def check_end_chern(j: int, text: str, at: Roots) -> Optional[str]:
    got = evaluate(read_poly(text, c_names(at.n)), at.c[1:])
    return _mismatch(f"end-chern {at.n} {j} at the roots", got, at.end[j])


def check_end_in_a(j: int, text: str, at: Roots) -> Optional[str]:
    got = evaluate(read_poly(text, z_names(at.n)), at.z[2:])
    return _mismatch(f"end-in-a {at.n} {j} at the roots", got, at.end[j])


def check_hom_flag(
    j: int, text: str, sub: list[Fraction], target: list[Fraction]
) -> Optional[str]:
    names = [f"s{i}" for i in range(1, len(sub) + 1)]
    names += [f"t{i}" for i in range(1, len(target) + 1)]
    got = evaluate(read_poly(text, names), sub + target)
    want = esp([t - s for s in sub for t in target])[j]
    return _mismatch(f"hom-flag {len(sub)} {len(target)} {j} at the roots", got, want)


def check_rewrite(result: dict, n: int, z_coeffs: Poly) -> Optional[str]:
    """An invariant query must come back with exactly the z-coefficients it was built from."""
    if result["invariant"] is not True or result["z_expression"] is None:
        return f"invariant rank-{n} class was rejected"
    got = read_poly(result["z_expression"], z_names(n))
    if got != z_coeffs:
        return f"rank-{n} rewrite gave {result['z_expression']}"
    return None


def check_reject(result: dict, n: int) -> Optional[str]:
    if result["invariant"] is not False or result["z_expression"] is not None:
        return f"non-invariant rank-{n} class was accepted"
    return None


# -- parameter sets and words ------------------------------------------------------
#
# A parameter set is plain data: {"n", "d", "g", "points": [[label, mults,
# weights]]} with weights as "p/q" strings.


def satisfied_conditions(params: dict) -> list[str]:
    """C1: gcd(n, d) = 1.  C2, C3: a flag subbundle rank m with gcd(m, n), gcd(m, n + d) = 1."""
    n, d = params["n"], params["d"]
    tails = [sum(mults[j:]) for _, mults, _ in params["points"] for j in range(len(mults))]
    out = ["C1"] if math.gcd(n, d) == 1 else []
    if any(math.gcd(m, n) == 1 for m in tails):
        out.append("C2")
    if any(math.gcd(m, n + d) == 1 for m in tails):
        out.append("C3")
    return out


def word_weight(text: str, params: dict) -> int:
    """Weight of a word from its text.

    DetU(k) weighs N + k*n with N = d + n*(1-g), detU[x,j] the rank of the
    j-th flag subbundle at x (a tail sum of multiplicities), detU[x] n.
    """
    n, d, g = params["n"], params["d"], params["g"]
    mults = {label: m for label, m, _ in params["points"]}
    if text == "1":
        return 0
    total = 0
    for factor in text.split(" ⊗ "):
        m = _WORD_RE.fullmatch(factor)
        if m is None:
            raise ValueError(f"unreadable factor {factor!r}")
        twist, label, j, e = m.groups()
        if label is None:
            unit = d + n * (1 - g) + int(twist or 0) * n
        elif label not in mults:
            raise ValueError(f"no marked point {label!r}")
        elif j is None:
            unit = n
        else:
            unit = sum(mults[label][int(j) - 1 :])
        total += unit * int(e)
    return total


def check_words(params: dict, satisfied: list[str], words: list[str]) -> Optional[str]:
    want = satisfied_conditions(params)
    if list(satisfied) != want:
        return f"satisfied {satisfied}, gcds give {want}"
    for word in words:
        try:
            w = word_weight(word, params)
        except (ValueError, KeyError, IndexError) as exc:
            return f"word {word!r}: {exc}"
        if w != 1:
            return f"word {word!r} has weight {w}"
    return None


def check_universal_bundle(params: dict, result: dict) -> Optional[str]:
    satisfied = result["satisfied"]
    if satisfied and (result["condition"] != satisfied[0] or result["weight"] != 1):
        return f"universal-bundle chose {result['condition']} with weight {result['weight']}"
    return check_words(params, satisfied, [result["word"]] if satisfied else [])


def check_catalog(params: dict, fixed_det: bool, entries: list[dict]) -> Optional[str]:
    """Degrees by count: Hom classes 2j per adjacent block pair, c1 slants, a_i slants."""
    n, g = params["n"], params["g"]
    want: dict[int, int] = {}

    def add(degree: int, count: int = 1) -> None:
        if count:
            want[degree] = want.get(degree, 0) + count

    for _, mults, _ in params["points"]:
        for i in range(1, len(mults)):
            for j in range(1, mults[i] * mults[i - 1] + 1):
                add(2 * j)
    if not fixed_det:
        add(1, 2 * g)
    for i in range(2, n + 1):
        add(2 * i)
        add(2 * i - 1, 2 * g)
        add(2 * i - 2)
    got: dict[int, int] = {}
    for entry in entries:
        got[entry["degree"]] = got.get(entry["degree"], 0) + 1
    return None if got == want else f"catalog degree counts {got}, expected {want}"


# -- surface twists ----------------------------------------------------------------


def check_canonicality(
    passed: bool, rank: int, f_terms: dict, h0_terms: dict
) -> Optional[str]:
    """The canonical data is unchanged and the degree-0 slant of c1 shifts by rank*f."""
    if not passed:
        return f"rank-{rank} canonicality check failed"
    want = {m: rank * c for m, c in f_terms.items() if rank * c}
    if h0_terms != want:
        return f"rank-{rank} h0 shift {h0_terms}, expected rank*f = {want}"
    return None


def check_twist_back(
    rank: int, chern_parts: list[dict], back_parts: list[dict]
) -> Optional[str]:
    """Twisting by f and then by -f gives back the original Chern list."""
    if back_parts != chern_parts:
        return f"rank-{rank}: twisting by f and then by -f changed the Chern list"
    return None
