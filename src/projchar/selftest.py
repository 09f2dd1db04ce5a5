"""Seeded invariant suites for every module, behind the `selftest` command.

Each suite draws its randomness from a fixed seed, so repeated runs are
byte-identical.  The checks mirror the structural invariants the library
relies on (ring axioms, sign rules, roundtrips, weight identities) rather
than specific frozen values, which live in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from . import projclass, qpoly, surfalg, univdet

__all__ = ["SuiteResult", "run", "random_moduli_params"]


class SuiteResult(NamedTuple):
    name: str
    passed: int
    failed: int
    failures: tuple[str, ...]


class _Checker:
    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(label)


def _random_poly(
    rng: Random, ring: qpoly.Ring, max_terms: int = 4, max_exp: int = 2
) -> qpoly.RationalPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring)
        terms.append((exps, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
    return qpoly.RationalPoly(ring, terms)


def _suite_qpoly(c: _Checker) -> None:
    rng = Random(101)
    ring = qpoly.make_ring(
        qpoly.Variable("x"), qpoly.Variable("y", 2), qpoly.Variable("z")
    )
    for trial in range(8):
        p, q, r = (_random_poly(rng, ring) for _ in range(3))
        c.check(f"qpoly commutativity #{trial}", p * q == q * p)
        c.check(f"qpoly associativity #{trial}", (p * q) * r == p * (q * r))
        c.check(f"qpoly distributivity #{trial}", (p + q) * r == p * r + q * r)
    for trial in range(8):
        p = _random_poly(rng, ring)
        c.check(
            f"qpoly text roundtrip #{trial}",
            qpoly.parse_poly(p.to_text(), ring) == p,
        )
    x, y, z = ring
    for trial in range(5):
        p, q = _random_poly(rng, ring), _random_poly(rng, ring)
        bindings = {x: _random_poly(rng, ring), z: _random_poly(rng, ring)}
        lhs = (p * q).substitute(bindings, target_ring=ring)
        rhs = p.substitute(bindings, target_ring=ring) * q.substitute(
            bindings, target_ring=ring
        )
        c.check(f"qpoly substitution is a ring map #{trial}", lhs == rhs)
    xs = [qpoly.Variable(f"x{i}") for i in range(1, 4)]
    sring = qpoly.make_ring(*xs)
    es = qpoly.elementary_symmetric_all(
        [qpoly.RationalPoly.gen(sring, v) for v in xs],
        qpoly.RationalPoly.const(sring, 1),
    )
    evars = [qpoly.Variable(f"e{i}", i) for i in range(1, 4)]
    ering = qpoly.make_ring(*evars)
    for trial in range(5):
        q = _random_poly(rng, ering, max_terms=3)
        expanded = q.substitute(dict(zip(evars, es[1:])), target_ring=sring)
        back = qpoly.express_in_elementary(expanded, xs, target_vars=evars)
        c.check(f"qpoly elementary roundtrip #{trial}", back == q)
    for trial in range(8):
        size = rng.randint(1, 4)
        x_known = [Fraction(rng.randint(-4, 4)) for _ in range(size)]
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
        b = [sum(row[j] * x_known[j] for j in range(size)) for row in a]
        res = qpoly.linear_solve(a, b)
        c.check(f"linear_solve solvable system #{trial}", res.status != "inconsistent")
        if res.status == "unique":
            ok = all(
                sum(row[j] * res.solution[j] for j in range(size)) == bi
                for row, bi in zip(a, b)
            )
            c.check(f"linear_solve residual #{trial}", ok)


def _suite_projclass(c: _Checker) -> None:
    rng = Random(202)
    for n in range(2, 5):
        ring = projclass.chern_ring(n)
        z2_expected = qpoly.RationalPoly(
            ring.c_ring,
            {
                tuple(2 if i == 0 else 0 for i in range(n)): Fraction(n * (1 - n), 2),
                tuple(1 if i == 1 else 0 for i in range(n)): Fraction(n * n),
            },
        )
        c.check(f"z2 closed form n={n}", projclass.z_basis(ring, 2) == z2_expected)
        for k in range(2, n + 1):
            c.check(
                f"shift invariance z{k} n={n}",
                projclass.is_shift_invariant(ring, projclass.z_basis(ring, k)),
            )
            c.check(
                f"lambda closed form n={n} k={k}",
                projclass.lambda_p(n, k).lam == Fraction(n) ** k,
            )
    ring3 = projclass.chern_ring(3)
    for trial in range(6):
        q = _random_poly(rng, ring3.z_ring, max_terms=3, max_exp=1)
        expanded = q.substitute(
            {v: projclass.z_basis(ring3, k) for k, v in zip((2, 3), ring3.z_ring)},
            target_ring=ring3.c_ring,
        )
        back = projclass.express_in_z(ring3, expanded)
        c.check(f"z roundtrip #{trial}", back == q)
    c.check(
        "end classes match canonical generator at rank 2",
        projclass.end_chern(2, 2) == projclass.z_basis(projclass.chern_ring(2), 2),
    )
    for n in (2, 3):
        odd_ok = all(
            projclass.end_chern(n, j).is_zero() for j in range(1, n * n + 1, 2)
        )
        c.check(f"odd end classes vanish n={n}", odd_ok)
    c.check("no escape at rank 2", projclass.surjectivity_witness(2) is False)
    c.check("escape at rank 3", projclass.surjectivity_witness(3) is True)
    c.check("a2 at numeric point", projclass.a_classes(2, [3, 5]) == [Fraction(11)])


def _suite_surfalg(c: _Checker) -> None:
    rng = Random(303)
    algebra = surfalg.ParameterAlgebra(
        (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2)), max_degree=8
    )
    ring = surfalg.SurfaceRing(2)
    for trial in range(10):
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a = surfalg.random_kunneth(rng, algebra, ring, da)
        b = surfalg.random_kunneth(rng, algebra, ring, db)
        sign = -1 if (da % 2) and (db % 2) else 1
        c.check(f"graded commutativity #{trial}", a * b == sign * (b * a))
    for trial in range(6):
        a, b, g = (
            surfalg.random_kunneth(rng, algebra, ring, rng.randint(0, 3))
            for _ in range(3)
        )
        c.check(f"kunneth associativity #{trial}", (a * b) * g == a * (b * g))
    for trial in range(6):
        s = surfalg.random_param_element(rng, algebra, rng.randint(0, 3))
        via_omega = surfalg.slant(
            surfalg.KunnethClass.tensor(s, surfalg.SurfaceClass.omega_class(ring)),
            surfalg.fundamental_class(ring),
        )
        c.check(f"top slant is the identity #{trial}", via_omega == s)
        at_point = surfalg.slant(
            surfalg.KunnethClass.from_param(s, ring), surfalg.point_class(ring)
        )
        c.check(f"point slant of a pullback #{trial}", at_point == s)
    for trial in range(4):
        rank = rng.randint(2, 3)
        chern = [
            surfalg.random_kunneth(rng, algebra, ring, 2 * i)
            for i in range(1, rank + 1)
        ]
        f = surfalg.random_param_element(rng, algebra, 2)
        twisted = surfalg.twist_chern(rank, chern, f)
        back = surfalg.twist_chern(rank, twisted, -f)
        c.check(f"twist composes to identity #{trial}", back == chern)
        report = surfalg.canonicality_check(rank, chern, f)
        c.check(f"canonicality #{trial}", report.passed)
        c.check(f"h0 shift #{trial}", report.h0_shift == rank * f)


def random_moduli_params(rng: Random) -> univdet.ModuliParams:
    """Random valid ModuliParams with n <= 12, |d| <= 20, g <= 5."""
    n = rng.randint(1, 12)
    points = []
    for idx in range(rng.randint(0, 3)):
        parts = []
        remaining = n
        while remaining:
            m = rng.randint(1, remaining)
            parts.append(m)
            remaining -= m
        k = len(parts)
        numerators = sorted(rng.sample(range(4 * k), k))
        weights = tuple(Fraction(num, 4 * k) for num in numerators)
        points.append(univdet.ParabolicPoint(f"x{idx}", tuple(parts), weights))
    return univdet.ModuliParams(
        n, rng.randint(-20, 20), rng.randint(0, 5), univdet.ParabolicDatum(tuple(points))
    )


def _suite_univdet(c: _Checker) -> None:
    rng = Random(404)
    for trial in range(30):
        u = rng.randint(-30, 30)
        v = rng.randint(-30, 30)
        if math.gcd(u, v) != 1:
            continue
        a, b = univdet.bezout_min_nonneg(u, v)
        c.check(f"bezout identity #{trial}", a * u + b * v == 1)
        if v != 0:
            c.check(f"bezout minimality #{trial}", 0 <= a < abs(v))
    constructed = 0
    for trial in range(120):
        params = random_moduli_params(rng)
        report = univdet.check_conditions(params)
        for condition in report.satisfied:
            word = univdet.construct_xi(params, condition)
            constructed += 1
            c.check(
                f"weight-1 word {condition} #{trial}",
                univdet.weight_of(word, params) == 1,
            )
    c.check("some words were constructed", constructed > 0)
    doc = "n = 2\nd = 1\ng = 2\npoint = p\nmultiplicities = 1 1\nweights = 0 1/2\n"
    params = univdet.parse_moduli_params(doc)
    c.check("document parse", params.n == 2 and params.point("p").tail_rank(2) == 1)
    c.check("N formula", params.det_weight(0) == -1)


_SUITES: tuple[tuple[str, Callable[[_Checker], None]], ...] = (
    ("qpoly", _suite_qpoly),
    ("projclass", _suite_projclass),
    ("surfalg", _suite_surfalg),
    ("univdet", _suite_univdet),
)


def run() -> list[SuiteResult]:
    results = []
    for name, suite in _SUITES:
        checker = _Checker()
        suite(checker)
        results.append(
            SuiteResult(
                name, checker.passed, len(checker.failures), tuple(checker.failures)
            )
        )
    return results
