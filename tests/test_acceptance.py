"""Acceptance gate: eight pinned criteria, one test and one report line each.

Each criterion asserts exact (Fraction-level) equality; the timed ones also
enforce their wall-clock budget.  The summary block printed at the end of
the run comes from conftest.py reading CRITERION_LINES.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from projchar.projclass import (
    ChernExpression,
    chern_ring,
    end_chern,
    express_in_z,
    generator_catalog,
    is_shift_invariant,
    lambda_p,
    z_basis,
)
from projchar.qpoly import (
    RationalPoly,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    make_ring,
)
from projchar.selftest import random_moduli_params
from projchar.surfalg import (
    ParameterAlgebra,
    SurfaceRing,
    canonicality_check,
    random_kunneth,
    random_param_element,
)
from projchar.univdet import (
    ParabolicDatum,
    bezout_min_nonneg,
    check_conditions,
    construct_xi,
    weight_of,
)

from oracles import y_roots

CRITERION_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str, elapsed=None, budget=None) -> None:
    if budget is not None and elapsed is not None:
        if elapsed >= budget:
            ok = False
            detail += f" (budget exceeded: {elapsed:.1f}s >= {budget:.0f}s)"
        else:
            detail += f" [{elapsed:.2f}s < {budget:.0f}s]"
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _z_monomial_c_poly(ring, exps):
    out = RationalPoly.const(ring.c_ring, 1)
    for k, e in zip(range(2, ring.rank + 1), exps):
        if e:
            out = out * z_basis(ring, k).poly ** e
    return out


def _z_exponents_of_weight(n: int, weight: int) -> list[tuple[int, ...]]:
    ks = list(range(2, n + 1))
    out: list[tuple[int, ...]] = []

    def rec(i, remaining, acc):
        if i == len(ks):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for e in range(remaining // ks[i] + 1):
            rec(i + 1, remaining - e * ks[i], acc + [e])

    rec(0, weight, [])
    return out


def _subset_esp(polys, ring, j):
    """e_j of the given ring elements by include/exclude descent."""
    total = RationalPoly.zero(ring)

    def rec(i, taken, acc):
        nonlocal total
        if taken == j:
            total = total + acc
            return
        if len(polys) - i < j - taken:
            return
        rec(i + 1, taken + 1, acc * polys[i])
        rec(i + 1, taken, acc)

    rec(0, 0, RationalPoly.const(ring, 1))
    return total


def test_criterion_1_rank_two_end_class_is_z2():
    start = time.perf_counter()
    ring = chern_ring(2)
    ok = end_chern(2, 2).poly == z_basis(ring, 2).poly
    _report(
        1,
        ok,
        "c2 of the rank-2 endomorphism bundle equals the generator z2 exactly",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_rank_three_specializations():
    start = time.perf_counter()
    ring = chern_ring(3)
    c1, c2, c3 = ring.chern_vars
    zero = RationalPoly.zero(ring.c_ring)
    at_vanishing_lower = z_basis(ring, 3).poly.evaluate(
        {c1: zero, c2: zero, c3: RationalPoly.gen(ring.c_ring, c3)}
    )
    ok = at_vanishing_lower == 27 * RationalPoly.gen(ring.c_ring, c3)
    ok = ok and end_chern(3, 1).poly.is_zero()
    ok = ok and end_chern(3, 3).poly.is_zero()
    _report(
        2,
        ok,
        "z3 at c1 = c2 = 0 is 27*c3; odd rank-3 endomorphism classes vanish",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_3_invariance_and_roundtrips_up_to_rank_six():
    start = time.perf_counter()
    ok = True
    detail = "every z_k (n <= 6) is shift-invariant, e1(y) = 0, 50 roundtrips per rank"
    for n in range(2, 7):
        ring = chern_ring(n)
        ys = list(y_roots(ring))
        if not elementary_symmetric_all(ys, ring.root_ring)[1].is_zero():
            ok, detail = False, f"e1 of the difference roots is nonzero at n={n}"
            break
        for k in range(2, n + 1):
            if not is_shift_invariant(z_basis(ring, k)):
                ok, detail = False, f"z_{k} not shift-invariant at n={n}"
                break
        if not ok:
            break
        rng = random.Random(1000 + n)
        for _ in range(50):
            while True:
                weight = rng.randint(2, 6)
                monos = _z_exponents_of_weight(n, weight)
                if monos:
                    break
            chosen = {
                m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                for m in rng.sample(monos, k=rng.randint(1, min(3, len(monos))))
            }
            c_poly = RationalPoly.zero(ring.c_ring)
            for exps, coef in chosen.items():
                c_poly = c_poly + coef * _z_monomial_c_poly(ring, exps)
            back = express_in_z(ChernExpression(ring, c_poly, weight))
            if back.poly != RationalPoly(ring.z_ring, chosen):
                ok, detail = False, f"z-roundtrip failed at n={n}, weight {weight}"
                break
        if not ok:
            break
    _report(3, ok, detail, time.perf_counter() - start, 60.0)


def test_criterion_4_reduction_identity_up_to_rank_five():
    start = time.perf_counter()
    ok = True
    detail = "a_k = P + lambda*c_k verified on the roots for all k <= n <= 5, lambda = n^k"
    for n in range(2, 6):
        ring = chern_ring(n)
        xs = [RationalPoly.gen(ring.root_ring, v) for v in ring.root_vars]
        es = elementary_symmetric_all(xs, ring.root_ring)
        ys = list(y_roots(ring))
        zs = elementary_symmetric_all(ys, ring.root_ring)
        for k in range(2, n + 1):
            data = lambda_p(n, k)
            if data.lam == 0 or data.lam != Fraction(n) ** k:
                ok, detail = False, f"lambda({n},{k}) = {data.lam}, expected {n}^{k}"
                break
            bindings = {Variable("c1", 1): es[1]}
            for i in range(2, k):
                bindings[Variable(f"a{i}", i)] = zs[i]
            rhs = (
                data.P.substitute(bindings, target_ring=ring.root_ring)
                + data.lam * es[k]
            )
            if rhs != zs[k]:
                ok, detail = False, f"identity failed at (n={n}, k={k})"
                break
        if not ok:
            break
    _report(4, ok, detail, time.perf_counter() - start, 30.0)


def test_criterion_5_hundred_canonicality_instances():
    start = time.perf_counter()
    gens = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))
    rng = random.Random(55)
    ok = True
    detail = "100 seeded twist instances (rank <= 4, genus <= 3) keep all canonical data"
    for idx in range(100):
        rank = 1 + idx % 4
        genus = (idx // 4) % 4
        algebra = ParameterAlgebra(gens, 2 * rank + 2)
        ring = SurfaceRing(genus)
        chern = [
            random_kunneth(rng, algebra, ring, 2 * i) for i in range(1, rank + 1)
        ]
        f = random_param_element(rng, algebra, 2)
        report = canonicality_check(rank, chern, f)
        if not report.passed:
            ok = False
            detail = (
                f"instance {idx} (rank {rank}, genus {genus}): {report.first_failure}"
            )
            break
    _report(5, ok, detail, time.perf_counter() - start, 30.0)


def test_criterion_6_thousand_weight_one_words():
    start = time.perf_counter()
    rng = random.Random(42)
    ok = True
    built = 0
    detail = ""
    for _ in range(1000):
        params = random_moduli_params(rng)
        report = check_conditions(params)
        for condition in report.satisfied:
            word = construct_xi(params, condition)
            if weight_of(word, params) != 1:
                ok, detail = False, f"word of weight != 1 for {condition}"
                break
            if condition == "C1":
                a, b = bezout_min_nonneg(params.n, params.det_weight(0))
                identity = a * params.n + b * params.det_weight(0)
            else:
                witness = report.witness_for(condition)
                modulus = (
                    params.n if condition == "C2" else params.n + params.d
                )
                a, b = bezout_min_nonneg(witness.tail_rank, modulus)
                identity = a * witness.tail_rank + b * modulus
            if identity != 1:
                ok, detail = False, f"Bezout identity broke for {condition}"
                break
            built += 1
        if not ok:
            break
    if ok:
        detail = (
            f"1000 random parameter sets: {built} constructed words,"
            " all of weight exactly 1 with exact Bezout certificates"
        )
    _report(6, ok, detail, time.perf_counter() - start, 5.0)


def test_criterion_7_newstead_catalog_golden():
    golden = (Path(__file__).parent / "golden" / "catalog_newstead_g2.txt").read_text()
    entries = generator_catalog(2, 2, ParabolicDatum(), fixed_det=True)
    rendered = "".join(f"{name} degree={deg}\n" for name, deg in entries)
    counts: dict[int, int] = {}
    for _, deg in entries:
        counts[deg] = counts.get(deg, 0) + 1
    ok = rendered == golden and counts == {2: 1, 3: 4, 4: 1}
    _report(
        7,
        ok,
        "rank-2 genus-2 fixed-determinant catalog matches the golden file"
        " with degree counts {2: 1, 3: 4, 4: 1}",
    )


def test_criterion_8_brute_force_oracle_up_to_rank_four():
    start = time.perf_counter()
    ok = True
    detail = (
        "independent root-expansion oracle reproduces every z_k and c_j(End)"
        " bit for bit at n <= 4"
    )
    for n in range(2, 5):
        ring = chern_ring(n)
        ys = list(y_roots(ring))
        for k in range(2, n + 1):
            expected = RationalPoly.zero(ring.root_ring)
            for combo in itertools.combinations(ys, k):
                prod = combo[0]
                for factor in combo[1:]:
                    prod = prod * factor
                expected = expected + prod
            oracle = express_in_elementary(
                expected, ring.root_vars, target_vars=ring.chern_vars
            )
            impl = z_basis(ring, k).poly
            if oracle.terms != impl.terms or oracle.to_text() != impl.to_text():
                ok, detail = False, f"z oracle mismatch at (n={n}, k={k})"
                break
        if not ok:
            break
        gens = [RationalPoly.gen(ring.root_ring, v) for v in ring.root_vars]
        nonzero = [a - b for a in gens for b in gens if not (a - b).is_zero()]
        for j in range(1, n * n + 1):
            if j > len(nonzero):
                expected = RationalPoly.zero(ring.root_ring)
            else:
                expected = _subset_esp(nonzero, ring.root_ring, j)
            if expected.is_zero():
                if not end_chern(n, j).poly.is_zero():
                    ok, detail = False, f"End oracle expected zero at (n={n}, j={j})"
                    break
                continue
            oracle = express_in_elementary(
                expected, ring.root_vars, target_vars=ring.chern_vars
            )
            impl = end_chern(n, j).poly
            if oracle.terms != impl.terms or oracle.to_text() != impl.to_text():
                ok, detail = False, f"End oracle mismatch at (n={n}, j={j})"
                break
        if not ok:
            break
    _report(8, ok, detail, time.perf_counter() - start, 60.0)
