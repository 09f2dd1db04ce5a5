"""Canonical classes of projectivized bundles: z-generators, reduction, End classes."""

import random
from fractions import Fraction

import pytest

from projchar import projclass
from projchar.projclass import (
    AClassExpression,
    ChernExpression,
    a_classes,
    chern_ring,
    end_chern,
    end_in_a,
    express_c_poly_in_z,
    express_in_z,
    generator_catalog,
    hom_flag_chern,
    is_shift_invariant,
    lambda_p,
    rewrite_in_z,
    surjectivity_witness,
    twist,
    z_basis,
)
from projchar.qpoly import (
    RationalPoly,
    Variable,
    format_fraction,
    make_ring,
    parse_poly,
)
from projchar.univdet import ParabolicDatum, ParabolicPoint

from oracles import elementary_symmetric, embedded, expand_to_roots, span_witness, y_roots


def z_monomial_c_poly(ring, exps):
    out = RationalPoly.const(ring.c_ring, 1)
    for k, e in zip(range(2, ring.rank + 1), exps):
        if e:
            out = out * z_basis(ring, k).poly ** e
    return out


def shift_oracle(ring, poly):
    """Invariance decided on the roots: expand, apply x_i -> x_i + d, compare."""
    roots = expand_to_roots(ring, poly)
    d = Variable("d")
    big = make_ring(*ring.root_vars, d)
    dp = RationalPoly.gen(big, d)
    bindings = {v: RationalPoly.gen(big, v) + dp for v in ring.root_vars}
    return roots.substitute(bindings, target_ring=big) == embedded(roots, big)


def seeded_invariant(rng, ring, weight):
    """A random z-combination of the given weight, expanded in c_1..c_n."""
    out = RationalPoly.zero(ring.c_ring)
    ks = list(range(2, ring.rank + 1))

    def rec(i, remaining, acc):
        nonlocal out
        if remaining == 0:
            out = out + rng.choice([-3, -2, -1, 1, 2, 3]) * z_monomial_c_poly(
                ring, acc + [0] * (len(ks) - len(acc))
            )
            return
        if i == len(ks):
            return
        for e in range(remaining // ks[i] + 1):
            rec(i + 1, remaining - e * ks[i], acc + [e])

    rec(0, weight, [])
    return out


class TestRingLayout:
    def test_variable_names_and_weights(self):
        ring = chern_ring(3)
        assert [v.name for v in ring.root_vars] == ["x1", "x2", "x3"]
        assert [(v.name, v.weight) for v in ring.chern_vars] == [
            ("c1", 1),
            ("c2", 2),
            ("c3", 3),
        ]
        assert [(v.name, v.weight) for v in ring.z_vars] == [("z2", 2), ("z3", 3)]

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            chern_ring(0)

    def test_expression_weight_checked(self):
        ring = chern_ring(2)
        c2 = RationalPoly.gen(ring.c_ring, ring.chern_vars[1])
        with pytest.raises(ValueError):
            ChernExpression(ring, c2, 1)
        with pytest.raises(ValueError):
            ChernExpression(ring, c2, -1)

    def test_expression_ring_checked(self):
        ring = chern_ring(2)
        p = RationalPoly.const(make_ring(Variable("t")), 1)
        with pytest.raises(ValueError):
            ChernExpression(ring, p, 0)

    def test_a_class_expression_must_be_homogeneous(self):
        ring = chern_ring(3)
        z2 = RationalPoly.gen(ring.z_ring, ring.z_vars[0])
        with pytest.raises(ValueError):
            AClassExpression(ring, z2 + 1)
        assert AClassExpression(ring, z2).weight == 2


class TestDifferenceRoots:
    def test_rank_one_root_vanishes(self):
        roots = y_roots(chern_ring(1))
        assert len(roots) == 1 and roots[0].is_zero()

    def test_rank_two_roots(self):
        r1, r2 = y_roots(chern_ring(2))
        assert r1.to_text() == "1*x1 + -1*x2"
        assert r2 == -r1

    def test_roots_sum_to_zero(self):
        for n in (3, 4):
            roots = y_roots(chern_ring(n))
            total = roots[0]
            for r in roots[1:]:
                total = total + r
            assert total.is_zero()


class TestZBasis:
    def test_frozen_small_cases(self):
        assert z_basis(chern_ring(2), 2).to_text() == "-1*c1^2 + 4*c2"
        assert z_basis(chern_ring(3), 2).to_text() == "-3*c1^2 + 9*c2"
        assert (
            z_basis(chern_ring(3), 3).to_text() == "2*c1^3 + -9*c1*c2 + 27*c3"
        )

    def test_z2_closed_form(self):
        # e_2 of the difference roots: n(1-n)/2 * c1^2 + n^2 * c2
        for n in range(2, 6):
            ring = chern_ring(n)
            lead = Fraction(n * (1 - n), 2)
            text = f"{format_fraction(lead)}*c1^2 + {n * n}*c2"
            assert z_basis(ring, 2).to_text() == text

    def test_binomial_expansion_oracle(self):
        # e_k(n*x_i + t) at t = -e_1 gives
        # z_k = sum_j C(n-j, k-j) * n^j * c_j * (-c1)^(k-j)
        import math

        for n in range(2, 6):
            ring = chern_ring(n)
            c = [None] + [
                RationalPoly.gen(ring.c_ring, v) for v in ring.chern_vars
            ]
            for k in range(2, n + 1):
                expected = RationalPoly.zero(ring.c_ring)
                for j in range(k + 1):
                    base = c[j] if j else RationalPoly.const(ring.c_ring, 1)
                    term = (
                        math.comb(n - j, k - j)
                        * Fraction(n) ** j
                        * base
                        * (-c[1]) ** (k - j)
                    )
                    expected = expected + term
                assert z_basis(ring, k).poly == expected

    def test_twist_matches_shifted_roots(self):
        # numeric roots: e_k(x_i + f) against the closed form from e_k(x)
        rng = random.Random(3)
        for n in range(1, 7):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            f = Fraction(rng.randint(-9, 9), 5)

            def esp(values):
                es = [Fraction(1)] + [Fraction(0)] * len(values)
                for v in values:
                    for k in range(len(es) - 1, 0, -1):
                        es[k] += v * es[k - 1]
                return es[1:]

            assert twist(esp(xs), f, Fraction(1)) == esp([x + f for x in xs])

    def test_k_bounds(self):
        ring = chern_ring(3)
        with pytest.raises(ValueError):
            z_basis(ring, 1)
        with pytest.raises(ValueError):
            z_basis(ring, 4)

    def test_weight_and_degree(self):
        expr = z_basis(chern_ring(4), 3)
        assert expr.weight == 3
        assert expr.poly.cohomological_degree() == 6


class TestShiftInvariance:
    def test_generators_are_invariant(self):
        for n in range(2, 5):
            ring = chern_ring(n)
            for k in range(2, n + 1):
                assert is_shift_invariant(z_basis(ring, k))

    def test_c1_is_not_invariant(self):
        ring = chern_ring(2)
        c1 = RationalPoly.gen(ring.c_ring, ring.chern_vars[0])
        assert not is_shift_invariant(ChernExpression(ring, c1, 1))

    def test_normalized_c2_combination(self):
        ring = chern_ring(2)
        p = parse_poly("1*c2 + -1/4*c1^2", ring.c_ring)
        assert is_shift_invariant(ChernExpression(ring, p, 2))

    def test_root_oracle_agrees_on_seeded_classes(self):
        rng = random.Random(11)
        for n in range(2, 5):
            ring = chern_ring(n)
            c1 = RationalPoly.gen(ring.c_ring, ring.chern_vars[0])
            for weight in range(2, 6):
                invariant = seeded_invariant(rng, ring, weight)
                perturbed = invariant + rng.choice([-2, -1, 1, 3]) * c1**weight
                for poly, expected in ((invariant, True), (perturbed, False)):
                    expr = ChernExpression(ring, poly, weight)
                    assert shift_oracle(ring, poly) is expected
                    assert is_shift_invariant(expr) is expected

    def test_rewrite_is_none_exactly_off_the_invariants(self):
        ring = chern_ring(3)
        c1 = RationalPoly.gen(ring.c_ring, ring.chern_vars[0])
        z3 = z_basis(ring, 3).poly
        assert rewrite_in_z(ChernExpression(ring, z3, 3)).to_text() == "1*z3"
        assert rewrite_in_z(ChernExpression(ring, z3 + c1**3, 3)) is None
        assert rewrite_in_z(ChernExpression(ring, c1**40, 40)) is None

    def test_expand_to_roots_matches_elementary(self):
        ring = chern_ring(3)
        c2 = RationalPoly.gen(ring.c_ring, ring.chern_vars[1])
        assert expand_to_roots(ring, c2) == elementary_symmetric(2, ring.root_vars)


class TestExpressInZ:
    def test_generator_roundtrips_to_itself(self):
        ring = chern_ring(3)
        out = express_in_z(z_basis(ring, 3))
        assert out.to_text() == "1*z3"

    def test_constant_passes_through(self):
        ring = chern_ring(3)
        expr = ChernExpression(ring, RationalPoly.const(ring.c_ring, 5), 0)
        assert express_in_z(expr).to_text() == "5"

    def test_zero_maps_to_zero(self):
        ring = chern_ring(2)
        out = express_in_z(ChernExpression(ring, RationalPoly.zero(ring.c_ring), 4))
        assert out.poly.is_zero()

    def test_non_invariant_rejected(self):
        ring = chern_ring(2)
        c1 = RationalPoly.gen(ring.c_ring, ring.chern_vars[0])
        with pytest.raises(ValueError, match="shift-invariant"):
            express_in_z(ChernExpression(ring, c1, 1))

    def test_seeded_roundtrips(self):
        rng = random.Random(7)
        ring = chern_ring(3)
        for _ in range(25):
            weight = rng.randint(2, 6)
            monos = [
                (e2, e3)
                for e2 in range(4)
                for e3 in range(3)
                if 2 * e2 + 3 * e3 == weight
            ]
            chosen = {
                m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                for m in rng.sample(monos, k=rng.randint(1, len(monos)))
            }
            c_poly = RationalPoly.zero(ring.c_ring)
            for exps, coef in chosen.items():
                c_poly = c_poly + coef * z_monomial_c_poly(ring, exps)
            out = express_in_z(ChernExpression(ring, c_poly, weight))
            assert out.poly == RationalPoly(ring.z_ring, chosen)

    def test_mixed_weights_handled_componentwise(self):
        ring = chern_ring(2)
        z2 = z_basis(ring, 2).poly
        mixed = z2 + 3
        out = express_c_poly_in_z(ring, mixed)
        assert out.to_text() == "1*z2 + 3"


class TestReduction:
    def test_lambda_is_rank_power(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                assert lambda_p(n, k).lam == Fraction(n) ** k

    def test_top_rank_six(self):
        assert lambda_p(6, 6).lam == 46656

    def test_frozen_p_polynomials(self):
        assert lambda_p(2, 2).P.to_text() == "-1*c1^2"
        assert lambda_p(3, 2).P.to_text() == "-3*c1^2"
        assert lambda_p(3, 3).P.to_text() == "-1*c1^3 + -1*c1*a2"

    def test_p_uses_only_c1_and_lower_a(self):
        for n in (4, 5):
            for k in range(2, n + 1):
                data = lambda_p(n, k)
                names = {v.name for v in data.P.ring}
                allowed = {"c1"} | {f"a{i}" for i in range(2, k)}
                assert names <= allowed
                used = {
                    v.name
                    for exps in data.P.terms
                    for v, e in zip(data.P.ring, exps)
                    if e
                }
                assert used <= allowed

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            lambda_p(3, 1)
        with pytest.raises(ValueError):
            lambda_p(3, 4)

    def test_failed_identity_names_inputs_and_term(self, monkeypatch):
        import projchar.projclass as pc

        original = pc._z_poly

        def perturbed(n, k):
            ring = chern_ring(n)
            return original(n, k) + RationalPoly.gen(ring.c_ring, ring.chern_vars[0]) ** k

        monkeypatch.setattr(pc, "_z_poly", perturbed)
        lambda_p.cache_clear()
        try:
            with pytest.raises(RuntimeError) as info:
                lambda_p(4, 2)
        finally:
            lambda_p.cache_clear()
        message = str(info.value)
        assert "(n=4, k=2)" in message
        assert "first differing term c1^2 (-6 against -5)" in message

    def test_golden_reduction_table(self, request):
        golden = (
            request.path.parent / "golden" / "reduction_table.txt"
        ).read_text()
        lines = []
        for n in range(2, 7):
            for k in range(2, n + 1):
                data = lambda_p(n, k)
                lines.append(
                    f"n={n} k={k} lambda={format_fraction(data.lam)}"
                    f" P={data.P.to_text()}"
                )
        assert "\n".join(lines) + "\n" == golden


class TestAClasses:
    def test_numeric_rank_two(self):
        # z_2 = -c1^2 + 4*c2 at (3, 5) is 11
        assert a_classes(2, [3, 5]) == [Fraction(11)]

    def test_rank_one_has_none(self):
        assert a_classes(1, []) == []

    def test_trailing_values_default_to_zero(self):
        ring = make_ring(Variable("t", 3))
        t = RationalPoly.gen(ring, Variable("t", 3))
        res = a_classes(3, [0, 0, t])
        assert res[0] == 0
        assert res[1] == 27 * t
        assert a_classes(3, []) == [Fraction(0), Fraction(0)]

    def test_symbolic_values_recover_z_basis(self):
        ring = chern_ring(3)
        gens = [RationalPoly.gen(ring.c_ring, v) for v in ring.chern_vars]
        res = a_classes(3, gens)
        assert res == [z_basis(ring, 2).poly, z_basis(ring, 3).poly]

    def test_too_many_values(self):
        with pytest.raises(ValueError):
            a_classes(2, [1, 2, 3])

    def test_graded_value_degree_checked(self):
        ring = make_ring(Variable("u", 2))
        u = RationalPoly.gen(ring, Variable("u", 2))
        # u has cohomological degree 4; c1 needs degree 2
        with pytest.raises(ValueError):
            a_classes(2, [u, 0])

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            a_classes(0, [])


class TestEndClasses:
    def test_rank_two_matches_z2(self):
        assert end_chern(2, 2).poly == z_basis(chern_ring(2), 2).poly

    def test_odd_classes_vanish(self):
        for n in (2, 3):
            for j in range(1, n * n + 1, 2):
                assert end_chern(n, j).poly.is_zero()

    def test_beyond_nonzero_roots_vanishes(self):
        # n = 2 has two nonzero differences, so e_3 and e_4 collapse
        assert end_chern(2, 4).poly.is_zero()

    def test_j_bounds(self):
        with pytest.raises(ValueError):
            end_chern(2, 0)
        with pytest.raises(ValueError):
            end_chern(2, 5)

    def test_end_in_a_rank_two(self):
        assert end_in_a(2, 2).to_text() == "1*z2"

    def test_end_in_a_rank_three(self):
        # e_2 of the differences is (2/n) * z_2: both equal minus half the
        # power sum, p_2(differences) = 2n*sum(x^2) - 2*e1^2 = (2/n)*p_2(y)
        assert end_in_a(3, 2).to_text() == "2/3*z2"

    def test_surjectivity_results(self):
        assert surjectivity_witness(2) is False
        assert surjectivity_witness(3) is True

    def test_surjectivity_rank_bound(self):
        with pytest.raises(ValueError):
            surjectivity_witness(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_surjectivity_matches_span_search(self, n):
        assert surjectivity_witness(n) is span_witness(n)

    def test_surjectivity_builds_no_end_class(self):
        before = projclass._end_classes.cache_info().currsize
        assert surjectivity_witness(30) is True
        assert projclass._end_classes.cache_info().currsize == before


class TestHomFlag:
    def test_line_to_line(self):
        s1, t1 = Variable("s1"), Variable("t1")
        assert hom_flag_chern([s1], [t1], 1).to_text() == "-1*s1 + 1*t1"

    def test_line_to_plane_top_class(self):
        s1, t1, t2 = Variable("s1"), Variable("t1"), Variable("t2")
        assert (
            hom_flag_chern([s1], [t1, t2], 2).to_text()
            == "1*s1^2 + -1*s1*t1 + -1*s1*t2 + 1*t1*t2"
        )

    def test_simultaneous_shift_invariance(self):
        svars = [Variable("s1"), Variable("s2")]
        tvars = [Variable("t1")]
        p = hom_flag_chern(svars, tvars, 2)
        d = Variable("d0")
        big = make_ring(*svars, *tvars, d)
        dp = RationalPoly.gen(big, d)
        bindings = {v: RationalPoly.gen(big, v) + dp for v in svars + tvars}
        assert p.substitute(bindings, target_ring=big) == embedded(p, big)

    def test_j_bounds(self):
        s1, t1 = Variable("s1"), Variable("t1")
        with pytest.raises(ValueError):
            hom_flag_chern([s1], [t1], 0)
        with pytest.raises(ValueError):
            hom_flag_chern([s1], [t1], 2)


class TestGeneratorCatalog:
    def test_rank_two_genus_two_fixed_determinant(self):
        out = generator_catalog(2, 2, ParabolicDatum(), fixed_det=True)
        assert out == [
            ("sigma(a2(P(U)))/[x0]", 4),
            ("sigma(a2(P(U)))/a1", 3),
            ("sigma(a2(P(U)))/a2", 3),
            ("sigma(a2(P(U)))/b1", 3),
            ("sigma(a2(P(U)))/b2", 3),
            ("sigma(a2(P(U)))/[X]", 2),
        ]

    def test_varying_determinant_adds_degree_one_entries(self):
        out = generator_catalog(2, 2, ParabolicDatum(), fixed_det=False)
        ones = [entry for entry in out if entry[1] == 1]
        assert ones == [
            ("sigma(c1(U))/a1", 1),
            ("sigma(c1(U))/a2", 1),
            ("sigma(c1(U))/b1", 1),
            ("sigma(c1(U))/b2", 1),
        ]

    def test_rank_one_is_empty(self):
        assert generator_catalog(1, 3, ParabolicDatum(), fixed_det=True) == []

    def test_marked_point_contributes_hom_classes(self):
        datum = ParabolicDatum(
            (ParabolicPoint("x", (1, 1), (Fraction(0), Fraction(1, 2))),)
        )
        out = generator_catalog(2, 0, datum, fixed_det=True)
        assert out == [
            ("c1(Hom(U[x,2],U[x,1]))", 2),
            ("sigma(a2(P(U)))/[x0]", 4),
            ("sigma(a2(P(U)))/[X]", 2),
        ]

    def test_block_budget_scales_with_multiplicities(self):
        datum = ParabolicDatum(
            (ParabolicPoint("p", (2, 1), (Fraction(0), Fraction(1, 2))),)
        )
        out = generator_catalog(3, 0, datum, fixed_det=True)
        hom = [name for name, _ in out if name.startswith("c")]
        assert hom == [
            "c1(Hom(U[p,2],U[p,1]))",
            "c2(Hom(U[p,2],U[p,1]))",
        ]

    def test_invalid_datum_rejected(self):
        datum = ParabolicDatum(
            (ParabolicPoint("x", (1, 1), (Fraction(0), Fraction(1, 2))),)
        )
        with pytest.raises(ValueError):
            generator_catalog(3, 0, datum, fixed_det=True)
