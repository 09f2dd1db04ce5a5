"""Polynomial core: canonical form, arithmetic, symmetric functions, solver."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projchar.qpoly import (
    RationalPoly,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    first_difference,
    format_fraction,
    linear_solve,
    make_ring,
    parse_fraction,
    parse_poly,
)
from projchar.surfalg import (
    KunnethClass,
    ParameterAlgebra,
    SurfaceRing,
    random_kunneth,
)

from oracles import (
    elementary_symmetric,
    elementary_symmetric_by_steps,
    evaluate_by_terms,
    parse_poly_by_fractions,
)

X = Variable("x")
Y = Variable("y", 2)
Z = Variable("z")
RING = make_ring(X, Y, Z)

coef_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exps_st = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
poly_st = st.dictionaries(exps_st, coef_st, max_size=5).map(
    lambda d: RationalPoly(RING, d)
)


class TestVariableAndRing:
    def test_weight_defaults_to_one(self):
        assert Variable("a").weight == 1

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("2x")
        with pytest.raises(ValueError):
            Variable("x y")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            make_ring(Variable("x"), Variable("x", 2))


class TestFractionText:
    def test_integer_renders_bare(self):
        assert format_fraction(Fraction(7)) == "7"
        assert format_fraction(Fraction(-3)) == "-3"

    def test_proper_fraction(self):
        assert format_fraction(Fraction(2, 6)) == "1/3"

    def test_parse_roundtrip(self):
        for text in ("0", "-5", "7/3", "-1/4"):
            assert format_fraction(parse_fraction(text)) == text

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_fraction("x/y")
        with pytest.raises(ValueError):
            parse_fraction("1/0")


class TestCanonicalForm:
    def test_zero_merges_away(self):
        p = RationalPoly(RING, {(1, 0, 0): 1, (0, 1, 0): 0})
        assert p.exponent_items() == [((1, 0, 0), 1)]

    def test_terms_sorted_by_weight_then_exponents(self):
        p = RationalPoly(RING, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 1})
        # x, y and z^2 weigh 1, 2 and 2: y and z^2 lead, y first by exponents
        in_order = [p._exponents_of(key) for key in p._ordered_keys()]
        assert in_order == [(0, 1, 0), (0, 0, 2), (1, 0, 0)]
        assert p.to_text() == "1*y + 1*z^2 + 1*x"

    def test_equality_is_representation_equality(self):
        p = RationalPoly(RING, {(1, 0, 0): 1, (0, 0, 1): 2})
        q = RationalPoly(RING, [((0, 0, 1), 2), ((1, 0, 0), 1)])
        assert p == q

    def test_exponent_vector_length_checked(self):
        with pytest.raises(ValueError):
            RationalPoly(RING, {(1, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            RationalPoly(RING, {(-1, 0, 0): 1})

    def test_scalar_equality(self):
        assert RationalPoly.const(RING, 5) == 5
        assert RationalPoly.zero(RING) == 0

    def test_gen_requires_ring_member(self):
        with pytest.raises(ValueError):
            RationalPoly.gen(RING, Variable("w"))


class TestArithmetic:
    @given(poly_st, poly_st)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(poly_st, poly_st)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @settings(deadline=None)
    @given(poly_st, poly_st, poly_st)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert (p + q) * r == p * r + q * r

    @given(poly_st)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()
        assert p + (-p) == 0

    @given(poly_st)
    def test_small_powers_match_repeated_product(self, p):
        assert p**0 == 1
        assert p**1 == p
        assert p**3 == p * p * p

    def test_scalar_operations(self):
        x = RationalPoly.gen(RING, X)
        assert 2 * x + x == 3 * x
        assert (x / 2) * 2 == x
        assert 1 - x == -(x - 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalPoly.gen(RING, X) / 0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            RationalPoly.gen(RING, X) ** -1

    def test_ring_mismatch_raises(self):
        other = make_ring(Variable("w"))
        with pytest.raises(ValueError):
            RationalPoly.gen(RING, X) + RationalPoly.gen(other, Variable("w"))


class TestGrading:
    def test_term_weight_uses_variable_weights(self):
        p = RationalPoly(RING, {(1, 2, 0): 1})
        assert p.homogeneous_weight() == 5

    def test_mixed_weights_raise(self):
        p = RationalPoly(RING, {(1, 0, 0): 1, (0, 1, 0): 1})
        with pytest.raises(ValueError, match="not homogeneous"):
            p.homogeneous_weight()

    def test_zero_weight_is_none(self):
        assert RationalPoly.zero(RING).homogeneous_weight() is None

    @given(poly_st)
    def test_components_sum_back(self, p):
        comps = p.homogeneous_components()
        total = RationalPoly.zero(RING)
        for w, comp in comps.items():
            assert comp.homogeneous_weight() == w
            total = total + comp
        assert total == p

    def test_cohomological_degree_doubles_weight(self):
        p = RationalPoly(RING, {(0, 1, 0): 1})
        assert p.cohomological_degree() == 4


class TestSubstituteEvaluate:
    @settings(deadline=None, max_examples=30)
    @given(poly_st, poly_st)
    def test_substitute_is_a_ring_map(self, p, q):
        img = RationalPoly.gen(RING, X) + 1
        bindings = {X: img}
        lhs = (p * q).substitute(bindings, target_ring=RING)
        rhs = p.substitute(bindings, target_ring=RING) * q.substitute(
            bindings, target_ring=RING
        )
        assert lhs == rhs

    def test_unbound_variable_must_exist_in_target(self):
        p = RationalPoly.gen(RING, Y)
        small = make_ring(X)
        with pytest.raises(ValueError):
            p.substitute({X: RationalPoly.gen(small, X)}, target_ring=small)

    def test_substitute_respects_target_ring(self):
        p = RationalPoly.gen(RING, X) * RationalPoly.gen(RING, Z)
        w = Variable("w")
        target = make_ring(w, Z)
        out = p.substitute({X: RationalPoly.gen(target, w)}, target_ring=target)
        assert out.to_text() == "1*w*z"

    def test_unbound_variable_passes_into_larger_target(self):
        p = parse_poly("2*x*z + 1*z^2 + 5", RING)
        w, u = Variable("w"), Variable("u", 2)
        target = make_ring(w, Z, Y, u)
        out = p.substitute({X: RationalPoly.gen(target, w) + 1}, target_ring=target)
        assert out.ring == target
        assert out == parse_poly("2*w*z + 2*z + 1*z^2 + 5", target)
        assert out.to_text() == "2*w*z + 1*z^2 + 2*z + 5"

    def test_evaluate_numeric(self):
        p = parse_poly("1*x^2 + -1*y + 3", RING)
        val = p.evaluate({X: Fraction(2), Y: Fraction(5), Z: Fraction(0)})
        assert val == Fraction(2)

    def test_evaluate_missing_value(self):
        p = RationalPoly.gen(RING, Z)
        with pytest.raises(ValueError):
            p.evaluate({X: Fraction(1)})

    @pytest.mark.parametrize("seed", range(6))
    def test_evaluate_and_substitute_match_the_term_by_term_oracle(self, seed):
        rng = random.Random(seed)
        # dense and sparse exponents of x and z, a constant term, and y only
        # at exponent 0, so that y needs no value
        terms = {
            (rng.randint(0, 9), 0, rng.randint(0, 5)): rng.randint(-4, 4)
            for _ in range(6)
        }
        terms[(0, 0, 0)] = Fraction(rng.randint(1, 9), 2)
        p = RationalPoly(RING, terms)
        target = make_ring(Variable("w"), Variable("u", 2))
        algebra = ParameterAlgebra((("v1", 1), ("v2", 1), ("u1", 2)), 6)
        surface = SurfaceRing(1)
        kinds = [
            (lambda: Fraction(rng.randint(-5, 5), 3), Fraction(0)),
            (
                lambda: RationalPoly(target, {(1, 0): rng.randint(-2, 2), (0, 1): 1}),
                RationalPoly.zero(target),
            ),
            (
                lambda: random_kunneth(rng, algebra, surface, 2),
                KunnethClass.zero(algebra, surface),
            ),
        ]
        for draw, zero in kinds:
            values = {X: draw(), Z: draw()}
            got = p.evaluate(values, zero=zero)
            want = evaluate_by_terms(p, values, zero=zero)
            assert got == want
            assert type(got) is type(zero)
            assert str(got) == str(want)
        images = {X: kinds[1][0](), Z: kinds[1][0]()}  # y passes through unbound
        out = p.substitute(images, target_ring=target)
        want = evaluate_by_terms(p, images, zero=RationalPoly.zero(target))
        assert out == want
        assert out.to_text() == want.to_text()
        # once y occurs, both name it
        q = p + parse_poly("1*x^2*y", RING)
        for evaluate in (q.evaluate, lambda v: evaluate_by_terms(q, v)):
            with pytest.raises(ValueError) as exc:
                evaluate({X: Fraction(2), Z: Fraction(1)})
            assert str(exc.value) == "no value supplied for 'y'"


class TestTextFormat:
    def test_zero_text(self):
        assert RationalPoly.zero(RING).to_text() == "0"

    def test_coefficient_always_printed(self):
        p = RationalPoly(RING, {(1, 0, 0): 1, (0, 0, 2): -1})
        assert p.to_text() == "-1*z^2 + 1*x"

    def test_exponent_one_omitted(self):
        assert parse_poly("1*x^1", RING).to_text() == "1*x"
        # a zero exponent is accepted and makes the factor 1
        assert parse_poly("2*x^0*z + 1*y^00", RING).to_text() == "2*z + 1"

    def test_parse_accepts_bare_variable(self):
        assert parse_poly("x", RING) == RationalPoly.gen(RING, X)

    def test_parse_merges_duplicate_terms(self):
        assert parse_poly("1*x + 2*x", RING).to_text() == "3*x"

    def test_parse_fraction_coefficient(self):
        assert parse_poly("-1/2*y", RING).coefficient((0, 1, 0)) == Fraction(-1, 2)

    def test_parse_zero_literal(self):
        assert parse_poly("0", RING).is_zero()

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_poly("1*q", RING)

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_poly("   ", RING)
        with pytest.raises(ValueError):
            parse_poly("1*x + ", RING)

    @given(poly_st)
    def test_text_roundtrip(self, p):
        assert parse_poly(p.to_text(), RING) == p


def _int_limit_text(digits):
    """int's refusal under the default limit of 4300 digits."""
    return (
        f"Exceeds the limit (4300 digits) for integer string conversion: value has"
        f" {digits} digits; use sys.set_int_max_str_digits() to increase the limit"
    )


LONG = "1" * 5000


class TestParseErrorTexts:
    """Every error text of `parse_poly`, byte for byte."""

    @pytest.fixture(autouse=True)
    def default_int_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty polynomial text"),
            ("  ", "empty polynomial text"),
            ("1*x + ", "empty term in '1*x + '"),
            ("1*x + + y", "empty term in '1*x + + y'"),
            ("1*x*", "cannot parse factor ''"),
            ("2*$", "cannot parse factor '$'"),
            ("1.5*x", "cannot parse factor '1.5'"),
            ("x^-1", "cannot parse factor 'x^-1'"),
            ("1*q", "unknown variable 'q'"),
            ("1/0*x", "cannot parse rational '1/0': Fraction(1, 0)"),
            ("x^" + "9" * 5000, _int_limit_text(5000)),
            (LONG + "*x", f"cannot parse rational '{LONG}': {_int_limit_text(5000)}"),
            (f"-{LONG}", f"cannot parse rational '-{LONG}': {_int_limit_text(5000)}"),
            (f"1/{LONG}", f"cannot parse rational '1/{LONG}': {_int_limit_text(5000)}"),
        ],
        ids=lambda v: v[:24] if isinstance(v, str) else None,
    )
    def test_message(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_poly(text, RING)
        assert str(info.value) == message


def _parsed(parse, text):
    """The width and the typed terms of the parse, or the ValueError text."""
    try:
        p = parse(text, RING)
    except ValueError as exc:
        return str(exc)
    return p._width, {key: (type(c), c) for key, c in p.terms.items()}


good_factor_st = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.tuples(st.integers(-20, 20), st.integers(1, 9)).map("{0[0]}/{0[1]}".format),
    st.sampled_from(["+3", "007", "-0", "2/4", "5/1", "+1/2"]),
    st.tuples(st.sampled_from("xyz"), st.integers(0, 600)).map("{0[0]}^{0[1]}".format),
    st.sampled_from("xyz"),
    st.sampled_from("xyz"),
)
bad_factor_st = st.sampled_from(
    ["", " ", "1/0", "1.5", "$", "x^-1", "q", "q^2", "x^", LONG, "x^" + "9" * 5000]
)
# three good factors to one bad one; odd-length terms get spaces around '*'
factor_st = st.one_of(good_factor_st, good_factor_st, good_factor_st, bad_factor_st)
term_st = st.lists(factor_st, min_size=1, max_size=4).map(
    lambda fs: (" * " if len(fs) % 2 else "*").join(fs)
)
poly_text_st = st.lists(term_st, max_size=5).map(" + ".join)


class TestParseAgainstFractions:
    @settings(deadline=None, max_examples=300)
    @given(poly_text_st)
    def test_same_polynomial_or_same_error(self, text):
        assert _parsed(parse_poly, text) == _parsed(parse_poly_by_fractions, text)


class TestSymmetricFunctions:
    def setup_method(self):
        self.xs = [Variable(f"x{i}") for i in (1, 2, 3)]
        self.ring = make_ring(*self.xs)

    def test_elementary_values(self):
        e2 = elementary_symmetric(2, self.xs)
        assert e2.to_text() == "1*x1*x2 + 1*x1*x3 + 1*x2*x3"
        e0 = elementary_symmetric(0, self.xs)
        assert e0 == 1

    def test_elementary_all_matches_singletons(self):
        gens = [RationalPoly.gen(self.ring, v) for v in self.xs]
        es = elementary_symmetric_all(gens, RationalPoly.const(self.ring, 1))
        for k in range(4):
            assert es[k] == elementary_symmetric(k, self.xs)

    def test_elementary_all_over_numbers_and_polynomials(self):
        # each e_k is the oracle's subset sum evaluated term by term
        p = parse_poly("1*x1*x2 + -1/2*x3", self.ring)
        x1 = RationalPoly.gen(self.ring, self.xs[0])
        cases = [
            ([], 1),
            ([3, -1, 4, 0, -5], 1),
            ([Fraction(1, 2), Fraction(-2, 3), Fraction(5)], Fraction(1)),
            ([p, p - 1, x1], RationalPoly.const(self.ring, 1)),
        ]
        for values, one in cases:
            names = [Variable(f"v{i}") for i in range(len(values))]
            assignment = dict(zip(names, values))
            expected = [
                evaluate_by_terms(elementary_symmetric(k, names), assignment, one - one)
                for k in range(len(values) + 1)
            ]
            got = elementary_symmetric_all(values, one)
            assert got == expected
            assert all(type(e) is type(one) for e in got)

    def test_elementary_all_matches_running_steps_and_changes_no_input(self):
        p = parse_poly("1*x1*x2 + -1/2*x3 + 2", self.ring)
        x1, x2, x3 = (RationalPoly.gen(self.ring, v) for v in self.xs)
        cases = [
            ([3, -1, 4, 0, -5, 2], 1),
            ([Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4)], Fraction(1)),
            ([p, x1 - x2, 3, p * x3, Fraction(-1, 2), x1], RationalPoly.const(self.ring, 1)),
        ]

        def snapshot(x):
            return dict(x.terms) if isinstance(x, RationalPoly) else x

        for values, one in cases:
            before = [snapshot(x) for x in (one, *values)]
            got = elementary_symmetric_all(values, one)
            expected = elementary_symmetric_by_steps(values, one)
            assert got == expected
            assert [str(e) for e in got] == [str(e) for e in expected]
            assert [snapshot(x) for x in (one, *values)] == before

    def test_elementary_all_refuses_two_rings(self):
        other = make_ring(Variable("t"))
        x1 = RationalPoly.gen(self.ring, self.xs[0])
        t = RationalPoly.gen(other, other[0])
        for values, one in (
            ([x1, t], RationalPoly.const(self.ring, 1)),
            ([x1], RationalPoly.const(other, 1)),
        ):
            with pytest.raises(ValueError, match="^ring mismatch$"):
                elementary_symmetric_all(values, one)

    def test_elementary_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(4, self.xs)

    def test_difference_square_in_elementary_basis(self):
        xs = [Variable("x1"), Variable("x2")]
        ring = make_ring(*xs)
        diff = RationalPoly.gen(ring, xs[0]) - RationalPoly.gen(ring, xs[1])
        p = diff * diff
        q = express_in_elementary(p, xs)
        assert q.to_text() == "1*e1^2 + -4*e2"
        # numeric cross-check at x = (3, 1): 4 = 16 - 12
        assert p.evaluate({xs[0]: Fraction(3), xs[1]: Fraction(1)}) == 4
        e1, e2 = q.ring
        assert q.evaluate({e1: Fraction(4), e2: Fraction(3)}) == 4

    def test_express_rejects_asymmetric(self):
        p = RationalPoly.gen(self.ring, self.xs[0])
        with pytest.raises(ValueError):
            express_in_elementary(p, self.xs)

    def test_express_rejects_asymmetric_after_descent_steps(self):
        # the lead x1^2 is weakly decreasing: the descent takes e1^2, then
        # -2*e2, and stops at the lead -1*x2^2 of what is left
        p = parse_poly("1*x1^2 + 1*x2", self.ring)
        with pytest.raises(ValueError) as info:
            express_in_elementary(p, self.xs)
        assert str(info.value) == "polynomial is not symmetric in the given variables"

    def test_express_requires_the_ring_of_the_variables(self):
        x1, x2, x3 = self.xs
        for ring in (make_ring(x1, x2, x3, Variable("t")), make_ring(x2, x1, x3)):
            p = elementary_symmetric(2, self.xs, ring)
            names = ", ".join(v.name for v in ring)
            with pytest.raises(ValueError) as info:
                express_in_elementary(p, self.xs)
            assert str(info.value) == (
                f"polynomial ring ({names}) is not the ring of the given"
                " variables (x1, x2, x3)"
            )

    def test_express_roundtrip_on_powers(self):
        gens = [RationalPoly.gen(self.ring, v) for v in self.xs]
        p3 = gens[0] ** 3 + gens[1] ** 3 + gens[2] ** 3
        q = express_in_elementary(p3, self.xs)
        # Newton: p3 = e1^3 - 3 e1 e2 + 3 e3
        assert q.to_text() == "1*e1^3 + -3*e1*e2 + 3*e3"

    def test_custom_target_variables(self):
        xs = [Variable("x1"), Variable("x2")]
        cs = [Variable("c1", 1), Variable("c2", 2)]
        ring = make_ring(*xs)
        p = RationalPoly.gen(ring, xs[0]) * RationalPoly.gen(ring, xs[1])
        q = express_in_elementary(p, xs, target_vars=cs)
        assert q.to_text() == "1*c2"

    def test_failed_back_substitution_names_targets_and_term(self, monkeypatch):
        original = RationalPoly.substitute

        def off_by_one(self, *args, **kwargs):
            return original(self, *args, **kwargs) + 1

        monkeypatch.setattr(RationalPoly, "substitute", off_by_one)
        xs = [Variable("x1"), Variable("x2")]
        cs = [Variable("c1", 1), Variable("c2", 2)]
        p = elementary_symmetric(2, xs)
        with pytest.raises(RuntimeError) as info:
            express_in_elementary(p, xs, target_vars=cs)
        message = str(info.value)
        assert "rewrite in c1, c2 failed back-substitution" in message
        assert "first differing term 1 (1 against 0)" in message


class TestFirstDifference:
    def test_leading_differing_monomial(self):
        p = parse_poly("3*x^2 + 1*y + 2*z", RING)
        q = parse_poly("3*x^2 + 1*z", RING)
        # y has weight 2, so it leads the difference y + z
        assert first_difference(p, q) == "y (1 against 0)"
        assert first_difference(q, p) == "y (0 against 1)"

    def test_rational_coefficients_and_constants(self):
        p = parse_poly("1/2*x*z + 5", RING)
        q = parse_poly("1/3*x*z + 5", RING)
        assert first_difference(p, q) == "x*z (1/2 against 1/3)"
        assert first_difference(p + 1, p) == "1 (6 against 5)"

    def test_equal_polynomials(self):
        p = parse_poly("1*x", RING)
        assert first_difference(p, p) == "none"


class TestLinearSolve:
    def test_unique(self):
        res = linear_solve([[2, 1], [1, -1]], [5, 1])
        assert res.status == "unique"
        assert res.solution == (Fraction(2), Fraction(1))

    def test_inconsistent(self):
        res = linear_solve([[1, 1], [2, 2]], [1, 3])
        assert res.status == "inconsistent"
        assert res.solution is None

    def test_underdetermined(self):
        res = linear_solve([[1, 1], [2, 2]], [1, 2])
        assert res.status == "underdetermined"

    def test_fractional_entries(self):
        res = linear_solve([[Fraction(1, 2)]], [Fraction(1, 3)])
        assert res.status == "unique"
        assert res.solution == (Fraction(2, 3),)

    def test_overdetermined_consistent(self):
        res = linear_solve([[1], [2], [3]], [2, 4, 6])
        assert res.status == "unique"
        assert res.solution == (Fraction(2),)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            linear_solve([[1, 2], [1]], [1, 1])

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            linear_solve([[1]], [1, 2])

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda size: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=size, max_size=size),
                    min_size=size,
                    max_size=size,
                ),
                st.lists(st.integers(-4, 4), min_size=size, max_size=size),
            )
        )
    )
    def test_constructed_systems_stay_consistent(self, data):
        matrix, x = data
        rhs = [sum(row[j] * x[j] for j in range(len(x))) for row in matrix]
        res = linear_solve(matrix, rhs)
        assert res.status != "inconsistent"
        if res.status == "unique":
            for row, b in zip(matrix, rhs):
                assert sum(Fraction(a) * s for a, s in zip(row, res.solution)) == b
