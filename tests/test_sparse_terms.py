"""The shared sparse-term kernel, exercised through all four element types."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from projchar.qpoly import RationalPoly, SparseTerms, Variable, make_ring
from projchar.surfalg import (
    KunnethClass,
    ParamElement,
    ParameterAlgebra,
    SurfaceClass,
    SurfaceRing,
    random_kunneth,
    random_param_element,
)

GENS = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))


def repeated_product(x, e):
    """x * x * ... * x (e factors), multiplied left to right from the unit."""
    return reduce(lambda acc, _: acc * x, range(e), x * 0 + 1)


def mixed_param_element(rng, algebra):
    """Inhomogeneous element over degrees 0..3, so powers meet the truncation."""
    return sum(
        (random_param_element(rng, algebra, d) for d in range(4)), algebra.zero()
    )


def mixed_kunneth(rng, algebra, ring):
    total = KunnethClass.unit(algebra, ring) * rng.choice((-2, -1, 1, 3))
    for d in range(1, 4):
        total = total + random_kunneth(rng, algebra, ring, d, max_terms=3)
    return total


class TestPowers:
    @pytest.mark.parametrize("seed", range(6))
    def test_param_element_powers_match_repeated_product(self, seed):
        rng = random.Random(seed)
        algebra = ParameterAlgebra(GENS, rng.choice((4, 5, 6)))
        x = mixed_param_element(rng, algebra)
        assert any(e[0] or e[1] for e in x.terms), "no odd generator used"
        for e in range(7):
            assert x**e == repeated_product(x, e)

    def test_param_element_powers_vanish_past_truncation(self):
        algebra = ParameterAlgebra(GENS, 5)
        x = algebra.gen("u1") + algebra.gen("v1")
        assert not (x**2).is_zero()
        assert (x**6).is_zero()
        assert (x**6) == repeated_product(x, 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_kunneth_powers_match_repeated_product(self, seed):
        rng = random.Random(100 + seed)
        algebra = ParameterAlgebra(GENS, 6)
        x = mixed_kunneth(rng, algebra, SurfaceRing(rng.choice((1, 2))))
        for e in range(7):
            assert x**e == repeated_product(x, e)


def _cross_space_pairs():
    """(element, element of another space of the same type, mismatch message)."""
    x, w = Variable("x"), Variable("w")
    alg, small = ParameterAlgebra(GENS, 6), ParameterAlgebra(GENS[:2], 6)
    g1, g2 = SurfaceRing(1), SurfaceRing(2)
    kunneth = KunnethClass.from_surface
    return [
        (
            RationalPoly.gen(make_ring(x), x),
            RationalPoly.gen(make_ring(x, w), x),
            "ring mismatch",
        ),
        (SurfaceClass.alpha(g1, 1), SurfaceClass.alpha(g2, 1), "surface ring mismatch"),
        (alg.gen("v1"), small.gen("v1"), "parameter algebra mismatch"),
        (
            kunneth(alg, SurfaceClass.alpha(g1, 1)),
            kunneth(alg, SurfaceClass.alpha(g2, 1)),
            "Kunneth algebra or ring mismatch",
        ),
        (
            kunneth(alg, SurfaceClass.alpha(g1, 1)),
            kunneth(small, SurfaceClass.alpha(g1, 1)),
            "Kunneth algebra or ring mismatch",
        ),
    ]


class TestSpaces:
    @pytest.mark.parametrize("a, b, message", _cross_space_pairs())
    def test_arithmetic_across_spaces_raises(self, a, b, message):
        assert isinstance(a, SparseTerms)
        for op in (
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: b * a,
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                op()

    @pytest.mark.parametrize("a, b, message", _cross_space_pairs())
    def test_equality_across_spaces_is_false(self, a, b, message):
        assert (a == b) is False
        assert (a != b) is True

    @pytest.mark.parametrize("a, b, message", _cross_space_pairs())
    def test_unrelated_operand_is_not_implemented(self, a, b, message):
        assert a.__eq__("x") is NotImplemented
        assert a != "x"

    def test_unrelated_operands_raise_type_error(self):
        alg = ParameterAlgebra(GENS, 6)
        x = Variable("x")
        with pytest.raises(TypeError):
            SurfaceClass.unit(SurfaceRing(1)) * alg.gen("v1")
        with pytest.raises(TypeError):
            RationalPoly.gen(make_ring(x), x) + "x"

    @pytest.mark.parametrize("a, b, message", _cross_space_pairs())
    def test_repr_names_the_type(self, a, b, message):
        assert repr(a) == f"{type(a).__name__}({a.to_text()})"


# -- canonical form ------------------------------------------------------------


def _fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def _canonical_cases():
    """Per type: (build from pairs, candidate keys, random coefficient, sort).

    The order oracle is the documented term order, written out independently
    of the kernel: RationalPoly descends by (weight, exponents), the other
    types ascend (ParamElement by (degree, exponents), the surface types by
    basis key).
    """
    x, y, z = Variable("x"), Variable("y", 2), Variable("z", 3)
    ring = make_ring(x, y, z)
    weights = (1, 2, 3)
    algebra = ParameterAlgebra(GENS, 4)
    surface = SurfaceRing(2)

    def param(rng):
        return random_param_element(rng, algebra, rng.randint(0, 3))

    return {
        "RationalPoly": (
            lambda pairs: RationalPoly(ring, pairs),
            list(itertools.product(range(3), repeat=3)),
            _fraction,
            lambda ks: sorted(
                ks,
                key=lambda e: (sum(w * a for w, a in zip(weights, e)), e),
                reverse=True,
            ),
        ),
        "SurfaceClass": (
            lambda pairs: SurfaceClass(surface, pairs),
            list(surface.basis),
            _fraction,
            sorted,
        ),
        # includes keys that square an odd generator or pass the truncation,
        # which the kernel must drop
        "ParamElement": (
            lambda pairs: ParamElement(algebra, pairs),
            list(itertools.product(range(3), repeat=4)),
            _fraction,
            lambda ks: sorted(ks, key=lambda e: (algebra.monomial_degree(e), e)),
        ),
        "KunnethClass": (
            lambda pairs: KunnethClass(algebra, surface, pairs),
            list(surface.basis),
            param,
            sorted,
        ),
    }


def _split(rng, coef, parts):
    """`parts` summands adding up to coef exactly."""
    pieces = [coef * Fraction(rng.randint(-3, 3), 2) for _ in range(parts - 1)]
    rest = coef
    for piece in pieces:
        rest = rest - piece
    return [*pieces, rest]


class TestCanonicalForm:
    @pytest.mark.parametrize("kind", list(_canonical_cases()))
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_pairs_match_the_summed_map(self, kind, seed):
        build, keys, coef, _ = _canonical_cases()[kind]
        rng = random.Random(seed)
        summed = {k: coef(rng) for k in rng.sample(keys, rng.randint(1, len(keys)))}
        pairs = []
        for key, value in summed.items():
            pairs += [(key, part) for part in _split(rng, value, rng.randint(1, 3))]
        for key in rng.sample(keys, 4):
            value = coef(rng)
            pairs += [(key, value), (key, -value)]
        rng.shuffle(pairs)
        reference = build(summed)
        for element in (build(pairs), build(iter(pairs))):
            assert element.terms == reference.terms
            assert list(element.terms) == list(reference.terms)
            assert element.to_text() == reference.to_text()

    @pytest.mark.parametrize("kind", list(_canonical_cases()))
    @pytest.mark.parametrize("seed", range(3))
    def test_terms_are_nonzero_and_in_documented_order(self, kind, seed):
        build, keys, coef, documented_sort = _canonical_cases()[kind]
        rng = random.Random(50 + seed)
        element = build([(rng.choice(keys), coef(rng)) for _ in range(12)])
        assert all(c != 0 for c in element.terms.values())
        assert list(element.terms) == documented_sort(element.terms)

    @pytest.mark.parametrize("kind", list(_canonical_cases()))
    def test_pairs_summing_to_zero_give_the_zero_element(self, kind):
        build, keys, coef, _ = _canonical_cases()[kind]
        rng = random.Random(7)
        pairs = []
        for key in keys[:5]:
            value = coef(rng)
            pairs += [(key, value), (key, -value)]
        rng.shuffle(pairs)
        zero = build(pairs)
        assert zero.terms == {} and zero.is_zero() and not zero
        assert zero.to_text() == "0"


# -- the product ---------------------------------------------------------------


def _product_cases():
    """Per type: a seeded random element with several low-degree terms."""
    ring = make_ring(Variable("x"), Variable("y", 2), Variable("z", 3))
    algebra = ParameterAlgebra(GENS, 8)
    surface = SurfaceRing(2)

    def pairs(rng, keys):
        return [(rng.choice(keys), _fraction(rng)) for _ in range(6)]

    return {
        "RationalPoly": lambda rng: RationalPoly(
            ring, pairs(rng, list(itertools.product(range(3), repeat=3)))
        ),
        "SurfaceClass": lambda rng: SurfaceClass(surface, pairs(rng, surface.basis)),
        "ParamElement": lambda rng: mixed_param_element(rng, algebra),
        "KunnethClass": lambda rng: mixed_kunneth(rng, algebra, surface),
    }


class TestProduct:
    @pytest.mark.parametrize(
        "cls", [RationalPoly, SurfaceClass, ParamElement, KunnethClass]
    )
    def test_product_loop_and_make_live_only_in_the_kernel(self, cls):
        assert "_mul" not in vars(cls) and "_make" not in vars(cls)
        assert "_times" in vars(cls)
        assert "_mul" in vars(SparseTerms) and "_make" in vars(SparseTerms)

    @pytest.mark.parametrize("kind", list(_product_cases()))
    @pytest.mark.parametrize("seed", range(4))
    def test_product_sums_the_products_of_term_pairs(self, kind, seed):
        rng = random.Random(300 + seed)
        a, b = (_product_cases()[kind](rng) for _ in range(2))
        pieces = [
            a._make({k1: c1}) * b._make({k2: c2})
            for k1, c1 in a.terms.items()
            for k2, c2 in b.terms.items()
        ]
        landed = Counter(key for piece in pieces for key in piece.terms)
        assert max(landed.values()) >= 2, "no two term pairs share a key"
        assert a * b == sum(pieces, a * 0)

    def test_cancelling_pairs_drop_their_key(self):
        # polynomials form a domain: a product of nonzero ones cancels only in part
        x, y = Variable("x"), Variable("y")
        ring = make_ring(x, y)
        s, t = RationalPoly.gen(ring, x), RationalPoly.gen(ring, y)
        assert ((s + t) * (s - t)).terms == {(2, 0): 1, (0, 2): -1}

    def test_products_cancelling_to_zero(self):
        algebra = ParameterAlgebra(GENS, 4)
        surface = SurfaceRing(1)
        # alpha1*beta1 = omega = -beta1*alpha1, and v1*v2 = -v2*v1
        odd_surface = SurfaceClass.alpha(surface, 1) + SurfaceClass.beta(surface, 1)
        odd_param = algebra.gen("v1") + algebra.gen("v2")
        for element in (
            odd_surface,
            odd_param,
            KunnethClass.from_surface(algebra, odd_surface),
            KunnethClass.from_param(odd_param, surface),
        ):
            square = element * element
            assert square.terms == {} and square.is_zero()
            assert square == element * 0


# -- the trusted path ------------------------------------------------------------


def _raw_product_pairs(a, b):
    """Every term pair's product as a (key, coefficient) pair.

    Parameter monomials are summed with the Koszul sign and no truncation,
    so the public constructor, not `_times`, decides which ones vanish.
    """
    if isinstance(a, ParamElement):
        sign = a.algebra.koszul_sign
        return [
            (tuple(map(add, e1, e2)), sign(e1, e2) * c1 * c2)
            for e1, c1 in a.terms.items()
            for e2, c2 in b.terms.items()
        ]
    hits = (
        a._times(k1, c1, k2, c2)
        for k1, c1 in a.terms.items()
        for k2, c2 in b.terms.items()
    )
    return [hit for hit in hits if hit is not None]


def _public(element, pairs):
    """The validating constructor of element's space applied to pairs."""
    return type(element)(*element._space(), pairs)


def _assert_same_terms(result, reference):
    assert list(result.terms.items()) == list(reference.terms.items())
    assert result.to_text() == reference.to_text()


class TestTrustedPath:
    @pytest.mark.parametrize("kind", list(_product_cases()))
    @pytest.mark.parametrize("seed", range(4))
    def test_results_match_the_public_constructor(self, kind, seed):
        rng = random.Random(400 + seed)
        a, b = (_product_cases()[kind](rng) for _ in range(2))
        q = _fraction(rng) or Fraction(5, 3)
        a_pairs, b_pairs = list(a.terms.items()), list(b.terms.items())
        negated = [(k, -c) for k, c in b_pairs]
        _assert_same_terms(a + b, _public(a, a_pairs + b_pairs))
        _assert_same_terms(a - b, _public(a, a_pairs + negated))
        _assert_same_terms(-b, _public(b, negated))
        _assert_same_terms(a * q, _public(a, [(k, c * q) for k, c in a_pairs]))
        _assert_same_terms(a * b, _public(a, _raw_product_pairs(a, b)))
        square = _public(a, _raw_product_pairs(a, a))
        _assert_same_terms(a**2, square)
        _assert_same_terms(a**3, _public(a, _raw_product_pairs(square, a)))
        for result in (a + b, a * b, a**3):
            assert type(result) is type(a) and result._space() == a._space()

    def test_odd_square_and_truncation_in_products(self):
        algebra = ParameterAlgebra(GENS, 4)
        v1, u1, u2 = (algebra.gen(n) for n in ("v1", "u1", "u2"))
        assert (v1 * v1).terms == {} and v1 * v1 == algebra.zero()
        assert (u1 * (u2 * v1)).is_zero()  # degree 5 > 4
        at_bound = u1 * u2  # degree 4 == 4
        assert at_bound.terms == {(0, 0, 1, 1): 1}
        # u1*u2*v1 passes the bound and v1*u2*v1, v1*v1 square v1
        mixed = (u1 + v1) * (u2 + u2 * v1 + v1)
        kept = [((0, 0, 1, 1), 1), ((1, 0, 1, 0), 1), ((1, 0, 0, 1), 1)]
        _assert_same_terms(mixed, _public(mixed, kept))
        assert mixed.to_text() == "1*v1*u2 + 1*v1*u1 + 1*u1*u2"

    def test_integral_coefficients_are_ints(self):
        x, y = Variable("x"), Variable("y")
        ring = make_ring(x, y)
        algebra = ParameterAlgebra(GENS, 6)
        surface = SurfaceRing(1)
        elements = [
            RationalPoly(ring, {(1, 0): Fraction(4, 2), (0, 1): -3, (0, 0): 1}),
            SurfaceClass(
                surface, [((0, 0, 0), 3), ((1, 0, 1), Fraction(6, 3)), ((1, 1, 1), 5)]
            ),
            ParamElement(algebra, {(1, 0, 0, 0): Fraction(-2), (0, 0, 1, 0): 7}),
        ]
        for p in elements:
            results = (p, p + p, p * p, p**3 - p, p * Fraction(3), 2 * p, p * 0 + 1)
            for result in results:
                assert result.terms, result
                assert all(type(c) is int for c in result.terms.values()), result
        kunneth = KunnethClass.from_surface(algebra, elements[1]) + 1
        for part in (kunneth**2).terms.values():
            assert all(type(c) is int for c in part.terms.values())
        texts = [p.to_text() for p in elements]
        assert texts == ["2*x + -3*y + 1", "3 + 2*alpha1 + 5*beta1", "-2*v1 + 7*u1"]
        assert elements[0].coefficient((1, 1)) == 0

    def test_true_fractions_stay_fractions(self):
        x = Variable("x")
        ring = make_ring(x)
        p = RationalPoly(ring, {(1,): Fraction(2, 4), (0,): Fraction(3)})
        assert p.terms == {(1,): Fraction(1, 2), (0,): 3}
        assert [type(c) for c in p.terms.values()] == [Fraction, int]
        assert p.to_text() == "1/2*x + 3"
        assert (p * Fraction(1, 3)).to_text() == "1/6*x + 1"
        assert type(p.coefficient((1,))) is Fraction
        s = SurfaceClass.unit(SurfaceRing(1)) * Fraction(-3, 2)
        assert s.terms == {(0, 0, 0): Fraction(-3, 2)} and s.to_text() == "-3/2"

    def test_public_constructors_still_reject_bad_input(self):
        ring = make_ring(Variable("x"), Variable("y"))
        algebra = ParameterAlgebra(GENS, 4)
        with pytest.raises(ValueError, match=r"^negative exponent in \(1, -1\)$"):
            RationalPoly(ring, {(1, -1): 1})
        with pytest.raises(ValueError, match="does not fit a ring of 2 variables"):
            RationalPoly(ring, {(1,): 1})
        with pytest.raises(ValueError, match="does not fit 4 generators"):
            ParamElement(algebra, {(1, 0): 1})
        with pytest.raises(ValueError, match="is not a basis key for genus 1"):
            SurfaceClass(SurfaceRing(1), {(1, 0, 2): 1})
        with pytest.raises(TypeError, match="part values must be ParamElement"):
            KunnethClass(algebra, SurfaceRing(1), {(0, 0, 0): 1})


class TestNoRevalidation:
    """Arithmetic on built elements never goes back through `_entry`."""

    @pytest.mark.parametrize("kind", list(_product_cases()))
    def test_products_and_powers_skip_entry(self, kind, monkeypatch):
        rng = random.Random(500)
        a, b = (_product_cases()[kind](rng) for _ in range(2))
        calls = Counter()
        for cls in (RationalPoly, SurfaceClass, ParamElement, KunnethClass):
            entry = cls._entry

            def counted(self, key, coef, _entry=entry, _name=cls.__name__):
                calls[_name] += 1
                return _entry(self, key, coef)

            monkeypatch.setattr(cls, "_entry", counted)
        results = [a * b, b * a, a * a, a**3, b**4, a + b, a - b, -a, a * 3]
        assert calls == Counter(), calls
        assert all(type(r) is type(a) for r in results)
        # the wrapper is live: the public constructor still counts
        _public(a, list(a.terms.items()))
        assert calls[type(a).__name__] == len(a.terms)
