"""The shared sparse-term kernel, exercised through all four element types."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projchar import projclass, surfalg
from projchar.qpoly import (
    RationalPoly,
    SparseTerms,
    Variable,
    linear_combination,
    make_ring,
    parse_poly,
)
from projchar.surfalg import (
    HomologyClass,
    KunnethClass,
    ParamElement,
    ParameterAlgebra,
    SurfaceClass,
    SurfaceRing,
    k_alpha,
    random_kunneth,
    random_param_element,
)

from oracles import kunneth_product_by_parts, linear_combination_by_addition

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


def _items(element):
    """The (key, coefficient) pairs of `terms`, a polynomial's with exponent tuples."""
    if isinstance(element, RationalPoly):
        return element.exponent_items()
    return list(element.terms.items())


def _ordered(element):
    """The keys in term order, a polynomial's as exponent tuples."""
    keys = element._ordered_keys()
    if isinstance(element, RationalPoly):
        return [element._exponents_of(key) for key in keys]
    return keys


def _text_terms(element, in_order):
    """The (key, coefficient) pairs that to_text writes, in the order it writes them.

    `in_order` lists the keys as `_items` gives them.  A Kunneth class
    writes one term per part: its ParamElement, by basis key.
    """
    if isinstance(element, KunnethClass):
        parts = element.parts
        return [(key, parts[key]) for key in sorted(parts)]
    if isinstance(element, RationalPoly):
        packed = {element._exponents_of(key): key for key in element.terms}
        in_order = [packed[exps] for exps in in_order]
    return [(key, element.terms[key]) for key in in_order]


class TestCanonicalForm:
    @pytest.mark.parametrize("kind", list(_canonical_cases()))
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_pairs_match_the_summed_map(self, kind, seed):
        build, keys, coef, documented_sort = _canonical_cases()[kind]
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
            assert _ordered(element) == documented_sort(dict(_items(reference)))
            assert element.to_text() == reference.to_text()

    @pytest.mark.parametrize("kind", list(_canonical_cases()))
    @pytest.mark.parametrize("seed", range(3))
    def test_terms_are_nonzero_and_in_documented_order(self, kind, seed):
        build, keys, coef, documented_sort = _canonical_cases()[kind]
        rng = random.Random(50 + seed)
        element = build([(rng.choice(keys), coef(rng)) for _ in range(12)])
        assert all(c != 0 for c in element.terms.values())
        in_order = documented_sort([key for key, _ in _items(element)])
        assert _ordered(element) == in_order
        texts = [element._term_text(k, c) for k, c in _text_terms(element, in_order)]
        assert element.to_text() == (" + ".join(texts) or "0")

    def test_read_only_mappings_are_accepted(self):
        ring = make_ring(Variable("x"), Variable("y", 2))
        terms = {(1, 0): 2, (0, 1): Fraction(1, 2)}
        assert dict(RationalPoly(ring, MappingProxyType(terms)).exponent_items()) == terms
        algebra, surface = ParameterAlgebra(GENS, 6), SurfaceRing(1)
        parts = {(0, 0, 0): algebra.gen("u1"), (2, 0, 0): 3 * algebra.gen("v1")}
        proxied = KunnethClass(algebra, surface, MappingProxyType(parts))
        assert proxied.parts == parts

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


class TestOrderOnlyInText:
    """Arithmetic never orders terms: only text asks for the order."""

    def test_polynomial_order_runs_only_when_text_is_made(self, monkeypatch):
        # packed keys sort as plain ints: a polynomial has no order hook
        assert RationalPoly._order is None and "_order" not in vars(RationalPoly)
        calls = []
        ordered_keys = SparseTerms._ordered_keys

        def counted(self):
            calls.append(self)
            return ordered_keys(self)

        monkeypatch.setattr(SparseTerms, "_ordered_keys", counted)
        ring = projclass.ChernRing(6)
        c = [RationalPoly.gen(ring.c_ring, v) for v in ring.c_ring]
        projclass.twist(c, -c[0], RationalPoly.const(ring.c_ring, 1))
        assert calls == []
        projclass._end_classes.cache_clear()
        end = projclass._end_classes(4)
        assert calls == []
        end[8].to_text()
        assert calls == [end[8]]

    def test_order_hook_runs_only_when_text_is_made(self, monkeypatch):
        calls = []
        order = ParamElement._order

        def counted(self, exps):
            calls.append(exps)
            return order(self, exps)

        monkeypatch.setattr(ParamElement, "_order", counted)
        x = mixed_param_element(random.Random(20), ParameterAlgebra(GENS, 6))
        power = x**3 - 2 * x * x + x
        assert calls == []
        power.to_text()
        assert sorted(calls) == sorted(power.terms)


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
        assert "_product_rows" in vars(cls)
        assert not any(hasattr(c, "_times") for c in (cls, SparseTerms))
        assert "_mul" in vars(SparseTerms) and "_make" in vars(SparseTerms)
        # only packed int keys have a width: the other types keep the
        # kernel's 0, and the loop adds keys for RationalPoly alone
        packed = cls is RationalPoly
        hooks = ("_width", "_top", "_at", "_narrow")
        assert all((hook in vars(cls)) == packed for hook in hooks)
        assert SparseTerms._width == 0

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

    @pytest.mark.parametrize("kind", list(_product_cases()))
    def test_powers_match_repeated_product(self, kind):
        x = _product_cases()[kind](random.Random(350))
        for e in range(10):
            _assert_same_terms(x**e, repeated_product(x, e))

    def test_cancelling_pairs_drop_their_key(self):
        # polynomials form a domain: a product of nonzero ones cancels only in part
        x, y = Variable("x"), Variable("y")
        ring = make_ring(x, y)
        s, t = RationalPoly.gen(ring, x), RationalPoly.gen(ring, y)
        assert dict(((s + t) * (s - t)).exponent_items()) == {(2, 0): 1, (0, 2): -1}

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
    """Every term pair's product as a (key, coefficient) pair, by the direct rules.

    Parameter monomials are summed with the Koszul sign and no truncation,
    so the public constructor, not the product memo, decides which ones
    vanish.  Surface keys multiply by the checked `basis_mul` and exponent
    vectors add; no product memo is read.
    """
    if isinstance(a, KunnethClass):
        return _pairs(kunneth_product_by_parts(a, b))
    term_pairs = [(k1, c1, k2, c2) for k1, c1 in _pairs(a) for k2, c2 in _pairs(b)]
    if isinstance(a, ParamElement):
        sign = a.algebra.koszul_sign
        return [
            (tuple(map(add, e1, e2)), sign(e1, e2) * c1 * c2)
            for e1, c1, e2, c2 in term_pairs
        ]
    if isinstance(a, SurfaceClass):
        hits = [(a.ring.basis_mul(k1, k2), c1 * c2) for k1, c1, k2, c2 in term_pairs]
        return [(hit[1], hit[0] * coef) for hit, coef in hits if hit is not None]
    return [(tuple(map(add, e1, e2)), c1 * c2) for e1, c1, e2, c2 in term_pairs]


def _pairs(element):
    """The (key, coefficient) pairs the public constructor takes back.

    For a polynomial the keys are exponent tuples; for a Kunneth class the
    pairs are its parts, (surface key, ParamElement).
    """
    if isinstance(element, KunnethClass):
        return list(element.parts.items())
    return _items(element)


def _public(element, pairs):
    """The validating constructor of element's space applied to pairs."""
    return type(element)(*element._space(), pairs)


def _assert_same_terms(result, reference):
    assert result.terms == reference.terms
    assert result.to_text() == reference.to_text()


class TestTrustedPath:
    @pytest.mark.parametrize("kind", list(_product_cases()))
    @pytest.mark.parametrize("seed", range(4))
    def test_results_match_the_public_constructor(self, kind, seed):
        rng = random.Random(400 + seed)
        a, b = (_product_cases()[kind](rng) for _ in range(2))
        q = _fraction(rng) or Fraction(5, 3)
        a_pairs, b_pairs = _pairs(a), _pairs(b)
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
            results = [p, p + p, p * p, p**3 - p, p * Fraction(3), 2 * p, p * 0 + 1]
            results.append((3 * p) * Fraction(1, 3))
            if isinstance(p, RationalPoly):
                results.append((6 * p) / 3)
            for result in results:
                assert result.terms, result
                assert all(type(c) is int for c in result.terms.values()), result
        kunneth = KunnethClass.from_surface(algebra, elements[1]) + 1
        for result in (kunneth**2, (3 * kunneth) * Fraction(1, 3)):
            for part in result.parts.values():
                assert all(type(c) is int for c in part.terms.values())
        texts = [p.to_text() for p in elements]
        assert texts == ["2*x + -3*y + 1", "3 + 2*alpha1 + 5*beta1", "-2*v1 + 7*u1"]
        assert elements[0].coefficient((1, 1)) == 0

    def test_true_fractions_stay_fractions(self):
        x = Variable("x")
        ring = make_ring(x)
        p = RationalPoly(ring, {(1,): Fraction(2, 4), (0,): Fraction(3)})
        assert dict(p.exponent_items()) == {(1,): Fraction(1, 2), (0,): 3}
        assert {e: type(c) for e, c in p.exponent_items()} == {(1,): Fraction, (0,): int}
        assert p.to_text() == "1/2*x + 3"
        assert (p * Fraction(1, 3)).to_text() == "1/6*x + 1"
        assert type(p.coefficient((1,))) is Fraction
        s = SurfaceClass.unit(SurfaceRing(1)) * Fraction(-3, 2)
        assert s.terms == {(0, 0, 0): Fraction(-3, 2)} and s.to_text() == "-3/2"

    def test_constructed_integral_sums_are_ints(self):
        half = Fraction(1, 2)
        elements = [
            RationalPoly(make_ring(Variable("x")), [((1,), half)] * 2),
            SurfaceClass(SurfaceRing(1), [((1, 0, 1), half)] * 2),
            ParamElement(ParameterAlgebra(GENS, 2), [((0, 0, 1, 0), half)] * 2),
        ]
        for p in elements:
            (coef,) = p.terms.values()
            assert coef == 1 and type(coef) is int, p

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

    @pytest.mark.parametrize("entry", [1.5, 1.0, Fraction(2), "2"])
    def test_non_integer_exponents_are_rejected(self, entry):
        # an entry is an exponent only through operator.index: a float,
        # Fraction or string is neither truncated nor parsed
        ring = make_ring(Variable("x"), Variable("y"))
        algebra = ParameterAlgebra(GENS, 4)
        message = r"^exponent vector \(.+, 0\) has a non-integer entry$"
        with pytest.raises(ValueError, match=message):
            RationalPoly(ring, {(entry, 0): 1})
        with pytest.raises(ValueError, match=message):
            ParamElement(algebra, {(entry, 0, 0, 0): 1})
        # coefficient raises alike, and still reads 0 for a vector of the
        # wrong length, with a negative entry or past the width
        x = RationalPoly.gen(ring, ring[0])
        with pytest.raises(ValueError, match=message):
            x.coefficient((entry, 0))
        assert x.coefficient((1, 0)) == 1 and x.coefficient((True, False)) == 1
        assert x.coefficient((1,)) == x.coefficient((-1, 1)) == x.coefficient((256, 0)) == 0

    @pytest.mark.parametrize("entry", [1.0, Fraction(1)])
    def test_non_integer_basis_keys_are_rejected(self, entry):
        # the key equals the basis key (1, 0, 1) and hashes alike, but an
        # entry counts only through operator.index, as in an exponent vector
        ring = SurfaceRing(1)
        algebra = ParameterAlgebra(GENS, 4)
        key = (entry, 0, 1)
        builds = [
            lambda: SurfaceClass(ring, {key: 1}),
            lambda: HomologyClass(ring, key),
            lambda: KunnethClass(algebra, ring, {key: algebra.one()}),
            lambda: ring.degree(key),
        ]
        message = r"^basis key \(.+, 0, 1\) has a non-integer entry$"
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()

    def test_basis_keys_are_stored_as_the_basis_keys(self):
        ring = SurfaceRing(1)
        algebra = ParameterAlgebra(GENS, 4)
        (stored,) = SurfaceClass(ring, {(True, False, True): 1}).terms
        assert type(stored[0]) is int and stored == (1, 0, 1)
        assert stored is ring.basis[1]
        assert HomologyClass(ring, (True, 0, 1)).key is ring.basis[1]
        (term,) = KunnethClass(algebra, ring, {(True, 0, 1): algebra.one()}).terms
        assert term[0] is ring.basis[1]


class TestProductMemo:
    """Monomial products read from each algebra's memo match the direct rule."""

    @pytest.mark.parametrize("max_degree", [1, 2, 3, 5])
    def test_every_monomial_pair_matches_the_direct_rule(self, max_degree):
        first, second = (ParameterAlgebra(GENS, max_degree) for _ in range(2))
        assert first == second and first is not second
        monos = [m for d in range(max_degree + 1) for m in first.monomials_of_degree(d)]
        cases = Counter()
        for _ in range(2):  # the second pass reads what the first one kept
            for e1, e2 in itertools.product(monos, repeat=2):
                a = ParamElement(first, {e1: 2})
                b = ParamElement(second, {e2: Fraction(-1, 3)})
                for x, y in ((a, b), (b, a)):
                    _assert_same_terms(x * y, _public(x, _raw_product_pairs(x, y)))
                total = first.monomial_degree(e1) + first.monomial_degree(e2)
                cases["past the bound"] += total > max_degree
                cases["odd square"] += any(
                    x and y and odd for x, y, odd in zip(e1, e2, first.odd_flags)
                )
                cases["odd-odd inversion"] += first.koszul_sign(e1, e2) == -1
        if max_degree >= 2:
            assert all(cases.values()) and len(cases) == 3, cases
        for algebra in (first, second):
            rows = algebra._products
            assert sorted(rows) == sorted(monos)
            assert sum(len(row) for row in rows.values()) == len(monos) ** 2


class TestPairCounts:
    """Each memo works a pair of term keys out once; polynomial rows keep nothing."""

    @staticmethod
    def count_pairs(monkeypatch):
        """Count the Kunneth pairs worked out from now on, by surface genus."""
        calls = Counter()
        rule = surfalg._kunneth_pair

        def counted_rule(algebra, ring):
            pair = rule(algebra, ring)

            def counted(k1, k2):
                calls[ring.genus] += 1
                return pair(k1, k2)

            return counted

        monkeypatch.setattr(surfalg, "_kunneth_pair", counted_rule)
        return calls

    def test_repeated_kunneth_products_work_out_no_pair(self, monkeypatch):
        calls = self.count_pairs(monkeypatch)
        algebra, ring = ParameterAlgebra(GENS, 8), SurfaceRing(2)
        rng = random.Random(600)
        a, b = (mixed_kunneth(rng, algebra, ring) for _ in range(2))
        assert calls == Counter()  # building the factors multiplies nothing
        product = a * b
        pairs = len(a.terms) * len(b.terms)
        assert calls == Counter({2: pairs})
        memo = algebra._kunneth_products[ring]
        assert sum(len(row) for row in memo.values()) == pairs
        for _ in range(3):
            assert a * b == product
        assert calls == Counter({2: pairs})

    def test_rings_of_different_genus_keep_their_own_rows(self, monkeypatch):
        calls = self.count_pairs(monkeypatch)
        algebra, twin = ParameterAlgebra(GENS, 6), ParameterAlgebra(GENS, 6)
        rings = SurfaceRing(1), SurfaceRing(2)
        products = []
        for ring in rings:
            # the same four term keys in both rings
            odd = SurfaceClass.alpha(ring, 1) + 2 * SurfaceClass.beta(ring, 1)
            u1 = KunnethClass.from_param(algebra.gen("u1"), ring)
            x = KunnethClass.from_surface(algebra, odd) + u1
            products.append(x * x)
            assert calls[ring.genus] == len(x.terms) ** 2
        texts = [p.to_text() for p in products]
        assert texts == ["(1*u1^2) ⊗ 1 + (2*u1) ⊗ alpha1 + (4*u1) ⊗ beta1"] * 2
        memos = algebra._kunneth_products
        assert set(memos) == set(rings)
        assert memos[rings[0]] is not memos[rings[1]]
        assert twin._kunneth_products == {}

    def test_polynomial_products_store_nothing(self):
        ring = make_ring(Variable("x"), Variable("y", 2))
        p = RationalPoly(ring, {(1, 0): 2, (0, 1): Fraction(-1, 2), (0, 0): 3})
        q = RationalPoly(ring, {(2, 1): Fraction(4, 3), (1, 0): -1, (0, 2): 5})
        # no rows: the kernel loop adds the int keys of each pair itself
        assert p._product_rows(q) is None
        for a, b in ((p, q), (q, p), (p, p)):
            product = a * b
            _assert_same_terms(product, _public(a, _raw_product_pairs(a, b)))
            assert all(type(key) is int for key in product.terms)
            sums = {k1 + k2 for k1 in a.terms for k2 in b.terms}
            assert set(product.terms) <= sums
        # past a width step the operands are widened once, then keys add
        heavy = RationalPoly(ring, {(200, 0): 1, (0, 60): -2})
        assert (heavy._width, (heavy * heavy)._width) == (8, 16)
        _assert_same_terms(heavy * heavy, _public(heavy, _raw_product_pairs(heavy, heavy)))
        wide = [heavy._at(16).terms, heavy._at(16).terms]
        assert set((heavy * heavy).terms) <= {k1 + k2 for k1 in wide[0] for k2 in wide[1]}


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
        _public(a, _pairs(a))
        assert calls[type(a).__name__] == len(a.terms)


class TestLinearCombination:
    """The one-pass sum against the running sum by + and *."""

    @staticmethod
    def cases():
        """Per kind: (draw a value, zero)."""
        ring = make_ring(Variable("x"), Variable("y", 2), Variable("z", 3))
        algebra, surface = ParameterAlgebra(GENS, 6), SurfaceRing(2)
        keys = list(itertools.product(range(3), repeat=3))
        return {
            "Fraction": (_fraction, Fraction(0)),
            "RationalPoly": (
                lambda rng: RationalPoly(ring, [(rng.choice(keys), _fraction(rng))]),
                RationalPoly.zero(ring),
            ),
            "KunnethClass": (
                lambda rng: mixed_kunneth(rng, algebra, surface),
                KunnethClass.zero(algebra, surface),
            ),
        }

    @pytest.mark.parametrize("kind", ["Fraction", "RationalPoly", "KunnethClass"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_running_sum(self, kind, seed):
        draw, zero = self.cases()[kind]
        rng = random.Random(700 + seed)
        values = [draw(rng) for _ in range(6)]
        pairs = [(rng.choice((-3, 2, 5, Fraction(1, 2))), v) for v in values]
        pairs.append((Fraction(-1, 2), values[0]))  # a repeated value
        got = linear_combination(pairs, zero)
        want = linear_combination_by_addition(pairs, zero)
        assert type(got) is type(zero) and got == want
        if kind != "Fraction":
            assert got.to_text() == want.to_text()
            assert got._space() == zero._space()

    @pytest.mark.parametrize("kind", ["Fraction", "RationalPoly", "KunnethClass"])
    def test_a_sum_that_cancels_is_zero(self, kind):
        draw, zero = self.cases()[kind]
        rng = random.Random(710)
        a, b = draw(rng), draw(rng)
        pairs = [(2, a), (Fraction(1, 3), b), (-1, a), (Fraction(-1, 3), b), (-1, a)]
        got = linear_combination(iter(pairs), zero)
        assert got == zero == linear_combination_by_addition(pairs, zero)
        if kind != "Fraction":
            assert got.terms == {} and got.to_text() == "0"

    def test_integral_coefficients_are_ints(self):
        ring = make_ring(Variable("x"), Variable("y"))
        half = Fraction(1, 2)
        p = RationalPoly(ring, {(1, 0): 1, (0, 1): Fraction(3, 2), (0, 0): 5})
        q = RationalPoly(ring, {(1, 0): half, (0, 1): half})
        got = linear_combination([(half, p), (3, q), (half, p)], RationalPoly.zero(ring))
        assert dict(got.exponent_items()) == {(1, 0): Fraction(5, 2), (0, 1): 3, (0, 0): 5}
        assert {e: type(c) for e, c in got.exponent_items()} == {
            (1, 0): Fraction,
            (0, 1): int,
            (0, 0): int,
        }
        # the running sum keeps what + returns there: a Fraction equal to 3
        running = linear_combination_by_addition([(half, p), (3, q), (half, p)], p * 0)
        assert running == got and type(running.coefficient((0, 1))) is Fraction
        algebra, surface = ParameterAlgebra(GENS, 6), SurfaceRing(1)
        k = KunnethClass.from_surface(algebra, SurfaceClass.alpha(surface, 1) * half)
        # 1/2*alpha1 taken 1 + 1/2*2 + 2 times: the coefficient 2 is an int
        four = linear_combination([(1, k), (half, 2 * k), (Fraction(2), k)], k * 0)
        assert four.terms == {(k_alpha(1), (0, 0, 0, 0)): 2}
        assert [type(c) for c in four.terms.values()] == [int]

    def test_scalars_join_kernel_sums_and_strangers_raise(self):
        ring = make_ring(Variable("x"))
        x = RationalPoly.gen(ring, Variable("x"))
        got = linear_combination([(2, x), (3, Fraction(1, 3)), (1, 4)], x * 0)
        assert dict(got.exponent_items()) == {(1,): 2, (0,): 5}
        with pytest.raises(ValueError, match="^ring mismatch$"):
            linear_combination([(1, x), (1, RationalPoly.zero(ring + (Variable("w"),)))], x)
        with pytest.raises(TypeError, match="cannot add str to RationalPoly"):
            linear_combination([(1, "x")], x)


# -- packed keys ----------------------------------------------------------------

WEIGHTED = make_ring(Variable("x"), Variable("y", 2), Variable("z", 3))

# exponents near each width step: weights 255/256, 65535/65536 and 2^64
_EXPONENT = st.one_of(
    st.integers(0, 3),
    st.integers(40, 130),
    st.integers(2**15 - 4, 2**15 + 4),
    st.integers(2**62 - 2, 2**62 + 2),
)
_PAIRS = st.lists(
    st.tuples(
        st.tuples(_EXPONENT, _EXPONENT, _EXPONENT),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    ),
    max_size=4,
)


def _tuple_terms(pairs):
    """The exponent-tuple map of (exponents, coefficient) pairs: summed, zeros dropped."""
    acc = {}
    for exps, coef in pairs:
        acc[exps] = acc.get(exps, 0) + coef
    return {e: c for e, c in acc.items() if c}


def _tuple_text(terms, ring):
    """The documented text of an exponent-tuple map, written out independently."""
    weight = lambda e: sum(v.weight * a for v, a in zip(ring, e))  # noqa: E731
    texts = []
    for e in sorted(terms, key=lambda e: (weight(e), e), reverse=True):
        factors = [v.name if a == 1 else f"{v.name}^{a}" for v, a in zip(ring, e) if a]
        texts.append("*".join([str(Fraction(terms[e])), *factors]))
    return " + ".join(texts) or "0"


def _assert_matches_tuples(result, pairs):
    terms = _tuple_terms(pairs)
    assert dict(result.exponent_items()) == terms
    assert result == RationalPoly(result.ring, pairs)
    assert result.to_text() == _tuple_text(terms, result.ring)


class TestPackedKeys:
    """Packed int keys against exponent tuples, across the width steps."""

    @settings(max_examples=200, deadline=None)
    @given(_PAIRS, _PAIRS, st.integers(0, 3))
    @example([((130, 0, 0), 1)], [((0, 0, 42), 2)], 2)  # 130 * 2 passes 255
    @example([((0, 2**15, 0), 1)], [((0, 0, 2**15), -1)], 1)  # 2^17 + 2^16 passes 65535
    @example([((0, 0, 2**62), 1)], [((2**62, 0, 0), 1)], 2)  # 3 * 2^63 passes 2^64
    def test_arithmetic_matches_the_exponent_tuple_oracle(self, a_pairs, b_pairs, e):
        a, b = RationalPoly(WEIGHTED, a_pairs), RationalPoly(WEIGHTED, b_pairs)
        _assert_matches_tuples(a + b, a_pairs + b_pairs)
        _assert_matches_tuples(a - b, a_pairs + [(k, -c) for k, c in b_pairs])
        _assert_matches_tuples(a * b, _raw_product_pairs(a, b))
        power = [((0, 0, 0), 1)]
        for _ in range(e):
            power = _raw_product_pairs(RationalPoly(WEIGHTED, power), a)
        _assert_matches_tuples(a**e, power)
        assert (a * b == b * a) and ((a + b) - b == a)

    def test_equal_polynomials_have_equal_terms(self):
        x, y, z = (RationalPoly.gen(WEIGHTED, v) for v in WEIGHTED)
        heavy = x**300  # weight 300: 16-bit fields
        want = RationalPoly(WEIGHTED, {(0, 1, 0): 2, (1, 0, 0): -1})
        routes = {
            "text": parse_poly("2*y + -1*x", WEIGHTED),
            "cancelled sum": (heavy + 2 * y - x) - heavy,
            "cancelled combination": linear_combination(
                [(1, heavy), (2, y), (-1, x), (-1, heavy)], RationalPoly.zero(WEIGHTED)
            ),
            "component": (heavy + 2 * y).homogeneous_components()[2] - x,
            "cancelled product": (heavy + 1) * (2 * y - x) - heavy * (2 * y - x),
            "fused step": x._mul(-heavy, (heavy * x) + 2 * y - x),
            "substitution": (heavy * z + 2 * y - x).substitute(
                {WEIGHTED[2]: RationalPoly.zero(WEIGHTED)}, WEIGHTED
            ),
        }
        for name, got in routes.items():
            assert got.terms == want.terms and got._width == want._width == 8, name
        parts = (heavy + 2 * y - x).homogeneous_components()
        assert parts[1].terms == (-x).terms and parts[2].terms == (2 * y).terms
        wide = RationalPoly(WEIGHTED, {(0, 0, 100): 1, (300, 0, 0): 1})
        assert (z**100 + heavy).terms == wide.terms and wide._width == 16
        # an exponent past every field of the width is absent, not aliased
        assert want.coefficient((0, 1, 0)) == 2 and want.coefficient((256, 1, 0)) == 0
        assert want.coefficient((0, 1, 2**64)) == 0 and want.coefficient((1, 0)) == 0
