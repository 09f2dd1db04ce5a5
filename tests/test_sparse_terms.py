"""The shared sparse-term kernel, exercised through all four element types."""

import random
from functools import reduce

import pytest

from projchar.qpoly import RationalPoly, SparseTerms, Variable, make_ring
from projchar.surfalg import (
    KunnethClass,
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
