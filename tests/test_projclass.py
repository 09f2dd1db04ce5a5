"""Canonical classes of projectivized bundles: z-generators, reduction, End classes."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projchar import projclass, qpoly
from projchar.projclass import (
    a_classes,
    chern_ring,
    end_chern,
    end_in_a,
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
    SparseTerms,
    Variable,
    format_fraction,
    make_ring,
    parse_poly,
)
from projchar.surfalg import (
    KunnethClass,
    ParameterAlgebra,
    SurfaceRing,
    canonicality_check,
    random_kunneth,
    random_param_element,
)
from projchar.univdet import ParabolicDatum, ParabolicPoint

from oracles import (
    a_classes_by_evaluation,
    a_classes_by_running_sums,
    elementary_symmetric,
    embedded,
    expand_to_roots,
    rewrite_by_back_expansion,
    root_vars,
    span_witness,
    y_roots,
)


PARAM_GENS = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))


def random_c_poly(rng, ring, weight):
    """One to three random terms of the given weight in c_1..c_n."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.rank
        remaining = weight
        while remaining:
            i = rng.randint(1, min(remaining, ring.rank))
            exps[i - 1] += 1
            remaining -= i
        terms.append((exps, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    return RationalPoly(ring.c_ring, terms)


class CountedRational:
    """A rational that counts, in a shared tally, its products with its own kind.

    Products by a plain int or Fraction are scalar multiples and are not
    counted; a power counts its repeated products, and each call of ** with
    exponent e counts once under "**e".
    """

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __add__(self, other):
        return CountedRational(self.value + other.value, self.tally)

    def __mul__(self, other):
        if isinstance(other, CountedRational):
            self.tally["products"] += 1
            other = other.value
        return CountedRational(self.value * other, self.tally)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        self.tally[f"**{exponent}"] += 1
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result


def z_monomial_c_poly(ring, exps):
    out = RationalPoly.const(ring.c_ring, 1)
    for k, e in zip(range(2, ring.rank + 1), exps):
        if e:
            out = out * z_basis(ring, k) ** e
    return out


def shift_oracle(ring, poly):
    """Invariance decided on the roots: expand, apply x_i -> x_i + d, compare."""
    roots = expand_to_roots(ring, poly)
    d = Variable("d")
    big = make_ring(*root_vars(ring), d)
    dp = RationalPoly.gen(big, d)
    bindings = {v: RationalPoly.gen(big, v) + dp for v in root_vars(ring)}
    return roots.substitute(bindings, target_ring=big) == embedded(roots, big)


def z_monomials(rank, weight):
    """The exponent vectors (e_2..e_rank) of the z-monomials of this weight."""
    if rank < 2:
        return [()] if weight == 0 else []
    return [
        head + (e,)
        for e in range(weight // rank + 1)
        for head in z_monomials(rank - 1, weight - e * rank)
    ]


@st.composite
def invariance_cases(draw):
    """(ring, class, perturbed): z-combinations of one to three weights at rank
    2..6, with a nonconstant c-monomial added when perturbed."""
    ring = chern_ring(draw(st.integers(2, 6)))
    coef_st = st.fractions(min_value=-9, max_value=9, max_denominator=3).filter(bool)
    poly = RationalPoly.zero(ring.c_ring)
    for weight in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
        monos = z_monomials(ring.rank, weight)
        if not monos:
            continue
        for exps in draw(st.lists(st.sampled_from(monos), max_size=3, unique=True)):
            poly = poly + draw(coef_st) * z_monomial_c_poly(ring, exps)
    perturbed = draw(st.booleans())
    if perturbed:
        parts = draw(st.lists(st.integers(1, ring.rank), min_size=1, max_size=4))
        exps = [parts.count(k) for k in range(1, ring.rank + 1)]
        poly = poly + RationalPoly(ring.c_ring, {tuple(exps): draw(coef_st)})
    return ring, poly, perturbed


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
        assert [v.name for v in root_vars(ring)] == ["x1", "x2", "x3"]
        assert [(v.name, v.weight) for v in ring.c_ring] == [
            ("c1", 1),
            ("c2", 2),
            ("c3", 3),
        ]
        assert [(v.name, v.weight) for v in ring.z_ring] == [("z2", 2), ("z3", 3)]

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            chern_ring(0)

    def test_expression_ring_checked(self):
        ring = chern_ring(2)
        p = RationalPoly.const(make_ring(Variable("t")), 1)
        message = "^polynomial is not over the Chern-class ring$"
        with pytest.raises(ValueError, match=message):
            rewrite_in_z(ring, p)
        with pytest.raises(ValueError, match=message):
            rewrite_in_z(ring, RationalPoly.const(chern_ring(3).c_ring, 1))


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
                RationalPoly.gen(ring.c_ring, v) for v in ring.c_ring
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
                assert z_basis(ring, k) == expected

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

    def test_generators_build_without_twist(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("z_k(c) is written out, not twisted")

        expected = [z_basis(chern_ring(6), k) for k in range(2, 7)]
        monkeypatch.setattr(projclass, "twist", refuse)
        fresh = projclass.ChernRing(6)
        assert [z_basis(fresh, k) for k in range(2, 7)] == expected

    def test_generators_are_integral_closed_forms(self):
        # the general twist is the oracle: the roots n*x_i, of classes n^i*c_i,
        # twisted by -c_1 are the difference roots y_i, whose e_k is z_k
        for n in range(2, 9):
            ring = chern_ring(n)
            c = [RationalPoly.gen(ring.c_ring, v) for v in ring.c_ring]
            one = RationalPoly.const(ring.c_ring, 1)
            expected = twist([n**i * ci for i, ci in enumerate(c, 1)], -c[0], one)
            for k in range(2, n + 1):
                got = z_basis(ring, k)
                assert all(type(c) is int for c in got.terms.values()), (n, k)
                assert got == expected[k - 1], (n, k)

    def test_generators_pack_past_a_width_step(self):
        # z_k of weight 256 and up needs 16-bit fields; the closed form,
        # written out with exponent tuples, is the reference
        n = 260
        ring = projclass.ChernRing(n)
        for k in (2, 255, 256, 260):
            pairs = []
            for i in range(k + 1):
                exps = [k - i] + [0] * (n - 1)
                if i:
                    exps[i - 1] += 1
                pairs.append((exps, math.comb(n - i, k - i) * (-1) ** (k - i) * n**i))
            got = z_basis(ring, k)
            assert got == RationalPoly(ring.c_ring, pairs), k
            assert got._width == (8 if k < 256 else 16), k

    def test_weight_and_degree(self):
        poly = z_basis(chern_ring(4), 3)
        assert poly.homogeneous_weight() == 3
        assert poly.cohomological_degree() == 6


class TestShiftInvariance:
    def test_generators_are_invariant(self):
        for n in range(2, 5):
            ring = chern_ring(n)
            for k in range(2, n + 1):
                assert is_shift_invariant(ring, z_basis(ring, k))

    def test_c1_is_not_invariant(self):
        ring = chern_ring(2)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        assert not is_shift_invariant(ring, c1)

    def test_normalized_c2_combination(self):
        ring = chern_ring(2)
        p = parse_poly("1*c2 + -1/4*c1^2", ring.c_ring)
        assert is_shift_invariant(ring, p)

    def test_root_oracle_agrees_on_seeded_classes(self):
        rng = random.Random(11)
        for n in range(2, 5):
            ring = chern_ring(n)
            c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
            for weight in range(2, 6):
                invariant = seeded_invariant(rng, ring, weight)
                perturbed = invariant + rng.choice([-2, -1, 1, 3]) * c1**weight
                for poly, expected in ((invariant, True), (perturbed, False)):
                    assert shift_oracle(ring, poly) is expected
                    assert is_shift_invariant(ring, poly) is expected

    def test_rewrite_is_none_exactly_off_the_invariants(self):
        ring = chern_ring(3)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        z3 = z_basis(ring, 3)
        assert rewrite_in_z(ring, z3).to_text() == "1*z3"
        assert rewrite_in_z(ring, z3 + c1**3) is None
        assert rewrite_in_z(ring, c1**40) is None

    def test_inhomogeneous_class_with_one_non_invariant_component(self):
        ring = chern_ring(3)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        z2, z3 = z_basis(ring, 2), z_basis(ring, 3)
        assert rewrite_in_z(ring, z2 + z3 + c1**3) is None
        assert rewrite_in_z(ring, 5 + z2 + c1) is None
        assert not is_shift_invariant(ring, z3 + c1 * z2)

    def test_rewrite_and_invariance_make_no_substitute_or_product(self, monkeypatch):
        counts = Counter()

        def counted(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return call

        cases = []
        for n in range(3, 7):
            ring = chern_ring(n)
            c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
            z2, zn = z_basis(ring, 2), z_basis(ring, n)
            cases += [(ring, z2 * zn - 3 * zn, True), (ring, zn + c1**n, False)]
            cases.append((ring, z2 + 5, True))
        substitute = counted("substitute", RationalPoly.substitute)
        monkeypatch.setattr(RationalPoly, "substitute", substitute)
        monkeypatch.setattr(SparseTerms, "_mul", counted("_mul", SparseTerms._mul))
        for ring, poly, invariant in cases:
            assert (rewrite_in_z(ring, poly) is not None) is invariant
            assert is_shift_invariant(ring, poly) is invariant
        assert counts == Counter()

    @settings(deadline=None, max_examples=80)
    @given(invariance_cases())
    def test_rewrite_agrees_with_back_expansion(self, case):
        ring, poly, perturbed = case
        want = rewrite_by_back_expansion(ring, poly)
        assert (want is None) is perturbed
        assert rewrite_in_z(ring, poly) == want
        assert is_shift_invariant(ring, poly) is (want is not None)

    def test_cayley_omega_kills_every_generator(self):
        for n in range(2, 9):
            ring = chern_ring(n)
            for k in range(2, n + 1):
                assert projclass._cayley_omega(ring, z_basis(ring, k)).is_zero()

    def test_cayley_omega_lowers_each_chern_class(self):
        for n in range(1, 9):
            ring = chern_ring(n)
            cs = [RationalPoly.const(ring.c_ring, 1)]
            cs += [RationalPoly.gen(ring.c_ring, v) for v in ring.c_ring]
            for k in range(1, n + 1):
                assert projclass._cayley_omega(ring, cs[k]) == (n - k + 1) * cs[k - 1]
            # a 16-bit key: D c_1^300 = 300 * n * c_1^299
            assert projclass._cayley_omega(ring, cs[1] ** 300) == 300 * n * cs[1] ** 299

    def test_cayley_omega_is_a_derivation(self):
        rng = random.Random(5)
        for n in (2, 4, 6):
            ring = chern_ring(n)
            p, q = random_c_poly(rng, ring, 3), random_c_poly(rng, ring, n)
            d = partial(projclass._cayley_omega, ring)
            assert d(p * q) == d(p) * q + p * d(q)

    def test_corrupt_root_values_fail_loudly(self, monkeypatch):
        ring = chern_ring(3)
        c_values, z_values = ring._root_values
        corrupt = (c_values, [z_values[0] + 1, *z_values[1:]])
        monkeypatch.setitem(ring.__dict__, "_root_values", corrupt)
        message = (
            r"^z-rewrite for rank n=3 failed its root check at x_i = i\^2:"
            r" .* first term -3\*c1\^2$"
        )
        with pytest.raises(RuntimeError, match=message):
            rewrite_in_z(ring, z_basis(ring, 2))

    def test_wrong_derivation_fails_loudly(self, monkeypatch):
        ring = chern_ring(4)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        # a D that kills everything lets the non-invariant class through to the check
        monkeypatch.setattr(projclass, "_cayley_omega", lambda r, p: RationalPoly.zero(r.c_ring))
        message = r"^z-rewrite for rank n=4 failed .* first term -1\*c1\^4$"
        with pytest.raises(RuntimeError, match=message):
            rewrite_in_z(ring, z_basis(ring, 4) + 2 * c1**4)

    def test_expand_to_roots_matches_elementary(self):
        ring = chern_ring(3)
        c2 = RationalPoly.gen(ring.c_ring, ring.c_ring[1])
        assert expand_to_roots(ring, c2) == elementary_symmetric(2, root_vars(ring))


class TestExpressInZ:
    def test_generator_roundtrips_to_itself(self):
        ring = chern_ring(3)
        out = express_in_z(ring, z_basis(ring, 3))
        assert out.to_text() == "1*z3"

    def test_constant_passes_through(self):
        ring = chern_ring(3)
        assert express_in_z(ring, RationalPoly.const(ring.c_ring, 5)).to_text() == "5"

    def test_zero_maps_to_zero(self):
        ring = chern_ring(2)
        out = express_in_z(ring, RationalPoly.zero(ring.c_ring))
        assert out.is_zero()

    def test_non_invariant_rejected(self):
        ring = chern_ring(2)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        with pytest.raises(ValueError, match="shift-invariant"):
            express_in_z(ring, c1)

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
            out = express_in_z(ring, c_poly)
            assert out == RationalPoly(ring.z_ring, chosen)

    def test_inhomogeneous_rewrite_sums_its_components(self):
        rng = random.Random(13)
        for n in (3, 4):
            ring = chern_ring(n)
            parts = [seeded_invariant(rng, ring, w) for w in range(2, 6)]
            total = sum(parts, RationalPoly.const(ring.c_ring, 7))
            want = sum(
                (express_in_z(ring, part) for part in parts),
                RationalPoly.const(ring.z_ring, 7),
            )
            assert express_in_z(ring, total) == want

    def test_mixed_weights_handled_componentwise(self):
        ring = chern_ring(2)
        z2 = z_basis(ring, 2)
        mixed = z2 + 3
        out = express_in_z(ring, mixed)
        assert out.to_text() == "1*z2 + 3"


class TestReduction:
    def test_lambda_is_rank_power(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                lam = lambda_p(n, k).lam
                assert lam == Fraction(n) ** k
                assert type(lam) is int

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
                    for exps, _ in data.P.exponent_items()
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
        ring = chern_ring(4)
        c1 = RationalPoly.gen(ring.c_ring, ring.c_ring[0])
        perturbed = {
            z: poly + c1**k
            for k, (z, poly) in enumerate(ring._z_in_c.items(), start=2)
        }
        monkeypatch.setitem(ring.__dict__, "_z_in_c", perturbed)
        with pytest.raises(RuntimeError) as info:
            lambda_p(4, 2)
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
        gens = [RationalPoly.gen(ring.c_ring, v) for v in ring.c_ring]
        res = a_classes(3, gens)
        assert res == [z_basis(ring, 2), z_basis(ring, 3)]

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

    @pytest.mark.parametrize("rank", range(1, 6))
    @pytest.mark.parametrize("genus", range(4))
    def test_matches_generic_evaluation(self, rank, genus):
        rng = random.Random(100 * rank + genus)
        ring = chern_ring(rank)
        algebra = ParameterAlgebra(PARAM_GENS, 2 * rank + 2)
        surface = SurfaceRing(genus)
        kinds = {
            "Fraction": (
                lambda i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(0),
            ),
            "RationalPoly": (
                lambda i: random_c_poly(rng, ring, i),
                RationalPoly.zero(ring.c_ring),
            ),
            "KunnethClass": (
                lambda i: random_kunneth(rng, algebra, surface, 2 * i),
                KunnethClass.zero(algebra, surface),
            ),
        }
        for kind, (draw, zero) in kinds.items():
            for given in range(rank + 1):  # the values of c_given+1.. are omitted
                values = [draw(i) for i in range(1, given + 1)]
                got = a_classes(rank, values, zero=zero)
                want = a_classes_by_evaluation(rank, values, zero=zero)
                assert got == want, (kind, rank, genus, given)
                assert all(type(a) is type(zero) for a in got), kind

    @pytest.mark.parametrize("rank", range(2, 6))
    def test_one_pass_sums_match_the_running_sums(self, rank):
        rng = random.Random(900 + rank)
        ring = chern_ring(rank)
        algebra = ParameterAlgebra(PARAM_GENS, 2 * rank + 2)
        surface = SurfaceRing(2)
        kinds = [
            ([Fraction(rng.randint(-9, 9), 2) for _ in range(rank)], Fraction(0)),
            (
                [random_c_poly(rng, ring, i) for i in range(1, rank + 1)],
                RationalPoly.zero(ring.c_ring),
            ),
            (
                [random_kunneth(rng, algebra, surface, 2 * i) for i in range(1, rank + 1)],
                KunnethClass.zero(algebra, surface),
            ),
        ]
        for values, zero in kinds:
            got = projclass._a_classes_of(rank, values, zero)
            want = a_classes_by_running_sums(rank, values, zero)
            assert got == want
            assert [str(a) for a in got] == [str(a) for a in want]
            for a in got:
                if hasattr(a, "terms"):
                    coefs = a.terms.values()
                    assert all(type(c) is int for c in coefs if c.denominator == 1)

    @pytest.mark.parametrize("rank", range(2, 5))
    def test_canonicality_checks_unpack_keys_once_per_rank(self, rank, monkeypatch):
        unpacked = Counter()
        unpacker = qpoly._unpacker

        def counted(size, width):
            unpack = unpacker(size, width)

            def counting(key):
                unpacked[size] += 1
                return unpack(key)

            return counting

        monkeypatch.setattr(qpoly, "_unpacker", counted)
        monkeypatch.setattr(projclass, "chern_ring", lru_cache(projclass.ChernRing))
        algebra = ParameterAlgebra(PARAM_GENS, 2 * rank + 2)
        surface = SurfaceRing(2)
        rng = random.Random(950 + rank)
        for check in range(3):
            chern = [random_kunneth(rng, algebra, surface, 2 * i) for i in range(1, rank + 1)]
            f = random_param_element(rng, algebra, 2)
            assert canonicality_check(rank, chern, f).passed
            # the first check plans the z_k(c) of the rank: each key once
            terms = sum(len(z.terms) for z in projclass.chern_ring(rank)._z_in_c.values())
            assert unpacked == Counter({rank: terms}), check

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_one_shared_power_table(self, rank):
        tally = Counter()
        values = [CountedRational(Fraction(i, 3), tally) for i in range(1, rank + 1)]
        zero = CountedRational(Fraction(0), tally)
        got = a_classes(rank, values, zero=zero)
        assert tally["products"] == rank * (rank - 1) // 2
        plain = [Fraction(i, 3) for i in range(1, rank + 1)]
        assert [a.value for a in got] == a_classes(rank, plain)

    @pytest.mark.parametrize(
        "text, counts",
        [
            # dense: x^2..x^4 each one product from the power below
            ("1*x + 1*x^2 + 1*x^3 + 1*x^4", {"products": 3}),
            # a lone sparse power goes through ** and keeps no lower power
            ("1*x^64", {"**64": 1, "products": 63}),
            # x^2, x^3 from below, x^10 by **, and one product for x^3*y
            ("1*x + 1*x^2 + 2*x^3 + 1*x^10 + 1*x^3*y", {"**10": 1, "products": 12}),
        ],
    )
    def test_power_rule(self, text, counts):
        ring = make_ring(Variable("x"), Variable("y"))
        p = parse_poly(text, ring)
        tally = Counter()
        values = dict(zip(ring, (CountedRational(Fraction(k, 3), tally) for k in (2, 5))))
        got = p.evaluate(values, zero=CountedRational(Fraction(0), tally))
        assert tally == Counter(counts)
        assert got.value == p.evaluate({v: c.value for v, c in values.items()})


class TestEndClasses:
    def test_rank_two_matches_z2(self):
        assert end_chern(2, 2) == z_basis(chern_ring(2), 2)

    def test_odd_classes_vanish(self):
        for n in (2, 3):
            for j in range(1, n * n + 1, 2):
                assert end_chern(n, j).is_zero()

    def test_beyond_nonzero_roots_vanishes(self):
        # n = 2 has two nonzero differences, so e_3 and e_4 collapse
        assert end_chern(2, 4).is_zero()

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
