"""Surface cohomology, graded parameter coefficients, slant products, twisting."""

import random
from fractions import Fraction

import pytest

from projchar import surfalg
from projchar.surfalg import (
    K_OMEGA,
    K_ONE,
    CanonicalityReport,
    HomologyClass,
    KunnethClass,
    ParamElement,
    ParameterAlgebra,
    SurfaceClass,
    SurfaceRing,
    canonicality_check,
    cycle_a,
    cycle_b,
    fundamental_class,
    k_alpha,
    k_beta,
    point_class,
    random_kunneth,
    random_param_element,
    slant,
    twist_chern,
)

GENS = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))


def algebra(max_degree: int = 8) -> ParameterAlgebra:
    return ParameterAlgebra(GENS, max_degree)


class TestSurfaceRing:
    def test_basis_order_genus_two(self):
        ring = SurfaceRing(2)
        assert ring.basis == (
            K_ONE,
            k_alpha(1),
            k_alpha(2),
            k_beta(1),
            k_beta(2),
            K_OMEGA,
        )

    def test_genus_zero_has_only_even_classes(self):
        assert SurfaceRing(0).basis == (K_ONE, K_OMEGA)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            SurfaceRing(-1)

    def test_names_and_degrees(self):
        ring = SurfaceRing(2)
        assert ring.name(K_ONE) == "1"
        assert ring.name(k_alpha(1)) == "alpha1"
        assert ring.name(k_beta(2)) == "beta2"
        assert ring.name(K_OMEGA) == "omega"
        assert ring.degree(K_ONE) == 0
        assert ring.degree(k_beta(1)) == 1
        assert ring.degree(K_OMEGA) == 2

    def test_key_out_of_range(self):
        ring = SurfaceRing(2)
        with pytest.raises(ValueError):
            ring.check_key(k_alpha(3))
        with pytest.raises(ValueError):
            ring.check_key((3, 0, 0))

    def test_multiplication_table(self):
        ring = SurfaceRing(2)
        assert ring.basis_mul(k_alpha(1), k_beta(1)) == (1, K_OMEGA)
        assert ring.basis_mul(k_beta(1), k_alpha(1)) == (-1, K_OMEGA)
        assert ring.basis_mul(k_alpha(1), k_beta(2)) is None
        assert ring.basis_mul(k_alpha(1), k_alpha(2)) is None
        assert ring.basis_mul(k_alpha(1), k_alpha(1)) is None
        assert ring.basis_mul(K_OMEGA, k_alpha(1)) is None
        assert ring.basis_mul(K_ONE, K_OMEGA) == (1, K_OMEGA)


class TestSurfaceClass:
    def setup_method(self):
        self.ring = SurfaceRing(2)

    def test_intersection_form(self):
        a1 = SurfaceClass.alpha(self.ring, 1)
        b1 = SurfaceClass.beta(self.ring, 1)
        omega = SurfaceClass.omega_class(self.ring)
        assert a1 * b1 == omega
        assert b1 * a1 == -omega
        assert (a1 * a1).is_zero()
        assert ((a1 + b1) * (a1 + b1)).is_zero()

    def test_scalar_and_unit(self):
        a1 = SurfaceClass.alpha(self.ring, 1)
        assert SurfaceClass.unit(self.ring) * a1 == a1
        assert 2 * a1 - a1 == a1
        assert SurfaceClass.unit(self.ring) + 1 == 2

    def test_pairing_is_diagonal(self):
        a1 = SurfaceClass.alpha(self.ring, 1)
        assert a1.pair(cycle_a(self.ring, 1)) == 1
        assert a1.pair(cycle_a(self.ring, 2)) == 0
        assert a1.pair(cycle_b(self.ring, 1)) == 0
        omega = SurfaceClass.omega_class(self.ring)
        assert omega.pair(fundamental_class(self.ring)) == 1
        assert SurfaceClass.unit(self.ring).pair(point_class(self.ring)) == 1

    def test_degree(self):
        assert SurfaceClass.zero(self.ring).degree() is None
        assert SurfaceClass.omega_class(self.ring).degree() == 2
        mixed = SurfaceClass.unit(self.ring) + SurfaceClass.alpha(self.ring, 1)
        with pytest.raises(ValueError):
            mixed.degree()

    def test_text(self):
        s = 2 * SurfaceClass.alpha(self.ring, 1) - SurfaceClass.omega_class(
            self.ring
        )
        assert s.to_text() == "2*alpha1 + -1*omega"
        assert (SurfaceClass.unit(self.ring) * 3).to_text() == "3"

    def test_ring_mismatch(self):
        other = SurfaceRing(1)
        with pytest.raises(ValueError):
            SurfaceClass.alpha(self.ring, 1) + SurfaceClass.alpha(other, 1)


class TestHomologyClass:
    def test_names_and_degrees(self):
        ring = SurfaceRing(2)
        assert point_class(ring).name == "[x0]"
        assert point_class(ring).degree == 0
        assert cycle_a(ring, 1).name == "a1"
        assert cycle_b(ring, 2).name == "b2"
        assert cycle_a(ring, 1).degree == 1
        assert fundamental_class(ring).name == "[X]"
        assert fundamental_class(ring).degree == 2

    def test_index_validated(self):
        ring = SurfaceRing(1)
        with pytest.raises(ValueError):
            cycle_b(ring, 2)
        with pytest.raises(ValueError):
            HomologyClass(ring, (1, 2, 1))


class TestParameterAlgebra:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterAlgebra((("v", 1), ("v", 2)), 4)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            ParameterAlgebra((("v", 0),), 4)
        with pytest.raises(ValueError):
            ParameterAlgebra((("v", 1),), -1)

    def test_monomial_enumeration(self):
        alg = algebra(4)
        assert alg.monomials_of_degree(0) == ((0, 0, 0, 0),)
        assert len(alg.monomials_of_degree(1)) == 2  # v1, v2
        assert len(alg.monomials_of_degree(2)) == 3  # v1*v2, u1, u2
        assert alg.monomials_of_degree(5) == ()
        assert alg.monomials_of_degree(-1) == ()

    def test_odd_exponents_capped_in_enumeration(self):
        alg = ParameterAlgebra((("v", 1),), 6)
        assert alg.monomials_of_degree(2) == ()

    def test_koszul_sign(self):
        alg = algebra()
        v1 = (1, 0, 0, 0)
        v2 = (0, 1, 0, 0)
        u1 = (0, 0, 1, 0)
        assert alg.koszul_sign(v1, v2) == 1
        assert alg.koszul_sign(v2, v1) == -1
        assert alg.koszul_sign(u1, v1) == 1
        assert alg.koszul_sign((1, 1, 0, 0), (1, 1, 0, 0)) == -1

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            algebra().gen("w")


class TestParamElement:
    def setup_method(self):
        self.alg = algebra()
        self.v1 = self.alg.gen("v1")
        self.v2 = self.alg.gen("v2")
        self.u1 = self.alg.gen("u1")

    def test_odd_generators_square_to_zero(self):
        assert (self.v1 * self.v1).is_zero()
        assert (self.v1**2).is_zero()
        direct = ParamElement(self.alg, {(2, 0, 0, 0): 1})
        assert direct.is_zero()

    def test_anticommutativity(self):
        assert self.v1 * self.v2 == -(self.v2 * self.v1)

    def test_even_generators_are_central(self):
        assert self.u1 * self.v1 == self.v1 * self.u1
        assert self.u1 * self.u1 == self.u1**2

    def test_truncation(self):
        tight = ParameterAlgebra(GENS, 3)
        u1 = tight.gen("u1")
        assert (u1 * u1).is_zero()
        assert not (u1 * tight.gen("v1")).is_zero()

    def test_sign_twist(self):
        s = self.v1 + self.u1
        twisted = s.sign_twist(1)
        assert twisted == -self.v1 + self.u1
        assert s.sign_twist(2) == s

    def test_degrees(self):
        assert self.u1.cohomological_degree() == 2
        assert self.alg.zero().cohomological_degree() is None
        with pytest.raises(ValueError):
            (self.v1 + self.u1).cohomological_degree()

    def test_text_ordering(self):
        s = 2 * self.v1 * self.v2 + self.u1
        assert s.to_text() == "1*u1 + 2*v1*v2"
        assert self.alg.zero().to_text() == "0"
        assert (self.u1**2).to_text() == "1*u1^2"

    def test_scalar_equality(self):
        assert self.alg.one() * 3 == 3
        assert self.alg.zero() == 0
        assert 1 - self.alg.one() == 0

    def test_algebra_mismatch(self):
        other = ParameterAlgebra((("v1", 1),), 4)
        with pytest.raises(ValueError):
            self.v1 + other.gen("v1")


class TestKunnethClass:
    def setup_method(self):
        self.alg = algebra()
        self.ring = SurfaceRing(2)
        self.one = KunnethClass.unit(self.alg, self.ring)

    def surface(self, s: SurfaceClass) -> KunnethClass:
        return KunnethClass.from_surface(self.alg, s)

    def test_surface_leg_multiplication(self):
        a1 = self.surface(SurfaceClass.alpha(self.ring, 1))
        b1 = self.surface(SurfaceClass.beta(self.ring, 1))
        omega = self.surface(SurfaceClass.omega_class(self.ring))
        assert a1 * b1 == omega
        assert b1 * a1 == -omega
        assert (a1 * a1).is_zero()

    def test_tensor_factors_commute_with_sign(self):
        v1 = self.alg.gen("v1")
        left = KunnethClass.from_param(v1, self.ring)
        right = self.surface(SurfaceClass.alpha(self.ring, 1))
        both = KunnethClass.tensor(v1, SurfaceClass.alpha(self.ring, 1))
        assert left * right == both
        assert right * left == -both

    def test_unit_and_scalars(self):
        x = KunnethClass.tensor(self.alg.gen("u1"), SurfaceClass.alpha(self.ring, 1))
        assert self.one * x == x
        assert x * 2 - x == x
        assert self.one + 1 == 2

    def test_part_lookup(self):
        v1 = self.alg.gen("v1")
        x = KunnethClass.tensor(v1, SurfaceClass.alpha(self.ring, 1))
        assert x.part(k_alpha(1)) == v1
        assert x.part(K_OMEGA).is_zero()
        with pytest.raises(ValueError):
            x.part(k_alpha(5))

    def test_degree(self):
        x = KunnethClass.tensor(self.alg.gen("u1"), SurfaceClass.alpha(self.ring, 1))
        assert x.cohomological_degree() == 3
        assert KunnethClass.zero(self.alg, self.ring).cohomological_degree() is None
        with pytest.raises(ValueError):
            (x + self.one).cohomological_degree()

    def test_zero_parts_dropped(self):
        x = KunnethClass(
            self.alg, self.ring, {K_ONE: self.alg.zero(), K_OMEGA: self.alg.one()}
        )
        assert list(x.parts) == [K_OMEGA]

    def test_graded_commutativity_seeded(self):
        rng = random.Random(11)
        for _ in range(12):
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            a = random_kunneth(rng, self.alg, self.ring, da)
            b = random_kunneth(rng, self.alg, self.ring, db)
            sign = -1 if (da * db) % 2 else 1
            assert a * b == sign * (b * a)

    def test_associativity_seeded(self):
        rng = random.Random(12)
        for _ in range(8):
            a = random_kunneth(rng, self.alg, self.ring, rng.randint(1, 3))
            b = random_kunneth(rng, self.alg, self.ring, rng.randint(1, 3))
            c = random_kunneth(rng, self.alg, self.ring, rng.randint(1, 3))
            assert (a * b) * c == a * (b * c)

    def test_product_twists_each_right_hand_term_once(self, monkeypatch):
        rng = random.Random(13)
        keys = [K_ONE, k_alpha(1), k_beta(1), k_alpha(2), k_beta(2)]

        def spread(degree):
            parts = {
                key: random_param_element(rng, self.alg, degree - key[0])
                + self.alg.gen("v1")
                for key in keys
            }
            return KunnethClass(self.alg, self.ring, parts)

        a, b = spread(2), spread(3)
        # the product written out pair by pair, before anything is counted
        expected = KunnethClass.zero(self.alg, self.ring)
        for k1, p1 in a.parts.items():
            for k2, p2 in b.parts.items():
                hit = self.ring.basis_mul(k1, k2)
                if hit is not None:
                    sign, key = hit
                    part = p1 * p2.sign_twist(k1[0]) * sign
                    expected = expected + KunnethClass(self.alg, self.ring, {key: part})
        calls = []
        original = ParamElement.sign_twist

        def counted(self, parity):
            calls.append(parity)
            return original(self, parity)

        monkeypatch.setattr(ParamElement, "sign_twist", counted)
        assert a * b == expected
        assert sum(1 for key in a.parts if key[0] == 1) == 4
        assert 0 < len(calls) <= len(b.parts), calls

    def test_text(self):
        x = KunnethClass.tensor(self.alg.gen("u1"), SurfaceClass.alpha(self.ring, 1))
        assert x.to_text() == "(1*u1) ⊗ alpha1"


class TestSlant:
    def setup_method(self):
        self.alg = algebra()
        self.ring = SurfaceRing(2)

    def test_fundamental_class_extracts_omega_part(self):
        for s in (self.alg.gen("v1"), self.alg.gen("u1")):
            x = KunnethClass.tensor(s, SurfaceClass.omega_class(self.ring))
            assert slant(x, fundamental_class(self.ring)) == s

    def test_point_class_extracts_pullback(self):
        s = self.alg.gen("u1") + 2
        x = KunnethClass.from_param(s, self.ring)
        assert slant(x, point_class(self.ring)) == s
        assert slant(x, fundamental_class(self.ring)).is_zero()

    def test_odd_sign_convention(self):
        v1 = self.alg.gen("v1")
        x = KunnethClass.tensor(v1, SurfaceClass.alpha(self.ring, 1))
        assert slant(x, cycle_a(self.ring, 1)) == -v1
        assert slant(x, cycle_b(self.ring, 1)).is_zero()
        assert slant(x, cycle_a(self.ring, 2)).is_zero()
        u1 = self.alg.gen("u1")
        y = KunnethClass.tensor(u1, SurfaceClass.alpha(self.ring, 1))
        assert slant(y, cycle_a(self.ring, 1)) == u1

    def test_degree_drops_by_cycle_degree(self):
        x = KunnethClass.tensor(self.alg.gen("u1"), SurfaceClass.alpha(self.ring, 1))
        out = slant(x, cycle_a(self.ring, 1))
        assert x.cohomological_degree() - 1 == out.cohomological_degree()

    def test_ring_mismatch(self):
        x = KunnethClass.unit(self.alg, self.ring)
        with pytest.raises(ValueError):
            slant(x, point_class(SurfaceRing(0)))


def random_chern_list(rng, alg, ring, rank):
    return [random_kunneth(rng, alg, ring, 2 * i) for i in range(1, rank + 1)]


class TestTwist:
    def setup_method(self):
        self.alg = algebra(10)
        self.ring = SurfaceRing(2)

    def test_zero_twist_is_identity(self):
        rng = random.Random(21)
        chern = random_chern_list(rng, self.alg, self.ring, 3)
        assert twist_chern(3, chern, self.alg.zero()) == chern

    def test_rank_one_first_class(self):
        rng = random.Random(22)
        c1 = random_kunneth(rng, self.alg, self.ring, 2)
        f = self.alg.gen("u1")
        out = twist_chern(1, [c1], f)
        assert out == [c1 + KunnethClass.from_param(f, self.ring)]

    def test_first_class_shifts_by_rank(self):
        rng = random.Random(23)
        chern = random_chern_list(rng, self.alg, self.ring, 3)
        f = self.alg.gen("u1")
        out = twist_chern(3, chern, f)
        assert out[0] == chern[0] + 3 * KunnethClass.from_param(f, self.ring)

    def test_rank_two_top_class(self):
        rng = random.Random(24)
        chern = random_chern_list(rng, self.alg, self.ring, 2)
        f = self.alg.gen("u1")
        ft = KunnethClass.from_param(f, self.ring)
        out = twist_chern(2, chern, f)
        assert out[1] == chern[1] + chern[0] * ft + ft * ft

    def test_twist_then_untwist(self):
        rng = random.Random(25)
        chern = random_chern_list(rng, self.alg, self.ring, 3)
        f = random_param_element(rng, self.alg, 2)
        assert twist_chern(3, twist_chern(3, chern, f), -f) == chern

    def test_wrong_list_length(self):
        with pytest.raises(ValueError):
            twist_chern(2, [KunnethClass.unit(self.alg, self.ring)], self.alg.zero())

    def test_wrong_twist_degree(self):
        chern = random_chern_list(random.Random(26), self.alg, self.ring, 2)
        with pytest.raises(ValueError):
            twist_chern(2, chern, self.alg.gen("v1"))

    def test_truncation_floor(self):
        tight = ParameterAlgebra(GENS, 3)
        unit = KunnethClass.unit(tight, self.ring)
        chern = [unit * 0, unit * 0]
        with pytest.raises(ValueError, match="truncation"):
            twist_chern(2, chern, tight.zero())

    def test_wrong_class_degree(self):
        u1 = KunnethClass.from_param(self.alg.gen("u1"), self.ring)
        with pytest.raises(ValueError):
            twist_chern(2, [u1, u1], self.alg.zero())


class TestCanonicality:
    def setup_method(self):
        self.alg = algebra(10)
        self.ring = SurfaceRing(2)

    def test_seeded_instances_pass(self):
        rng = random.Random(31)
        for rank in (1, 2, 3):
            chern = random_chern_list(rng, self.alg, self.ring, rank)
            f = random_param_element(rng, self.alg, 2)
            report = canonicality_check(rank, chern, f)
            assert isinstance(report, CanonicalityReport)
            assert report.passed
            assert report.first_failure is None
            assert report.h1_checks == 2 * self.ring.genus
            assert report.a_checks == rank - 1

    def test_h0_shift_is_rank_times_twist(self):
        rng = random.Random(32)
        for rank in (1, 2, 3):
            chern = random_chern_list(rng, self.alg, self.ring, rank)
            f = random_param_element(rng, self.alg, 2)
            report = canonicality_check(rank, chern, f)
            assert report.h0_shift == rank * f

    def test_genus_zero(self):
        ring = SurfaceRing(0)
        rng = random.Random(33)
        chern = [random_kunneth(rng, self.alg, ring, 2 * i) for i in (1, 2)]
        report = canonicality_check(2, chern, self.alg.gen("u2"))
        assert report.passed
        assert report.h1_checks == 0

    def test_chern_list_is_validated_once_per_check(self, monkeypatch):
        calls = []
        original = surfalg._check_chern_list

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(surfalg, "_check_chern_list", counted)
        rng = random.Random(34)
        for rank in (1, 2, 3):
            chern = random_chern_list(rng, self.alg, self.ring, rank)
            f = random_param_element(rng, self.alg, 2)
            canonicality_check(rank, iter(chern), f)
        assert calls == [1, 2, 3]

    def test_each_chern_degree_is_read_once_per_check(self, monkeypatch):
        calls = []
        degree = KunnethClass.cohomological_degree
        monkeypatch.setattr(
            KunnethClass,
            "cohomological_degree",
            lambda self: calls.append(1) or degree(self),
        )
        rng = random.Random(36)
        counts = []
        for rank in (1, 2, 3, 4):
            chern = random_chern_list(rng, self.alg, self.ring, rank)
            f = random_param_element(rng, self.alg, 2)
            calls.clear()
            assert canonicality_check(rank, chern, f).passed
            counts.append(len(calls))
        # a twist keeps degrees, so neither list's a-classes re-read them
        assert counts == [1, 2, 3, 4]

    def test_chern_list_is_checked_before_the_twist_class(self):
        u1 = KunnethClass.from_param(self.alg.gen("u1"), self.ring)
        v1 = self.alg.gen("v1")
        with pytest.raises(ValueError, match="^c2 has degree 2, expected 4$"):
            canonicality_check(2, [u1, u1], v1)
        with pytest.raises(ValueError, match="^rank must be positive, got 0$"):
            canonicality_check(0, [], v1)
        chern = random_chern_list(random.Random(35), self.alg, self.ring, 2)
        with pytest.raises(ValueError, match="^twist class has degree 1, expected 2$"):
            canonicality_check(2, chern, v1)
