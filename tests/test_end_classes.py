"""End classes by power sums of the difference roots, and the cached Hom e-lists.

The library computes c_j(End) from power sums of the integer difference
roots y_i = n*x_i - (x_1 + ... + x_n) and never touches the root ring.
The oracles here do: e_j of the n^2 root differences x_a - x_b, rewritten
in c_1..c_n by elementary-basis descent, or evaluated at seeded rational
roots.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from projchar import projclass
from projchar.projclass import (
    chern_ring,
    end_chern,
    end_in_a,
    hom_flag_chern,
    rewrite_in_z,
)
from projchar.qpoly import (
    RationalPoly,
    SparseTerms,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    make_ring,
)

from oracles import root_ring, root_vars


def fraction_esp(values):
    es = [Fraction(1)] + [Fraction(0)] * len(values)
    for count, v in enumerate(values, start=1):
        for k in range(count, 0, -1):
            es[k] += v * es[k - 1]
    return es


@lru_cache(maxsize=None)
def root_ring_end_esp(n):
    """e_0..e_{n^2} of the root differences, computed in the root ring."""
    ring = chern_ring(n)
    gens = [RationalPoly.gen(root_ring(ring), v) for v in root_vars(ring)]
    roots = [a - b for a in gens for b in gens]
    return elementary_symmetric_all(roots, RationalPoly.const(root_ring(ring), 1))


SMALL = [(n, j) for n in range(1, 5) for j in range(1, n * n + 1)]


class TestAgainstRootRing:
    @pytest.mark.parametrize("n,j", SMALL)
    def test_end_chern_matches_elementary_descent(self, n, j):
        ring = chern_ring(n)
        expected = express_in_elementary(
            root_ring_end_esp(n)[j], root_vars(ring), target_vars=ring.c_ring
        )
        got = end_chern(n, j)
        assert got.terms == expected.terms
        assert got.to_text() == expected.to_text()

    @pytest.mark.parametrize("n,j", SMALL)
    def test_end_in_a_is_the_z_rewrite_of_end_chern(self, n, j):
        assert end_in_a(n, j) == rewrite_in_z(chern_ring(n), end_chern(n, j))


class TestRankFive:
    N = 5

    def test_end_in_a_is_the_z_rewrite_of_end_chern(self):
        ring = chern_ring(self.N)
        for j in range(1, self.N**2 + 1):
            assert end_in_a(self.N, j) == rewrite_in_z(ring, end_chern(self.N, j))

    def test_odd_classes_vanish(self):
        for j in range(1, self.N**2 + 1, 2):
            assert end_in_a(self.N, j).is_zero()
            assert end_chern(self.N, j).is_zero()

    def test_even_classes_up_to_the_nonzero_root_count_do_not_vanish(self):
        # 20 of the 25 differences are nonzero, so e_j survives up to j = 20
        for j in range(2, self.N**2 + 1, 2):
            assert end_chern(self.N, j).is_zero() == (j > 20)

    def test_end_chern_at_seeded_rational_roots(self):
        ring = chern_ring(self.N)
        rng = random.Random(5)
        for _ in range(3):
            roots = [
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(self.N)
            ]
            c_values = dict(zip(ring.c_ring, fraction_esp(roots)[1:]))
            expected = fraction_esp([a - b for a in roots for b in roots])
            for j in range(1, self.N**2 + 1):
                assert end_chern(self.N, j).evaluate(c_values) == expected[j], j


class TestIntegralClasses:
    """The cache holds n^j * c_j(End) over Z; each answer divides once."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cached_classes_are_integral(self, n):
        classes = projclass._end_classes(n)
        for j in range(1, n * n + 1):
            assert all(type(c) is int for c in classes[j].terms.values()), j
            assert end_in_a(n, j) * n**j == classes[j]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_end_chern_divides_the_integral_expansion(self, n):
        ring = chern_ring(n)
        classes = projclass._end_classes(n)
        for j in range(1, n * n + 1):
            expanded = classes[j].substitute(ring._z_in_c, target_ring=ring.c_ring)
            assert end_chern(n, j) == expanded / n**j

    def test_building_the_classes_makes_no_fraction(self, monkeypatch):
        chern_ring(4)._z_in_c  # the generators are built before counting
        made = []
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        classes = projclass._end_classes.__wrapped__(4)
        assert made == []
        assert classes == projclass._end_classes(4)

    def test_build_sums_each_step_once_and_changes_no_input(self, monkeypatch):
        # one linear_combination per power sum p_1..p_16, per P_m and per
        # j*e_j (m, j even): 16 + 8 + 8 sums and 167 elements in all
        chern_ring(4)._z_in_c  # the generators are built before counting
        cached = projclass._end_classes(4)
        before = [dict(e.terms) for e in cached]
        sums = []
        combine = projclass.linear_combination

        def summed(pairs, zero):
            pairs = list(pairs)
            values = [(v, dict(v.terms)) for _, v in pairs]
            sums.append((zero, dict(zero.terms), values))
            return combine(pairs, zero)

        made = []
        make = SparseTerms._make

        def counted(self, acc):
            made.append(self)
            return make(self, acc)

        monkeypatch.setattr(projclass, "linear_combination", summed)
        monkeypatch.setattr(SparseTerms, "_make", counted)
        classes = projclass._end_classes.__wrapped__(4)
        assert len(made) == 167 and len(sums) == 16 + 8 + 8
        for zero, terms, values in sums:
            assert zero.terms == terms
            assert all(v.terms == t for v, t in values)
        assert classes == cached and [dict(e.terms) for e in cached] == before

    def test_each_answer_divides_once_by_n_to_the_j(self, monkeypatch):
        # a vanishing answer (odd j, or j > n(n-1) = 6) divides by nothing
        divisors = []
        original = RationalPoly.__truediv__

        def counted(self, other):
            divisors.append(other)
            return original(self, other)

        monkeypatch.setattr(RationalPoly, "__truediv__", counted)
        for j in range(1, 10):
            for answer in (end_in_a, end_chern):
                divisors.clear()
                answer(3, j)
                expected = [] if j % 2 or j > 6 else [3**j]
                assert divisors == expected, (answer.__name__, j)


class TestVanishingClasses:
    """Odd j and j > n(n-1) answer the zero class without building End."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_answers_as_the_full_build(self, n):
        ring = chern_ring(n)
        classes = projclass._end_classes(n)
        for j in range(1, n * n + 1):
            full_a = classes[j] / n**j
            full_c = classes[j].substitute(ring._z_in_c, target_ring=ring.c_ring) / n**j
            assert projclass._end_vanishes(n, j) == full_a.is_zero(), (n, j)
            for answer, full in ((end_in_a, full_a), (end_chern, full_c)):
                got = answer(n, j)
                assert (got, got.to_text(), got.ring) == (full, full.to_text(), full.ring)

    def test_vanishing_answers_build_nothing(self, monkeypatch):
        def refused(n):
            raise AssertionError(f"built the End classes of rank {n}")

        monkeypatch.setattr(projclass, "_end_classes", refused)
        for n, j in ((7, 48), (7, 1), (7, 43), (2, 3), (1, 1)):
            assert end_chern(n, j).to_text() == "0"
            assert end_in_a(n, j).to_text() == "0"
        for answer in (end_chern, end_in_a):
            with pytest.raises(ValueError, match="j must satisfy 1 <= j <= 49, got 50"):
                answer(7, 50)


class TestLoudFailure:
    @pytest.fixture
    def fresh_caches(self):
        projclass._end_classes.cache_clear()
        yield
        projclass._end_classes.cache_clear()

    @staticmethod
    def corrupt_p4(monkeypatch, multiple):
        """Add multiple * z2^2 to the power sum p_4 of every rank."""
        honest = projclass._y_power_sums

        def corrupt(n):
            p = honest(n)
            z2 = RationalPoly.gen(chern_ring(n).z_ring, chern_ring(n).z_ring[0])
            p[4] = p[4] + multiple * z2**2
            return p

        monkeypatch.setattr(projclass, "_y_power_sums", corrupt)

    def test_corrupt_power_sum_is_caught(self, monkeypatch, fresh_caches):
        # 4 * z2^2 keeps every division by j exact, so the root check decides
        self.corrupt_p4(monkeypatch, 4)
        with pytest.raises(RuntimeError) as info:
            end_in_a(3, 2)
        message = str(info.value)
        assert "c_4" in message
        assert "n=3" in message
        assert "against" in message

    def test_corrupt_power_sum_breaking_the_division_is_caught(
        self, monkeypatch, fresh_caches
    ):
        self.corrupt_p4(monkeypatch, 1)
        with pytest.raises(RuntimeError) as info:
            end_in_a(3, 2)
        assert str(info.value) == (
            "End class c_4 for rank n=3: the term 30*z2^2 of 4*e_4"
            " is not divisible by 4"
        )

    def test_division_by_j_is_exact_or_loud(self):
        ring = chern_ring(4).z_ring
        exact = RationalPoly(ring, {(2, 0, 0): 12, (0, 0, 1): -6})
        halved = projclass._divide_exactly(4, 6, exact)
        assert dict(halved.exponent_items()) == {(2, 0, 0): 2, (0, 0, 1): -1}
        assert all(type(c) is int for c in halved.terms.values())
        # both 9 and 15 miss 6; the first in term order is z2^2, weight 4
        inexact = RationalPoly(ring, {(2, 0, 0): 9, (0, 0, 1): 15, (0, 1, 0): 6})
        with pytest.raises(RuntimeError) as info:
            projclass._divide_exactly(4, 6, inexact)
        assert str(info.value) == (
            "End class c_6 for rank n=4: the term 9*z2^2 of 6*e_6 is not divisible by 6"
        )

    def test_honest_power_sums_pass(self, fresh_caches):
        assert end_in_a(3, 2).to_text() == "2/3*z2"


def hom_vars(sub_rank, target_rank):
    sub = [Variable(f"s{i}") for i in range(1, sub_rank + 1)]
    target = [Variable(f"t{i}") for i in range(1, target_rank + 1)]
    return sub, target


HOM_RANKS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


class TestHomCache:
    @pytest.mark.parametrize("a,b", HOM_RANKS)
    def test_matches_direct_elementary_symmetric_all(self, a, b):
        sub, target = hom_vars(a, b)
        ring = make_ring(*sub, *target)
        roots = [
            RationalPoly.gen(ring, t) - RationalPoly.gen(ring, s)
            for s in sub
            for t in target
        ]
        expected = elementary_symmetric_all(roots, RationalPoly.const(ring, 1))
        for j in range(1, a * b + 1):
            assert hom_flag_chern(sub, target, j) == expected[j]

    def test_list_and_tuple_inputs_agree(self):
        sub, target = hom_vars(2, 3)
        for j in range(1, 7):
            as_lists = hom_flag_chern(sub, target, j)
            as_tuples = hom_flag_chern(tuple(sub), tuple(target), j)
            assert as_lists == as_tuples
            assert as_lists.to_text() == as_tuples.to_text()

    def test_j_range_messages(self):
        sub, target = hom_vars(2, 3)
        for j in (0, 7, -1):
            with pytest.raises(ValueError) as info:
                hom_flag_chern(sub, target, j)
            assert str(info.value) == f"j must satisfy 1 <= j <= 6, got {j}"
        with pytest.raises(ValueError) as info:
            hom_flag_chern([], target, 1)
        assert str(info.value) == "j must satisfy 1 <= j <= 0, got 1"

    def test_clashing_names_rejected_before_j(self):
        s1 = Variable("s1")
        with pytest.raises(ValueError, match="duplicate variable names"):
            hom_flag_chern([s1], [s1], 5)
