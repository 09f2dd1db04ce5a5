"""Characteristic classes of projectivized bundles by Chern-root calculus.

Everything here reduces to exact identities between symmetric functions of
formal Chern roots x_1..x_n.  The classes unchanged by the twist
x_i -> x_i + d (tensoring with a line bundle) form a polynomial algebra on
canonical generators: the elementary symmetric functions z_k of the
difference roots y_i = n*x_i - (x_1 + ... + x_n).

One identity does the work: the twist x_i -> x_i + f sends c_k to
sum_i C(n-i, k-i) * c_i * f^(k-i).  The roots n*x_i have classes n^i*c_i,
and twisting them by f = -c_1 gives the y_i, so every z_k(c) is that sum
over the integers, written out term by term with no product, and
z_1 = e_1(y) = 0.  Each rank's `ChernRing` keeps that one map.  Classes
are plain polynomials over `ChernRing.c_ring` or `ChernRing.z_ring`.  The
f-derivative of that map at f = 0 is the derivation D c_k = (n-k+1) c_{k-1}
with c_0 = 1 (Cayley's Omega), and the twist is exp(f*D), so a class p is
invariant exactly when D p = 0; on packed keys D is key arithmetic.  An
invariant p equals its value at c_1 = 0, c_k = z_k/n^k: its normal form in
the z_k, read off the c_1-free terms of p, each divided by n^w for its own
weight w.  That is exact term by term, since twisting keeps every term's
weight, so p need not be homogeneous.  Each normal form is checked at the
integer roots x_i = i^2.
Twisting the y_i back by +c_1 gives a_k = P + lambda * c_k in closed form.

The classes of the endomorphism bundle End are twist-invariant too, so
they are computed from the y_i with no root ring: Newton's identities give
the power sums p_m of the y_i from e_1 = 0, e_k = z_k; the roots
y_a - y_b = n*(x_a - x_b) have power sums
sum_i (-1)^(m-i) C(m,i) p_i p_{m-i}; Newton's identities turn those back
into n^j * c_j(End) in the z_k, with a checked division by j.  Those stay
integral, are checked at fixed integer roots, and each answer divides by
n^j once, `end_chern` after expanding through z_k(c).  Whether they generate
has a closed form as well: End is self-dual, so its odd classes vanish and
no product of End classes reaches z_3.  Hom bundles of flags take all e_j
of their root differences at once, cached per pair of root sets.  The
module also enumerates generator catalogs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, Mapping, NamedTuple, Sequence

# linear_solve and express_in_elementary have no caller here, but they stay
# bound, like elementary_symmetric_all: perfbench/layers.py wraps each of the
# three at its qpoly and at its projclass attribute, and a missing one fails
# `--trace 1` with a KeyError; `selftest` calls the qpoly ones
from .qpoly import (
    RationalPoly,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    _evaluate_all,
    _evaluate_plan,
    _plan,
    _rung,
    first_difference,
    linear_combination,
    linear_solve,
    make_ring,
)
from .univdet import ParabolicDatum

__all__ = [
    "ChernRing",
    "ReductionData",
    "chern_ring",
    "twist",
    "z_basis",
    "is_shift_invariant",
    "rewrite_in_z",
    "express_in_z",
    "lambda_p",
    "a_classes",
    "end_chern",
    "end_in_a",
    "surjectivity_witness",
    "hom_flag_chern",
    "generator_catalog",
]


class ChernRing:
    """Symbol table for a fixed rank: classes c_i and generators z_k.

    Built once per rank: each z_k in the c_i, with integer coefficients.
    Immutable; it equals and hashes as (rank,).
    """

    def __init__(self, rank: int) -> None:
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ChernRing:
            return NotImplemented
        return self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.rank,))

    def __repr__(self) -> str:
        return f"ChernRing(rank={self.rank!r})"

    @cached_property
    def c_ring(self) -> tuple[Variable, ...]:
        return tuple(Variable(f"c{i}", i) for i in range(1, self.rank + 1))

    @cached_property
    def z_ring(self) -> tuple[Variable, ...]:
        return tuple(Variable(f"z{k}", k) for k in range(2, self.rank + 1))

    @cached_property
    def _z_in_c(self) -> Mapping[Variable, RationalPoly]:
        # the roots n*x_i have classes n^i*c_i; twisting them by -c1 gives y_i:
        # z_k = sum_i C(n-i, k-i) (-1)^(k-i) n^i c1^(k-i) c_i with c_0 = 1,
        # where the i = 0 and i = 1 terms share the key c1^k, with coefficient
        # (-1)^k (C(n,k) - n C(n-1,k-1)) = (-1)^k (1-k) C(n,k).  Each key packs
        # k in its top field, the c1 exponent below it and the exponent 1 of
        # c_i in field n - i, counted from the bottom.
        n = self.rank
        out = {}
        for k, z in enumerate(self.z_ring, 2):
            width = _rung(k)
            c1_key = k << n * width
            terms = {c1_key + (k << (n - 1) * width): (1 - k) * (-1) ** k * math.comb(n, k)}
            for i in range(2, k + 1):
                key = c1_key + ((k - i) << (n - 1) * width) + (1 << (n - i) * width)
                terms[key] = math.comb(n - i, k - i) * (-1) ** (k - i) * n**i
            out[z] = RationalPoly._packed(self.c_ring, width, terms)
        return out

    @cached_property
    def _z_plan(self) -> tuple:
        """The evaluation plan of every z_k(c), for `_a_classes_of`."""
        return _plan([*self._z_in_c.values()])

    @cached_property
    def _root_values(self) -> tuple[list[int], list[int]]:
        """c_1..c_n at the roots x_i = i^2 and z_2..z_n at their y_i = n*x_i - sum(x)."""
        xs = [i * i for i in range(1, self.rank + 1)]
        ys = [self.rank * x - sum(xs) for x in xs]
        return elementary_symmetric_all(xs, 1)[1:], elementary_symmetric_all(ys, 1)[2:]


@lru_cache(maxsize=None)
def chern_ring(rank: int) -> ChernRing:
    return ChernRing(rank)


class ReductionData(NamedTuple):
    """Reduction identity a_k = P + lambda * c_k for rank n.

    lambda is nonzero and P involves only c_1 and a_2..a_{k-1}, so the
    identity lets c_k be rewritten in terms of canonical classes and c_1.
    """

    n: int
    k: int
    lam: int
    P: RationalPoly


# -- canonical generators ------------------------------------------------------


def twist(values: Sequence[Any], f: Any, one: Any) -> list[Any]:
    """Chern classes c'_1..c'_n after the twist x_i -> x_i + f of the roots.

    values holds c_1..c_n in any commutative coefficient ring supporting +,
    * and integer multiples; one is its unit.  The closed form is
    c'_k = sum_{i=0..k} C(n-i, k-i) * c_i * f^(k-i) with c_0 = one: each
    c'_k is one `linear_combination` into c_k of the products c_i * f^(k-i)
    and f^k, so a rank-n list costs n-1 powers of f, n(n-1)/2 products and
    n sums, and no value is changed.
    """
    n = len(values)
    powers = [one, f]
    for _ in range(2, n + 1):
        powers.append(powers[-1] * f)
    out = []
    for k in range(1, n + 1):
        pairs = [(math.comb(n - i, k - i), values[i - 1] * powers[k - i]) for i in range(1, k)]
        out.append(linear_combination([*pairs, (math.comb(n, k), powers[k])], values[k - 1]))
    return out


def z_basis(ring: ChernRing, k: int) -> RationalPoly:
    """The k-th canonical generator e_k(y), rewritten in c_1..c_n (weight k)."""
    if not 2 <= k <= ring.rank:
        raise ValueError(f"k must satisfy 2 <= k <= {ring.rank}, got {k}")
    return ring._z_in_c[ring.z_ring[k - 2]]


def _cayley_omega(ring: ChernRing, poly: RationalPoly) -> RationalPoly:
    """D p for the derivation D c_k = (n-k+1) c_{k-1}, c_0 = 1, whose kernel is
    the twist-invariant classes; p must be over `ring.c_ring`.

    A term with coefficient a and exponent e_k > 0 of c_k goes to the key
    one lower in the weight field and in field k, and one higher in field
    k-1 when k > 1, with coefficient a * e_k * (n-k+1).
    """
    if poly.ring != ring.c_ring:
        raise ValueError("polynomial is not over the Chern-class ring")
    n, width, unpack = ring.rank, poly._width, poly._unpack()
    weight = 1 << n * width
    steps = [weight + (1 << (n - 1) * width)]  # c_1 -> c_0 = 1
    for k in range(2, n + 1):  # c_k -> c_{k-1}
        steps.append(weight + (1 << (n - k) * width) - (1 << (n - k + 1) * width))
    acc: dict = {}
    get = acc.get
    for key, c in poly.terms.items():
        for k, (step, e) in enumerate(zip(steps, unpack(key)[1:])):
            if e:
                new, coef = key - step, c * e * (n - k)
                old = get(new)
                acc[new] = coef if old is None else old + coef
    return RationalPoly._packed(ring.c_ring, width, acc)


def _at_roots(poly: RationalPoly, values: Sequence[int]) -> tuple[int, int]:
    """poly at integer values, one per variable, as (numerator, denominator)."""
    unpack = poly._unpack()
    den = math.lcm(*[c.denominator for c in poly.terms.values()])
    num = 0
    for key, c in poly.terms.items():
        term = c.numerator * (den // c.denominator)
        for v, e in zip(values, unpack(key)[1:]):
            if e:
                term *= v**e
        num += term
    return num, den


def rewrite_in_z(ring: ChernRing, poly: RationalPoly) -> RationalPoly | None:
    """The class in the canonical z-generators, or None if it is not twist-invariant.

    The class is invariant exactly when D p = 0 (`_cayley_omega`).  Then it
    equals its value at c_1 = 0, c_k = z_k/n^k: each c_1-free term of weight
    w, read as a z-monomial and divided by n^w.  Twisting keeps every term's
    weight, so this normal form is exact term by term and the class need not
    be homogeneous.  The normal form q is checked against the class at the
    roots x_i = i^2: p(e(x)) = q(e(y)), in integers; a mismatch raises
    RuntimeError naming n and the class's first term.
    """
    if not _cayley_omega(ring, poly).is_zero():
        return None
    # a c1-free key (w, 0, e_2..e_n) becomes the z-key (w, e_2..e_n)
    n, width = ring.rank, poly._width
    low = (n - 1) * width  # the bits of e_2..e_n
    terms = {}
    for key, c in poly.terms.items():
        weight, c1 = key >> low + width, key >> low & (1 << width) - 1
        if not c1:
            terms[weight << low | key & (1 << low) - 1] = Fraction(c, n**weight)
    q = RationalPoly._packed(ring.z_ring, width, terms)
    c_values, z_values = ring._root_values
    (p_num, p_den), (q_num, q_den) = _at_roots(poly, c_values), _at_roots(q, z_values)
    if p_num * q_den != q_num * p_den:
        first = poly._ordered_keys()[0]
        raise RuntimeError(
            f"z-rewrite for rank n={n} failed its root check at x_i = i^2:"
            f" {Fraction(p_num, p_den)} from the class against {Fraction(q_num, q_den)}"
            f" from its z-form; first term {poly._term_text(first, poly.terms[first])}"
        )
    return q


def is_shift_invariant(ring: ChernRing, poly: RationalPoly) -> bool:
    """True iff the class is unchanged by twisting with a formal line bundle: D p = 0."""
    return _cayley_omega(ring, poly).is_zero()


def express_in_z(ring: ChernRing, poly: RationalPoly) -> RationalPoly:
    """Rewrite a shift-invariant class in the canonical z-generators.

    The rewrite is the checked twist normal form of `rewrite_in_z`; a class
    with D p != 0 is not invariant.
    """
    out = rewrite_in_z(ring, poly)
    if out is None:
        raise ValueError("expression is not shift-invariant")
    return out


# -- reduction identity ---------------------------------------------------------


def _a_var(i: int) -> Variable:
    return Variable(f"a{i}", i)


def lambda_p(n: int, k: int) -> ReductionData:
    """Reduction data (lambda, P) with e_k(y) = P(c_1, a_2..a_{k-1}) + lambda*c_k.

    Twisting the difference roots y_i back by +c_1 gives the roots n*x_i,
    whose k-th class is n^k * c_k, which gives lambda = n^k and
    P = -sum_{i in {0, 2..k-1}} C(n-i, k-i) * c_1^(k-i) * a_i with a_0 = 1.
    The identity is re-checked in the Chern-class ring.
    """
    ring = chern_ring(n)  # rejects a non-positive rank before k is checked
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    c1_var = ring.c_ring[0]
    a_vars = tuple(_a_var(i) for i in range(2, k))
    p_ring = make_ring(c1_var, *a_vars)
    c1 = RationalPoly.gen(p_ring, c1_var)
    P = -math.comb(n, k) * c1**k
    for i, a in enumerate(a_vars, start=2):
        P = P - math.comb(n - i, k - i) * c1 ** (k - i) * RationalPoly.gen(p_ring, a)
    lam = n**k
    bindings = {c1_var: RationalPoly.gen(ring.c_ring, c1_var)}
    bindings.update(zip(a_vars, ring._z_in_c.values()))
    ck = RationalPoly.gen(ring.c_ring, ring.c_ring[k - 1])
    lhs = P.substitute(bindings, target_ring=ring.c_ring) + lam * ck
    zk = ring._z_in_c[ring.z_ring[k - 2]]
    if lhs != zk:
        raise RuntimeError(
            f"reduction identity for (n={n}, k={k}) failed verification;"
            f" first differing term {first_difference(lhs, zk)}"
        )
    return ReductionData(n, k, lam, P)


# -- evaluation in coefficient rings --------------------------------------------


def _coefficient_degree(value: Any) -> int | None:
    # plain numbers have no degree and act as ungraded scalars
    probe = getattr(value, "cohomological_degree", None)
    return probe() if callable(probe) else None


def a_classes(
    rank: int, chern_values: Sequence[Any], zero: Any = Fraction(0)
) -> list[Any]:
    """Evaluate the canonical classes a_2..a_rank at given Chern values.

    Values may live in any commutative coefficient ring supporting +, *,
    integer powers and multiplication by Fraction; the value for c_i must be
    homogeneous of degree 2i when it has a `cohomological_degree()`, as every
    graded type of the package has.  Missing trailing values are zero.  Rank 1
    has no canonical classes.

    All the z_k(c) of the rank's `ChernRing` are evaluated over one power
    table: power 1 is the value, and power e is power e-1 times the value
    when power e-1 is at hand, else value ** e.  A z_k term is c_1^a times
    at most one c_i (i >= 2), and c_1^2..c_1^n are all used, so a call makes
    n(n-1)/2 products in the coefficient ring: n-1 for the powers of c_1 and
    one per term c_1^a * c_i.  Each a_k is one `linear_combination`.

    Every value's degree is checked here.  A caller that has already checked
    exactly `rank` values, as `surfalg.canonicality_check` has, evaluates
    through the trusted entry `_a_classes_of` instead.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    values = list(chern_values)
    if len(values) > rank:
        raise ValueError(f"got {len(values)} Chern values for rank {rank}")
    values += [zero] * (rank - len(values))
    for i, v in enumerate(values, start=1):
        try:
            deg = _coefficient_degree(v)
        except ValueError as exc:  # "not homogeneous: ..."
            raise ValueError(f"value for c{i} is {exc}") from None
        if deg is not None and deg != 2 * i:
            raise ValueError(f"value for c{i} has degree {deg}, expected {2 * i}")
    return _a_classes_of(rank, values, zero)


def _a_classes_of(rank: int, values: Sequence[Any], zero: Any) -> list[Any]:
    """a_2..a_rank at exactly `rank` Chern values, trusted to have degrees 2i.

    The rank's `ChernRing` keeps the plan of its z_k(c), so no key is
    unpacked after the first call at a rank.
    """
    return _evaluate_plan(chern_ring(rank)._z_plan, values, zero)


# -- endomorphism and Hom bundles -----------------------------------------------


def _y_power_sums(n: int) -> list[RationalPoly]:
    """p_0..p_{n^2} of the difference roots y_i, in the z_k.

    Their elementary classes are e_1 = 0 and e_k = z_k; Newton's identities
    p_m = sum_{i=1..m-1} (-1)^(i-1) e_i p_{m-i} + (-1)^(m-1) m e_m give the
    power sums, with p_0 = n and e_k = 0 for k > n.  Each p_m is one
    `linear_combination` of the products e_i * p_{m-i} (i >= 2, as e_1 = 0)
    and e_m.
    """
    ring = chern_ring(n)
    zero = RationalPoly.zero(ring.z_ring)
    z = [RationalPoly.gen(ring.z_ring, v) for v in ring.z_ring]
    e = [RationalPoly.const(ring.z_ring, 1), zero, *z] + [zero] * (n * n - n)
    p = [RationalPoly.const(ring.z_ring, n)]
    for m in range(1, n * n + 1):
        pairs = [((-1) ** (i - 1), e[i] * p[m - i]) for i in range(2, min(m - 1, n) + 1)]
        p.append(linear_combination([*pairs, ((-1) ** (m - 1) * m, e[m])], zero))
    return p


def _check_end_classes(n: int, es: Sequence[RationalPoly]) -> None:
    """Evaluate each n^j * e_j(End) at the roots x_i = i^2 against a direct count.

    The z-values are e_k of the difference roots y_i = n*x_i - sum(x); the
    reference is e_j of the n^2 integers y_a - y_b = n*(x_a - x_b).
    """
    roots = [i * i for i in range(n)]
    ys = [n * x - sum(roots) for x in roots]
    zs = elementary_symmetric_all(ys, 1)[2:]
    expected = elementary_symmetric_all([a - b for a in ys for b in ys], 1)
    for j, got in enumerate(_evaluate_all(es[1:], zs, 0), start=1):
        if got != expected[j]:
            raise RuntimeError(
                f"End class c_{j} for rank n={n} failed its root check at x_i = i^2:"
                f" {got} from the power sums against {expected[j]} from the roots,"
                f" both scaled by {n}^{j}"
            )


def _divide_exactly(n: int, j: int, acc: RationalPoly) -> RationalPoly:
    """acc / j, where acc = j * e_j must have every coefficient divisible by j.

    Raises RuntimeError naming n, j and the first term, in term order, that
    j does not divide: the integral power sums were then wrong.
    """
    terms = acc.terms
    if any(c % j for c in terms.values()):
        exps = next(e for e in acc._ordered_keys() if terms[e] % j)
        raise RuntimeError(
            f"End class c_{j} for rank n={n}: the term {acc._term_text(exps, terms[exps])}"
            f" of {j}*e_{j} is not divisible by {j}"
        )
    return acc._make({e: c // j for e, c in terms.items()})


@lru_cache(maxsize=None)
def _end_classes(n: int) -> tuple[RationalPoly, ...]:
    """n^j * c_j(End) for j = 0..n^2, in the z_k with integer coefficients.

    The roots y_a - y_b = n*(x_a - x_b) have power sums
    P_m = sum_i (-1)^(m-i) C(m,i) p_i p_{m-i} of the y-power sums p_i, zero
    for odd m, and Newton's identities j*e_j = sum_{i=1..j} (-1)^(i-1)
    e_{j-i} P_i turn them back into their elementary classes n^j * c_j(End),
    so the odd classes vanish too.  Step j (even) sums P_j, then j*e_j from
    P_2..P_j, each with one `linear_combination` of its products.  The
    division by j is exact over Z and checked; the division by n^j is left
    to each answer.
    """
    ring = chern_ring(n)
    zero = RationalPoly.zero(ring.z_ring)
    p = _y_power_sums(n)
    P = [zero] * (n * n + 1)
    es = [RationalPoly.const(ring.z_ring, 1)] + [zero] * (n * n)
    for j in range(2, n * n + 1, 2):
        pairs = [(2 * (-1) ** i * math.comb(j, i), p[i] * p[j - i]) for i in range(j // 2)]
        square = ((-1) ** (j // 2) * math.comb(j, j // 2), p[j // 2] ** 2)
        P[j] = linear_combination([*pairs, square], zero)
        acc = linear_combination([(-1, es[j - i] * P[i]) for i in range(2, j + 1, 2)], zero)
        es[j] = _divide_exactly(n, j, acc)
    _check_end_classes(n, es)
    return tuple(es)


def _end_ring(n: int, j: int) -> ChernRing:
    ring = chern_ring(n)  # rejects a non-positive rank before j is checked
    if not 1 <= j <= n * n:
        raise ValueError(f"j must satisfy 1 <= j <= {n * n}, got {j}")
    return ring


def end_chern(n: int, j: int) -> RationalPoly:
    """c_j of the endomorphism bundle: e_j of the n^2 differences x_a - x_b.

    The cached n^j * c_j(End) expands through z_k(c), then divides by n^j once.
    """
    ring = _end_ring(n, j)
    return _end_classes(n)[j].substitute(ring._z_in_c, target_ring=ring.c_ring) / n**j


def end_in_a(n: int, j: int) -> RationalPoly:
    """c_j(End) in the canonical z-generators: the cached n^j * c_j(End) / n^j."""
    _end_ring(n, j)
    return _end_classes(n)[j] / n**j


def surjectivity_witness(n: int) -> bool:
    """True iff some generator z_k escapes the span of endomorphism classes.

    The answer is n >= 3, in closed form.  End E is self-dual
    (End E = E (x) E^* is its own dual), so c_j(End) = (-1)^j c_j(End) and
    every odd class vanishes rationally.  Every product of End classes
    therefore has even weight, and for n >= 3 the weight-3 generator z_3
    lies outside their span.  At n = 2 the only generator is
    z_2 = c_2(End) (`end_in_a(2, 2)` is 1*z2), so nothing escapes: this is
    Newstead's rank-2 case.  No End class is built.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    return n >= 3


@lru_cache(maxsize=None)
def _hom_esp(
    sub_roots: tuple[Variable, ...], target_roots: tuple[Variable, ...]
) -> tuple[RationalPoly, ...]:
    ring = make_ring(*sub_roots, *target_roots)
    s_gens = [RationalPoly.gen(ring, v) for v in sub_roots]
    t_gens = [RationalPoly.gen(ring, v) for v in target_roots]
    roots = [t - s for s in s_gens for t in t_gens]
    return tuple(elementary_symmetric_all(roots, RationalPoly.const(ring, 1)))


def hom_flag_chern(
    sub_roots: Sequence[Variable], target_roots: Sequence[Variable], j: int
) -> RationalPoly:
    """c_j of a Hom bundle: e_j of the pairwise differences t_b - s_a.

    All e_j of one pair of root sets are computed together and cached.
    """
    sub, target = tuple(sub_roots), tuple(target_roots)
    make_ring(*sub, *target)  # rejects clashing names before j is checked
    total = len(sub) * len(target)
    if not 1 <= j <= total:
        raise ValueError(f"j must satisfy 1 <= j <= {total}, got {j}")
    return _hom_esp(sub, target)[j]


# -- generator catalogs ----------------------------------------------------------


def _h1_basis_names(genus: int) -> list[str]:
    return [f"a{i}" for i in range(1, genus + 1)] + [
        f"b{i}" for i in range(1, genus + 1)
    ]


def generator_catalog(
    n: int, genus: int, datum: ParabolicDatum, fixed_det: bool
) -> list[tuple[str, int]]:
    """Enumerate generator descriptors with their cohomological degrees.

    Per marked point and adjacent flag pair (i, i-1): Chern classes of the
    Hom bundle, degrees 2j for j up to the product of the two block
    multiplicities.  Without fixed determinant: the first Chern class
    slanted along each 1-cycle, degree 1.  Always: each canonical class
    a_i (2 <= i <= n) slanted along homology of degree r = 0, 1, 2, giving
    degree 2i - r.
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    datum.validate(n)
    out: list[tuple[str, int]] = []
    for point in datum.points:
        ms = point.multiplicities
        for i in range(2, len(ms) + 1):
            for j in range(1, ms[i - 1] * ms[i - 2] + 1):
                out.append(
                    (
                        f"c{j}(Hom(U[{point.label},{i}],U[{point.label},{i - 1}]))",
                        2 * j,
                    )
                )
    h1 = _h1_basis_names(genus)
    if not fixed_det:
        for name in h1:
            out.append((f"sigma(c1(U))/{name}", 1))
    for i in range(2, n + 1):
        out.append((f"sigma(a{i}(P(U)))/[x0]", 2 * i))
        for name in h1:
            out.append((f"sigma(a{i}(P(U)))/{name}", 2 * i - 1))
        out.append((f"sigma(a{i}(P(U)))/[X]", 2 * i - 2))
    return out
