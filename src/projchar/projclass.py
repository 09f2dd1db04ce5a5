"""Characteristic classes of projectivized bundles by Chern-root calculus.

Everything here reduces to exact identities between symmetric functions of
formal Chern roots x_1..x_n.  The classes unchanged by the twist
x_i -> x_i + d (tensoring with a line bundle) form a polynomial algebra on
canonical generators: the elementary symmetric functions z_k of the
difference roots y_i = n*x_i - (x_1 + ... + x_n).

One identity does the work: the twist x_i -> x_i + f sends c_k to
sum_i C(n-i, k-i) * c_i * f^(k-i).  The roots n*x_i have classes n^i*c_i,
and twisting them by f = -c_1 gives the y_i, so one twist over the
integers gives every z_k(c), with z_1 = e_1(y) = 0.  Each rank's
`ChernRing` keeps that one map.  A twist-invariant class p of weight w
equals its value at c_1 = 0, c_k = z_k/n^k, which is
n^-w * p(0, z_2, ..., z_n): its normal form in the z_k, read off the
c_1-free terms of p.  p is invariant exactly when that normal form,
expanded back through z_k(c), returns p.  Twisting the y_i back by +c_1
gives a_k = P + lambda * c_k in closed form.

The classes of the endomorphism bundle End are twist-invariant too, so
they are computed from the y_i with no root ring: Newton's identities give
the power sums p_m of the y_i from e_1 = 0, e_k = z_k; the roots
y_a - y_b = n*(x_a - x_b) have power sums
sum_i (-1)^(m-i) C(m,i) p_i p_{m-i}; Newton's identities turn those back
into n^j * c_j(End) in the z_k, and one division by n^j at the end gives
c_j(End), which expands once through z_k(c) into the c_i.  Each rank's
classes are spot-checked at fixed integer roots.  Whether they generate
has a closed form as well: End is self-dual, so its odd classes vanish and
no product of End classes reaches z_3.  Hom bundles of flags take all e_j
of their root differences at once, cached per pair of root sets.  The
module also enumerates generator catalogs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, Mapping, Sequence

# linear_solve and express_in_elementary have no caller here, but they stay
# bound, like elementary_symmetric_all: perfbench/layers.py wraps each of the
# three at its qpoly and at its projclass attribute, and a missing one fails
# `--trace 1` with a KeyError; `selftest` calls the qpoly ones
from .qpoly import (
    RationalPoly,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    first_difference,
    linear_solve,
    make_ring,
)
from .univdet import ParabolicDatum

__all__ = [
    "ChernRing",
    "ChernExpression",
    "AClassExpression",
    "ReductionData",
    "chern_ring",
    "twist",
    "z_basis",
    "is_shift_invariant",
    "rewrite_in_z",
    "express_in_z",
    "express_c_poly_in_z",
    "lambda_p",
    "a_classes",
    "end_chern",
    "end_in_a",
    "surjectivity_witness",
    "hom_flag_chern",
    "generator_catalog",
]


@dataclass(frozen=True)
class ChernRing:
    """Symbol table for a fixed rank: classes c_i and generators z_k.

    Built once per rank: each z_k in the c_i, with integer coefficients.
    """

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")

    @cached_property
    def chern_vars(self) -> tuple[Variable, ...]:
        return tuple(Variable(f"c{i}", i) for i in range(1, self.rank + 1))

    @cached_property
    def z_vars(self) -> tuple[Variable, ...]:
        return tuple(Variable(f"z{k}", k) for k in range(2, self.rank + 1))

    @cached_property
    def c_ring(self) -> tuple[Variable, ...]:
        return make_ring(*self.chern_vars)

    @cached_property
    def z_ring(self) -> tuple[Variable, ...]:
        return make_ring(*self.z_vars)

    @cached_property
    def _z_in_c(self) -> Mapping[Variable, RationalPoly]:
        # the roots n*x_i have classes n^i*c_i; twisting them by -c1 gives y_i
        n, ring = self.rank, self.c_ring
        c = [RationalPoly.gen(ring, v) for v in self.chern_vars]
        scaled = [n**i * ci for i, ci in enumerate(c, 1)]
        one = RationalPoly.const(ring, 1)
        return dict(zip(self.z_vars, twist(scaled, -c[0], one)[1:]))


@lru_cache(maxsize=None)
def chern_ring(rank: int) -> ChernRing:
    return ChernRing(rank)


@dataclass(frozen=True)
class ChernExpression:
    """Homogeneous polynomial in c_1..c_n, graded by weight(c_i) = i."""

    ring: ChernRing
    poly: RationalPoly
    weight: int

    def __post_init__(self) -> None:
        if self.poly.ring != self.ring.c_ring:
            raise ValueError("polynomial is not over the Chern-class ring")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        w = self.poly.homogeneous_weight()
        if w is not None and w != self.weight:
            raise ValueError(f"polynomial has weight {w}, declared {self.weight}")

    def to_text(self) -> str:
        return self.poly.to_text()


@dataclass(frozen=True)
class AClassExpression:
    """Polynomial in the canonical generators z_2..z_n, homogeneous by weight."""

    ring: ChernRing
    poly: RationalPoly

    def __post_init__(self) -> None:
        if self.poly.ring != self.ring.z_ring:
            raise ValueError("polynomial is not over the z-generator ring")
        self.poly.homogeneous_weight()  # raises if mixed

    @property
    def weight(self) -> int | None:
        return self.poly.homogeneous_weight()

    def to_text(self) -> str:
        return self.poly.to_text()


@dataclass(frozen=True)
class ReductionData:
    """Reduction identity a_k = P + lambda * c_k for rank n.

    lambda is nonzero and P involves only c_1 and a_2..a_{k-1}, so the
    identity lets c_k be rewritten in terms of canonical classes and c_1.
    """

    n: int
    k: int
    lam: Fraction
    P: RationalPoly


# -- canonical generators ------------------------------------------------------


def twist(values: Sequence[Any], f: Any, one: Any) -> list[Any]:
    """Chern classes c'_1..c'_n after the twist x_i -> x_i + f of the roots.

    values holds c_1..c_n in any commutative coefficient ring supporting +,
    * and integer multiples; one is its unit.  The closed form is
    c'_k = sum_{i=0..k} C(n-i, k-i) * c_i * f^(k-i) with c_0 = one.
    """
    n = len(values)
    powers = [one, f]
    for _ in range(2, n + 1):
        powers.append(powers[-1] * f)
    out = []
    for k in range(1, n + 1):
        acc = math.comb(n, k) * powers[k]
        for i in range(1, k):
            acc = acc + math.comb(n - i, k - i) * values[i - 1] * powers[k - i]
        out.append(acc + values[k - 1])
    return out


def z_basis(ring: ChernRing, k: int) -> ChernExpression:
    """The k-th canonical generator e_k(y), rewritten in c_1..c_n (weight k)."""
    if not 2 <= k <= ring.rank:
        raise ValueError(f"k must satisfy 2 <= k <= {ring.rank}, got {k}")
    return ChernExpression(ring, ring._z_in_c[ring.z_vars[k - 2]], k)


def rewrite_in_z(expr: ChernExpression) -> AClassExpression | None:
    """The class in the canonical z-generators, or None if it is not twist-invariant.

    A twist-invariant class of weight w equals its value at c_1 = 0,
    c_k = z_k/n^k, and that value is n^-w * p(0, z_2, ..., z_n): the
    c_1-free terms of the class, read as z-monomials and divided by n^w.
    Every polynomial in the z_k is invariant, so the class is invariant
    exactly when this normal form expanded back through z_k(c) gives the
    class again.
    """
    ring = expr.ring
    scale = ring.rank**expr.weight
    q = RationalPoly(
        ring.z_ring,
        {e[1:]: Fraction(c, scale) for e, c in expr.poly.terms.items() if not e[0]},
    )
    if q.substitute(ring._z_in_c, target_ring=ring.c_ring) != expr.poly:
        return None
    return AClassExpression(ring, q)


def is_shift_invariant(expr: ChernExpression) -> bool:
    """True iff the class is unchanged by twisting with a formal line bundle."""
    return rewrite_in_z(expr) is not None


def express_in_z(expr: ChernExpression) -> AClassExpression:
    """Rewrite a shift-invariant class in the canonical z-generators.

    The rewrite is the twist normal form of `rewrite_in_z`, checked by
    expanding it back; a class that fails that check is not invariant.
    """
    out = rewrite_in_z(expr)
    if out is None:
        raise ValueError("expression is not shift-invariant")
    return out


def express_c_poly_in_z(ring: ChernRing, poly: RationalPoly) -> RationalPoly:
    """Per-weight z-rewrite of a possibly inhomogeneous shift-invariant polynomial."""
    out = RationalPoly.zero(ring.z_ring)
    for w, comp in poly.homogeneous_components().items():
        out = out + express_in_z(ChernExpression(ring, comp, w)).poly
    return out


# -- reduction identity ---------------------------------------------------------


def _a_var(i: int) -> Variable:
    return Variable(f"a{i}", i)


@lru_cache(maxsize=None)
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
    c1_var = ring.chern_vars[0]
    a_vars = tuple(_a_var(i) for i in range(2, k))
    p_ring = make_ring(c1_var, *a_vars)
    c1 = RationalPoly.gen(p_ring, c1_var)
    P = -math.comb(n, k) * c1**k
    for i, a in enumerate(a_vars, start=2):
        P = P - math.comb(n - i, k - i) * c1 ** (k - i) * RationalPoly.gen(p_ring, a)
    lam = Fraction(n) ** k
    bindings = {c1_var: RationalPoly.gen(ring.c_ring, c1_var)}
    bindings.update(zip(a_vars, ring._z_in_c.values()))
    ck = RationalPoly.gen(ring.c_ring, ring.chern_vars[k - 1])
    lhs = P.substitute(bindings, target_ring=ring.c_ring) + lam * ck
    zk = ring._z_in_c[ring.z_vars[k - 2]]
    if lhs != zk:
        raise RuntimeError(
            f"reduction identity for (n={n}, k={k}) failed verification;"
            f" first differing term {first_difference(lhs, zk)}"
        )
    return ReductionData(n, k, lam, P)


# -- evaluation in coefficient rings --------------------------------------------


def _coefficient_degree(value: Any) -> int | None:
    # plain numbers act as ungraded scalars; only graded values are checked
    if isinstance(value, (int, Fraction)):
        return None
    probe = getattr(value, "cohomological_degree", None)
    return probe() if callable(probe) else None


def a_classes(
    rank: int, chern_values: Sequence[Any], zero: Any = Fraction(0)
) -> list[Any]:
    """Evaluate the canonical classes a_2..a_rank at given Chern values.

    Values may live in any commutative coefficient ring supporting +, *,
    integer powers and multiplication by Fraction; the value for c_i must be
    homogeneous of degree 2i when its degree is observable.  Missing
    trailing values are zero.  Rank 1 has no canonical classes.

    Each a_k is z_k(c) read from the rank's `ChernRing`, whose every term
    is an integer times c_1^a and at most one c_i (i >= 2) to the first
    power.  The powers c_1^2..c_1^n are built once, by successive products,
    and shared by all the z_k, so a call makes n(n-1)/2 products in the
    coefficient ring: n-1 for the powers and one per term c_1^a * c_i.

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
    """a_2..a_rank at exactly `rank` Chern values, trusted to have degrees 2i."""
    c1_powers = [None, values[0]]
    for _ in range(2, rank + 1):
        c1_powers.append(c1_powers[-1] * values[0])
    out = []
    for z in chern_ring(rank)._z_in_c.values():
        total = zero
        for exps, coef in z.terms.items():
            factor = c1_powers[exps[0]]
            for value, e in zip(values[1:], exps[1:]):
                if e:
                    piece = value**e
                    factor = piece if factor is None else factor * piece
            total = total + coef * factor
        out.append(total)
    return out


# -- endomorphism and Hom bundles -----------------------------------------------


def _y_power_sums(n: int) -> list[RationalPoly]:
    """p_0..p_{n^2} of the difference roots y_i, in the z_k.

    Their elementary classes are e_1 = 0 and e_k = z_k; Newton's identities
    p_m = sum_{i=1..m-1} (-1)^(i-1) e_i p_{m-i} + (-1)^(m-1) m e_m give the
    power sums, with p_0 = n and e_k = 0 for k > n.
    """
    ring = chern_ring(n)
    zero = RationalPoly.zero(ring.z_ring)
    z = [RationalPoly.gen(ring.z_ring, v) for v in ring.z_vars]
    e = [RationalPoly.const(ring.z_ring, 1), zero, *z]
    p = [RationalPoly.const(ring.z_ring, n)]
    for m in range(1, n * n + 1):
        acc = (-1) ** (m - 1) * m * e[m] if m <= n else zero
        for i in range(2, min(m - 1, n) + 1):
            acc = acc + (-1) ** (i - 1) * e[i] * p[m - i]
        p.append(acc)
    return p


def _fraction_esp(values: Sequence[Fraction]) -> list[Fraction]:
    es = [Fraction(1)] + [Fraction(0)] * len(values)
    for count, v in enumerate(values, start=1):
        for k in range(count, 0, -1):
            es[k] += v * es[k - 1]
    return es


def _check_end_classes(n: int, es: Sequence[RationalPoly]) -> None:
    """Evaluate each e_j(End) at the roots x_i = i^2 against a direct count.

    The z-values are e_k of the difference roots y_i = n*x_i - sum(x); the
    reference is e_j of the n^2 root differences x_a - x_b in Fraction.
    """
    roots = [Fraction(i * i) for i in range(n)]
    ys = [n * x - sum(roots) for x in roots]
    z_values = dict(zip(chern_ring(n).z_vars, _fraction_esp(ys)[2:]))
    expected = _fraction_esp([a - b for a in roots for b in roots])
    for j in range(1, n * n + 1):
        got = es[j].evaluate(z_values)
        if got != expected[j]:
            raise RuntimeError(
                f"End class c_{j} for rank n={n} failed its root check at x_i = i^2:"
                f" {got} from the power sums against {expected[j]} from the roots"
            )


@lru_cache(maxsize=None)
def _end_classes(n: int) -> tuple[RationalPoly, ...]:
    """e_0..e_{n^2} of End, in the z_k, by power sums of the y_i.

    The roots y_a - y_b = n*(x_a - x_b) have power sums
    P_m = sum_i (-1)^(m-i) C(m,i) p_i p_{m-i}, zero for odd m, and Newton's
    identities j*e_j = sum_{i=1..j} (-1)^(i-1) e_{j-i} P_i turn them back
    into their elementary classes n^j * c_j(End), so the odd classes vanish
    too.  Each is divided by n^j once, at the end.
    """
    ring = chern_ring(n)
    zero = RationalPoly.zero(ring.z_ring)
    p = _y_power_sums(n)
    P = [zero] * (n * n + 1)
    for m in range(2, n * n + 1, 2):
        acc = (-1) ** (m // 2) * math.comb(m, m // 2) * p[m // 2] ** 2
        for i in range(m // 2):
            acc = acc + 2 * (-1) ** i * math.comb(m, i) * p[i] * p[m - i]
        P[m] = acc
    es = [RationalPoly.const(ring.z_ring, 1)] + [zero] * (n * n)
    for j in range(2, n * n + 1, 2):
        acc = zero
        for i in range(2, j + 1, 2):
            acc = acc - es[j - i] * P[i]
        es[j] = acc / j
    es = [e / n**j for j, e in enumerate(es)]
    _check_end_classes(n, es)
    return tuple(es)


def _end_ring(n: int, j: int) -> ChernRing:
    ring = chern_ring(n)  # rejects a non-positive rank before j is checked
    if not 1 <= j <= n * n:
        raise ValueError(f"j must satisfy 1 <= j <= {n * n}, got {j}")
    return ring


@lru_cache(maxsize=None)
def _end_c_poly(n: int, j: int) -> RationalPoly:
    ring = chern_ring(n)
    return _end_classes(n)[j].substitute(ring._z_in_c, target_ring=ring.c_ring)


def end_chern(n: int, j: int) -> ChernExpression:
    """c_j of the endomorphism bundle: e_j of the n^2 differences x_a - x_b.

    It is the class of `end_in_a` expanded once through z_k(c).
    """
    return ChernExpression(_end_ring(n, j), _end_c_poly(n, j), j)


def end_in_a(n: int, j: int) -> AClassExpression:
    """The endomorphism class c_j(End) in the canonical z-generators."""
    return AClassExpression(_end_ring(n, j), _end_classes(n)[j])


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
    return tuple(elementary_symmetric_all(roots, ring))


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
