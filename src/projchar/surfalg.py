"""Surface cohomology, Kunneth classes and the twist canonicality check.

H*(X) of a closed oriented genus-g surface has basis 1, alpha_1..alpha_g,
beta_1..beta_g (degree 1) and the orientation class omega (degree 2), with
alpha_i * beta_i = omega = -beta_i * alpha_i and every other product of
positive-degree generators zero.  Classes on (parameter space) x X are kept
in Kunneth form: a map from surface basis elements to elements of a free
graded-commutative parameter algebra, truncated above a degree bound.  The
slant product contracts the surface leg against a homology class; the sign
conventions are fixed here once and exercised by the tests.

`SurfaceClass`, `ParamElement` and `KunnethClass` take their canonical
form (sum equal keys, drop zeros), the term order of `to_text`, the
product loop, +, -, scalar *, **, == and repr from the kernel
`qpoly.SparseTerms`.  Each supplies only its key and coefficient check
(for `ParamElement` also the truncation), its order key, the text of one
term and the product of two terms: the `basis_mul` table for surface
classes, exponent sums with the Koszul sign and the same truncation for
parameter monomials, and both for Kunneth classes, whose right-hand
coefficients are sign-twisted at most once each.  Each `ParameterAlgebra`
keeps a table of the monomial products it has worked out, keyed by the
ordered pair of exponent vectors, so a product of two parameter terms is
one lookup and one coefficient product after its first use.

The payoff is `canonicality_check`: twisting a rank-n Chern list by a
degree-2 parameter class must leave both the degree-1 slants of c_1 and all
the canonical classes a_2..a_n unchanged, while the degree-0 slant of c_1
shifts by exactly rank * f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from random import Random
from typing import Any, Optional, Sequence

# a_classes has no caller here, but it stays bound: perfbench/layers.py wraps
# it at its surfalg attribute, and a missing one fails `--trace 1` with a
# KeyError
from .projclass import _a_classes_of, a_classes, twist  # noqa: F401
from .qpoly import SparseTerms, format_fraction

__all__ = [
    "K_ONE",
    "K_OMEGA",
    "k_alpha",
    "k_beta",
    "SurfaceRing",
    "SurfaceClass",
    "HomologyClass",
    "ParameterAlgebra",
    "ParamElement",
    "KunnethClass",
    "CanonicalityReport",
    "point_class",
    "cycle_a",
    "cycle_b",
    "fundamental_class",
    "slant",
    "twist_chern",
    "canonicality_check",
    "random_param_element",
    "random_kunneth",
]

# Basis keys are (degree, kind, index); kind separates alpha (0) from beta (1).
BasisKey = tuple[int, int, int]

K_ONE: BasisKey = (0, 0, 0)
K_OMEGA: BasisKey = (2, 0, 0)


def k_alpha(i: int) -> BasisKey:
    return (1, 0, i)


def k_beta(i: int) -> BasisKey:
    return (1, 1, i)


@dataclass(frozen=True)
class SurfaceRing:
    """Cohomology ring of a closed oriented surface of the given genus."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")

    @cached_property
    def basis(self) -> tuple[BasisKey, ...]:
        ones = [k_alpha(i) for i in range(1, self.genus + 1)]
        ones += [k_beta(i) for i in range(1, self.genus + 1)]
        return (K_ONE, *sorted(ones), K_OMEGA)

    @cached_property
    def _key_set(self) -> frozenset[BasisKey]:
        return frozenset(self.basis)

    def check_key(self, key: BasisKey) -> BasisKey:
        if key not in self._key_set:
            raise ValueError(f"{key} is not a basis key for genus {self.genus}")
        return key

    def degree(self, key: BasisKey) -> int:
        return self.check_key(key)[0]

    def name(self, key: BasisKey) -> str:
        self.check_key(key)
        if key == K_ONE:
            return "1"
        if key == K_OMEGA:
            return "omega"
        return f"{'alpha' if key[1] == 0 else 'beta'}{key[2]}"

    def basis_mul(self, k1: BasisKey, k2: BasisKey) -> Optional[tuple[int, BasisKey]]:
        """Product of two basis elements as (sign, key), or None when zero."""
        self.check_key(k1)
        self.check_key(k2)
        if k1 == K_ONE:
            return (1, k2)
        if k2 == K_ONE:
            return (1, k1)
        if k1[0] + k2[0] > 2:
            return None
        # two degree-1 classes: only alpha_i * beta_i survives, up to sign
        if k1[2] != k2[2] or k1[1] == k2[1]:
            return None
        return (1, K_OMEGA) if k1[1] == 0 else (-1, K_OMEGA)


class SurfaceClass(SparseTerms):
    """Rational linear combination of surface basis elements."""

    __slots__ = ("ring", "terms")
    _mismatch = "surface ring mismatch"
    _shared = ("ring",)

    def __init__(self, ring: SurfaceRing, terms: Any = ()) -> None:
        self.ring = ring
        self.terms = self._canonical(terms)

    @classmethod
    def zero(cls, ring: SurfaceRing) -> "SurfaceClass":
        return cls(ring)

    @classmethod
    def unit(cls, ring: SurfaceRing) -> "SurfaceClass":
        return cls(ring, {K_ONE: 1})

    @classmethod
    def alpha(cls, ring: SurfaceRing, i: int) -> "SurfaceClass":
        return cls(ring, {k_alpha(i): 1})

    @classmethod
    def beta(cls, ring: SurfaceRing, i: int) -> "SurfaceClass":
        return cls(ring, {k_beta(i): 1})

    @classmethod
    def omega_class(cls, ring: SurfaceRing) -> "SurfaceClass":
        return cls(ring, {K_OMEGA: 1})

    def degree(self) -> int | None:
        return self._single_degree(k[0] for k in self.terms)

    def _entry(
        self, key: Sequence[int], coef: Any
    ) -> tuple[BasisKey, int | Fraction]:
        return self.ring.check_key(tuple(key)), self._exact(coef)

    def _term_text(self, key: BasisKey, coef: int | Fraction) -> str:
        head = format_fraction(coef)
        return head if key == K_ONE else f"{head}*{self.ring.name(key)}"

    def _times(
        self, k1: BasisKey, c1: int | Fraction, k2: BasisKey, c2: int | Fraction
    ) -> Optional[tuple[BasisKey, int | Fraction]]:
        hit = self.ring.basis_mul(k1, k2)
        if hit is None:
            return None
        sign, key = hit
        return key, sign * c1 * c2

    def _space(self) -> tuple[SurfaceRing]:
        return (self.ring,)

    def _scalar(self, value: Any) -> "SurfaceClass":
        return self._make({K_ONE: self._exact(value)})

    def pair(self, z: "HomologyClass") -> int | Fraction:
        """Kronecker pairing against the mirror-keyed homology basis."""
        if z.ring != self.ring:
            raise ValueError("surface ring mismatch")
        return self.terms.get(z.key, 0)


@dataclass(frozen=True)
class HomologyClass:
    """One homology basis element: [x0]; a_1..a_g, b_1..b_g; [X].

    Keys mirror the cohomology basis so that the pairing is the identity
    table: <1,[x0]> = <alpha_i,a_i> = <beta_i,b_i> = <omega,[X]> = 1.
    """

    ring: SurfaceRing
    key: BasisKey

    def __post_init__(self) -> None:
        self.ring.check_key(self.key)

    @property
    def degree(self) -> int:
        return self.key[0]

    @property
    def name(self) -> str:
        if self.key == K_ONE:
            return "[x0]"
        if self.key == K_OMEGA:
            return "[X]"
        return f"{'a' if self.key[1] == 0 else 'b'}{self.key[2]}"


def point_class(ring: SurfaceRing) -> HomologyClass:
    return HomologyClass(ring, K_ONE)


def cycle_a(ring: SurfaceRing, i: int) -> HomologyClass:
    return HomologyClass(ring, k_alpha(i))


def cycle_b(ring: SurfaceRing, i: int) -> HomologyClass:
    return HomologyClass(ring, k_beta(i))


def fundamental_class(ring: SurfaceRing) -> HomologyClass:
    return HomologyClass(ring, K_OMEGA)


# -- parameter algebra -----------------------------------------------------------


Exponents = tuple[int, ...]


@dataclass(frozen=True)
class ParameterAlgebra:
    """Free graded-commutative algebra on named generators, truncated in degree.

    Odd-degree generators anticommute and square to zero; even ones are
    central.  Monomials of degree above `max_degree` are treated as zero,
    which keeps power computations finite.

    Those two rules (`_vanishes`) and `koszul_sign` give the product of two
    monomials.  Each algebra object keeps every product it works out in
    `_product_cache`, a dict from the ordered pair of exponent vectors to
    (exponents, sign), or to None when the product vanishes.  It holds at
    most one entry per ordered pair of monomials within the degree bound.
    """

    generators: tuple[tuple[str, int], ...]
    max_degree: int

    def __post_init__(self) -> None:
        gens = tuple((str(n), int(d)) for n, d in self.generators)
        object.__setattr__(self, "generators", gens)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        if any(d < 1 for _, d in gens):
            raise ValueError("generator degrees must be positive")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {self.max_degree}")

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.generators)

    @cached_property
    def odd_flags(self) -> tuple[bool, ...]:
        return tuple(d % 2 == 1 for d in self.degrees)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.generators)}

    @cached_property
    def _monomial_cache(self) -> dict[int, tuple[Exponents, ...]]:
        return {}

    @cached_property
    def _product_cache(
        self,
    ) -> dict[tuple[Exponents, Exponents], Optional[tuple[Exponents, int]]]:
        return {}

    def monomial_degree(self, exps: Exponents) -> int:
        return sum(map(mul, self.degrees, exps))

    def _vanishes(self, exps: Exponents) -> bool:
        """True for a monomial that is zero: an odd generator squared, or too high."""
        if any(e > 1 for e, odd in zip(exps, self.odd_flags) if odd):
            return True
        return self.monomial_degree(exps) > self.max_degree

    def koszul_sign(self, e1: Exponents, e2: Exponents) -> int:
        """Sign for merging two index-sorted words: one -1 per odd-odd inversion."""
        odd1 = [i for i, e in enumerate(e1) if e and self.odd_flags[i]]
        if not odd1:
            return 1
        odd2 = [i for i, e in enumerate(e2) if e and self.odd_flags[i]]
        inversions = sum(1 for a in odd1 for b in odd2 if a > b)
        return -1 if inversions % 2 else 1

    def _product(
        self, e1: Exponents, e2: Exponents
    ) -> Optional[tuple[Exponents, int]]:
        """(exponents, Koszul sign) of e1 * e2, or None when it vanishes; kept."""
        exps = tuple(map(add, e1, e2))
        hit = None if self._vanishes(exps) else (exps, self.koszul_sign(e1, e2))
        self._product_cache[e1, e2] = hit
        return hit

    def monomials_of_degree(self, degree: int) -> tuple[Exponents, ...]:
        if degree < 0 or degree > self.max_degree:
            return ()
        hit = self._monomial_cache.get(degree)
        if hit is not None:
            return hit
        out: list[Exponents] = []

        def rec(i: int, remaining: int, acc: list[int]) -> None:
            if i == len(self.degrees):
                if remaining == 0:
                    out.append(tuple(acc))
                return
            cap = remaining // self.degrees[i]
            if self.odd_flags[i]:
                cap = min(cap, 1)
            for e in range(cap + 1):
                rec(i + 1, remaining - e * self.degrees[i], acc + [e])

        rec(0, degree, [])
        result = tuple(sorted(out))
        self._monomial_cache[degree] = result
        return result

    def zero(self) -> "ParamElement":
        return ParamElement(self)

    def one(self) -> "ParamElement":
        return ParamElement(self, {(0,) * len(self.generators): 1})

    def gen(self, name: str) -> "ParamElement":
        if name not in self._index:
            raise ValueError(f"unknown generator {name!r}")
        exps = [0] * len(self.generators)
        exps[self._index[name]] = 1
        return ParamElement(self, {tuple(exps): 1})


class ParamElement(SparseTerms):
    """Element of a ParameterAlgebra: sparse map monomial -> exact rational.

    Monomials with an odd generator squared, or with degree above the
    algebra's bound, are identically zero: the constructor drops them, and
    `_times` returns None for a product of two terms that lands on one.
    """

    __slots__ = ("algebra", "terms", "_odd_twist")
    _mismatch = "parameter algebra mismatch"
    _shared = ("algebra",)

    def __init__(self, algebra: ParameterAlgebra, terms: Any = ()) -> None:
        self.algebra = algebra
        self.terms = self._canonical(terms)

    def cohomological_degree(self) -> int | None:
        return self._single_degree(map(self.algebra.monomial_degree, self.terms))

    def sign_twist(self, parity: int) -> "ParamElement":
        """Multiply each monomial of odd degree by (-1)^parity."""
        if parity % 2 == 0:
            return self
        degree = self.algebra.monomial_degree
        terms = self.terms.items()
        return self._make({e: -c if degree(e) % 2 else c for e, c in terms})

    def _odd_twisted(self) -> "ParamElement":
        """`sign_twist(1)`, built once per element and kept."""
        try:
            return self._odd_twist
        except AttributeError:
            self._odd_twist = self.sign_twist(1)
            return self._odd_twist

    def _entry(
        self, exps: Sequence[int], coef: Any
    ) -> Optional[tuple[Exponents, int | Fraction]]:
        algebra = self.algebra
        exps = self._exponents(exps, len(algebra.generators), "{} generators")
        if algebra._vanishes(exps):
            return None
        return exps, self._exact(coef)

    def _order(self, exps: Exponents) -> tuple[int, Exponents]:
        return self.algebra.monomial_degree(exps), exps

    def _term_text(self, exps: Exponents, coef: int | Fraction) -> str:
        factors = [format_fraction(coef)]
        for (name, _), e in zip(self.algebra.generators, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)

    def _times(
        self, e1: Exponents, c1: int | Fraction, e2: Exponents, c2: int | Fraction
    ) -> Optional[tuple[Exponents, int | Fraction]]:
        try:
            hit = self.algebra._product_cache[e1, e2]
        except KeyError:
            hit = self.algebra._product(e1, e2)
        if hit is None:
            return None
        exps, sign = hit
        return exps, sign * c1 * c2

    def _space(self) -> tuple[ParameterAlgebra]:
        return (self.algebra,)

    def _scalar(self, value: Any) -> "ParamElement":
        return self._make({(0,) * len(self.algebra.generators): self._exact(value)})


# -- Kunneth classes -------------------------------------------------------------


class KunnethClass(SparseTerms):
    """Class on (parameter space) x (surface): map surface key -> ParamElement.

    `terms` holds that map, so the kernel's coefficients are here
    ParamElements; `parts` is another name for it.
    """

    __slots__ = ("algebra", "ring", "terms")
    _mismatch = "Kunneth algebra or ring mismatch"
    _shared = ("algebra", "ring")

    def __init__(
        self,
        algebra: ParameterAlgebra,
        ring: SurfaceRing,
        parts: Any = (),
    ) -> None:
        self.algebra = algebra
        self.ring = ring
        self.terms = self._canonical(parts)

    @classmethod
    def zero(cls, algebra: ParameterAlgebra, ring: SurfaceRing) -> "KunnethClass":
        return cls(algebra, ring)

    @classmethod
    def unit(cls, algebra: ParameterAlgebra, ring: SurfaceRing) -> "KunnethClass":
        return cls(algebra, ring, {K_ONE: algebra.one()})

    @classmethod
    def tensor(cls, elt: ParamElement, surface: SurfaceClass) -> "KunnethClass":
        parts = {key: elt * coef for key, coef in surface.terms.items()}
        return cls(elt.algebra, surface.ring, parts)

    @classmethod
    def from_param(cls, elt: ParamElement, ring: SurfaceRing) -> "KunnethClass":
        return cls(elt.algebra, ring, {K_ONE: elt})

    @classmethod
    def from_surface(
        cls, algebra: ParameterAlgebra, surface: SurfaceClass
    ) -> "KunnethClass":
        return cls.tensor(algebra.one(), surface)

    @property
    def parts(self) -> dict[BasisKey, ParamElement]:
        return self.terms

    def part(self, key: BasisKey) -> ParamElement:
        self.ring.check_key(key)
        return self.terms.get(key, self.algebra.zero())

    def cohomological_degree(self) -> int | None:
        return self._single_degree(
            key[0] + self.algebra.monomial_degree(e)
            for key, elt in self.terms.items()
            for e in elt.terms
        )

    def _entry(
        self, key: Sequence[int], elt: ParamElement
    ) -> tuple[BasisKey, ParamElement]:
        key = self.ring.check_key(tuple(key))
        if not isinstance(elt, ParamElement):
            raise TypeError("part values must be ParamElement")
        if elt.algebra != self.algebra:
            raise ValueError("parameter algebra mismatch in parts")
        return key, elt

    def _term_text(self, key: BasisKey, elt: ParamElement) -> str:
        return f"({elt.to_text()}) ⊗ {self.ring.name(key)}"

    def _times(
        self, k1: BasisKey, p1: ParamElement, k2: BasisKey, p2: ParamElement
    ) -> Optional[tuple[BasisKey, ParamElement]]:
        hit = self.ring.basis_mul(k1, k2)
        if hit is None:
            return None
        sign, key = hit
        # Koszul: the surface leg of the first factor moves past the
        # parameter leg of the second; only a degree-1 leg changes signs
        product = p1 * (p2._odd_twisted() if k1[0] == 1 else p2)
        return key, product if sign == 1 else -product

    def _space(self) -> tuple[ParameterAlgebra, SurfaceRing]:
        return (self.algebra, self.ring)

    def _scalar(self, value: Any) -> "KunnethClass":
        return self._make({K_ONE: self.algebra.one() * value})


def slant(a: KunnethClass, z: HomologyClass) -> ParamElement:
    """Contract the surface leg against z: (s (x) t)/z = (-1)^{|s||z|} <t,z> s."""
    if z.ring != a.ring:
        raise ValueError("surface ring mismatch")
    elt = a.terms.get(z.key)
    if elt is None:
        return a.algebra.zero()
    return elt.sign_twist(z.degree)


# -- twisting and canonicality ----------------------------------------------------


def _check_chern_list(rank: int, chern: Sequence[KunnethClass]) -> list[KunnethClass]:
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    values = list(chern)
    if len(values) != rank:
        raise ValueError(f"need exactly {rank} Chern classes, got {len(values)}")
    algebra, ring = values[0].algebra, values[0].ring
    for i, c in enumerate(values, start=1):
        if not isinstance(c, KunnethClass):
            raise TypeError("Chern values must be KunnethClass")
        if c.algebra != algebra or c.ring != ring:
            raise ValueError("Chern classes live in different algebras")
        deg = c.cohomological_degree()
        if deg is not None and deg != 2 * i:
            raise ValueError(f"c{i} has degree {deg}, expected {2 * i}")
    if algebra.max_degree < 2 * rank:
        raise ValueError(
            f"truncation degree {algebra.max_degree} is below 2*rank = {2 * rank}"
        )
    return values


def twist_chern(
    rank: int, chern: Sequence[KunnethClass], f: ParamElement
) -> list[KunnethClass]:
    """Chern classes after tensoring by a line bundle pulled back from the base.

    With x_1..x_n the roots of the original list, the twisted bundle has
    roots x_i + f, so c'_k = sum_i binom(n-i, k-i) c_i (f (x) 1)^(k-i).
    """
    values = _check_chern_list(rank, chern)
    algebra, ring = values[0].algebra, values[0].ring
    fdeg = f.cohomological_degree()
    if fdeg is not None and fdeg != 2:
        raise ValueError(f"twist class has degree {fdeg}, expected 2")
    ft = KunnethClass.from_param(f, ring)
    return twist(values, ft, KunnethClass.unit(algebra, ring))


@dataclass(frozen=True)
class CanonicalityReport:
    """Outcome of the twist-invariance check.

    h0_shift is the change of the degree-0 slant of c_1, which is rank * f
    up to the slant sign convention; it is reported, not asserted.
    """

    passed: bool
    first_failure: Optional[str]
    h1_checks: int
    a_checks: int
    h0_shift: ParamElement


def canonicality_check(
    rank: int, chern: Sequence[KunnethClass], f: ParamElement
) -> CanonicalityReport:
    """Twist the Chern list by f and verify the canonical data is unchanged.

    Checks that slant(c_1, z) is unchanged for every degree-1 basis homology
    class z and that the canonical classes a_2..a_rank are unchanged.  Both
    hold identically; a failure means a sign or arithmetic bug.
    """
    values = list(chern)
    twisted = twist_chern(rank, values, f)  # validates the list, then f
    algebra, ring = values[0].algebra, values[0].ring
    first_failure: Optional[str] = None
    h1_checks = 0
    for i in range(1, ring.genus + 1):
        for z in (cycle_a(ring, i), cycle_b(ring, i)):
            h1_checks += 1
            if slant(twisted[0], z) != slant(values[0], z) and first_failure is None:
                first_failure = f"slant of c1 along {z.name} changed"
    zero = KunnethClass.zero(algebra, ring)
    # both lists are checked: the original by twist_chern, and a twist keeps
    # every degree
    original_a = _a_classes_of(rank, values, zero)
    twisted_a = _a_classes_of(rank, twisted, zero)
    for k, (before, after) in enumerate(zip(original_a, twisted_a), start=2):
        if before != after and first_failure is None:
            first_failure = f"a{k} changed under the twist"
    x0 = point_class(ring)
    h0_shift = slant(twisted[0], x0) - slant(values[0], x0)
    return CanonicalityReport(
        passed=first_failure is None,
        first_failure=first_failure,
        h1_checks=h1_checks,
        a_checks=rank - 1,
        h0_shift=h0_shift,
    )


# -- seeded random instances -------------------------------------------------------

_COEF_POOL = (-3, -2, -1, 1, 2, 3)


def random_param_element(
    rng: Random, algebra: ParameterAlgebra, degree: int, max_terms: int = 3
) -> ParamElement:
    monos = algebra.monomials_of_degree(degree)
    if not monos:
        return algebra.zero()
    count = rng.randint(1, max_terms)
    terms = [(rng.choice(monos), rng.choice(_COEF_POOL)) for _ in range(count)]
    return ParamElement(algebra, terms)


def random_kunneth(
    rng: Random,
    algebra: ParameterAlgebra,
    ring: SurfaceRing,
    degree: int,
    max_terms: int = 4,
) -> KunnethClass:
    """Random homogeneous Kunneth class of the given total degree."""
    options: list[tuple[BasisKey, Exponents]] = []
    for key in ring.basis:
        for m in algebra.monomials_of_degree(degree - key[0]):
            options.append((key, m))
    if not options:
        return KunnethClass.zero(algebra, ring)
    parts = []
    for _ in range(rng.randint(1, max_terms)):
        key, m = rng.choice(options)
        parts.append((key, ParamElement(algebra, {m: rng.choice(_COEF_POOL)})))
    return KunnethClass(algebra, ring, parts)
