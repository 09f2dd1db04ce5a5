"""Exact rational arithmetic on graded multivariate polynomials.

Coefficients are exact rationals, an `int` when integral and a
`fractions.Fraction` otherwise, so every operation is exact.  A polynomial
is a sparse map from exponent vectors to nonzero coefficients over an
explicit, ordered tuple of `Variable`s (its ring).  Terms are kept sorted
by descending (weight, exponents), which makes the representation
canonical: two polynomials are equal iff their rings and term maps
coincide verbatim.

`SparseTerms` is the kernel shared by every sparse "key -> coefficient"
type of the package: `RationalPoly` here and `SurfaceClass`, `ParamElement`
and `KunnethClass` in `surfalg`.  It owns the canonical form (check each
pair, sum equal keys, drop zeros, sort), the construction of results
without that check, the text grammar ("0" or terms joined by " + "), the
product loop, scalar coercion, +, -, negation, scalar *, ** by
square-and-multiply, == and repr.  Each type supplies its key and
coefficient check, its order key, the text of one term, the product of
two terms (here the exponent sum), two one-line hooks and the names of the
slots a result shares with its operand.
`substitute` is `evaluate` into the target ring.

The module also carries `elementary_symmetric_all`, every e_k of a list
of ring elements in one pass, which the Hom classes of flags are built
on.  Two more helpers have no caller in the library: the rewrite of a
symmetric polynomial in the elementary basis (`express_in_elementary`,
whose descent also decides symmetry) and an exact linear solver over the
rationals (`linear_solve`).  The `selftest` suites check both, and the
per-layer tracer in `perfbench` wraps them by name.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "Variable",
    "SparseTerms",
    "RationalPoly",
    "LinearSolveResult",
    "make_ring",
    "elementary_symmetric_all",
    "express_in_elementary",
    "first_difference",
    "linear_solve",
    "parse_poly",
    "parse_fraction",
    "format_fraction",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Variable:
    """Named generator with a positive grading weight."""

    name: str
    weight: int = 1

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"bad variable name {self.name!r}")
        if self.weight < 1:
            raise ValueError(f"variable weight must be positive, got {self.weight}")


Ring = tuple[Variable, ...]
Exponents = tuple[int, ...]


def make_ring(*variables: Variable) -> Ring:
    """Freeze an ordered variable tuple, rejecting duplicate names."""
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in ring: {names}")
    return tuple(variables)


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


class SparseTerms:
    """Canonical form and arithmetic shared by the sparse "key -> coefficient" types.

    A subclass constructor stores its ring or algebra and sets `terms =
    self._canonical(terms)`: from a Mapping or a sequence of (key,
    coefficient) pairs the kernel checks each pair, sums equal keys, drops
    zeros and sorts.  Every +, -, * and ** result is built by `_make`
    instead, which takes the space from its operand and trusts the keys the
    kernel made itself: it sums nothing and checks nothing, it only drops
    zeros and sorts.  The subclass supplies these hooks:

    - `_entry(key, coef)`: the checked (key, coefficient) pair, or None
      for a term that is identically zero in the space; raises on a bad
      key or coefficient.  Only input from outside the kernel meets it;
    - `_order`: the sort key of a term key (None: the key itself), with
      `_descending` choosing the direction;
    - `_term_text(key, coef)`: the text of one term, for `to_text`;
    - `_times(k1, c1, k2, c2)`: the product of two terms as a (key, coef)
      pair, or None when it is zero in the space (`_entry` never sees the
      key, so `_times` applies any truncation itself); `_mul` sums these
      over all pairs;
    - `_space()`: the constructor's arguments before the terms, as a tuple;
      operands from different spaces raise `ValueError` with `_mismatch`;
      `_shared` names the slots a result copies from its operand;
    - `_scalar(value)`: an int or Fraction embedded as a constant, its
      coefficient passed through `_exact`.

    Coefficients need +, unary -, * by an int or Fraction and truth meaning
    "nonzero"; an element is false exactly when it is zero, so elements can
    be coefficients.  Numeric coefficients are exact: an int when integral,
    a Fraction otherwise.  Instances are immutable by convention.
    """

    __slots__ = ()
    _order: Any = None
    _descending = False
    _shared: tuple[str, ...] = ()

    @staticmethod
    def _exact(value: Any) -> int | Fraction:
        """A rational value as an int when integral, else as a Fraction."""
        if type(value) is int:
            return value
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def _canonical(self, terms: Any) -> dict:
        """The canonical term map of a Mapping or a sequence of pairs."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        entry = self._entry
        acc: dict = {}
        for key, coef in items:
            checked = entry(key, coef)
            if checked is not None:
                key, coef = checked
                acc[key] = acc[key] + coef if key in acc else coef
        return self._sorted(acc)

    def _sorted(self, acc: dict) -> dict:
        """`acc` without its zero coefficients, in term order."""
        keys = sorted(
            (k for k, c in acc.items() if c), key=self._order, reverse=self._descending
        )
        return {k: acc[k] for k in keys}

    @staticmethod
    def _exponents(exps: Iterable[int], size: int, space: str) -> Exponents:
        """A checked exponent-vector key; `space` formats `size` for the message."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != size:
            raise ValueError(f"exponent vector {exps} does not fit {space.format(size)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    def _make(self, acc: dict) -> Any:
        """An element of the same space, from a dict whose keys the kernel made."""
        new = object.__new__(type(self))
        for name in self._shared:
            setattr(new, name, getattr(self, name))
        new.terms = self._sorted(acc)
        return new

    def _mul(self, other: Any) -> Any:
        """The product with an element of the same space, term by term."""
        times = self._times
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                hit = times(k1, c1, k2, c2)
                if hit is not None:
                    key, coef = hit
                    acc[key] = acc[key] + coef if key in acc else coef
        return self._make(acc)

    def to_text(self) -> str:
        """Canonical text: "0", or the terms' texts joined by ' + '."""
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(k, c) for k, c in self.terms.items())

    @staticmethod
    def _single_degree(
        degrees: Iterable[int], label: str = "degrees"
    ) -> int | None:
        """The degree every term shares; None when there are no terms."""
        found = set(degrees)
        if len(found) > 1:
            raise ValueError(f"not homogeneous: {label} {sorted(found)}")
        return found.pop() if found else None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other: Any) -> Any:
        if isinstance(other, self.__class__):
            if other._space() != self._space():
                raise ValueError(self._mismatch)
            return other
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        return None

    def __add__(self, other: Any) -> Any:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self.terms)
        for key, coef in rhs.terms.items():
            acc[key] = acc[key] + coef if key in acc else coef
        return self._make(acc)

    __radd__ = __add__

    def __neg__(self) -> Any:
        return self._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Any) -> Any:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Any) -> Any:
        return (-self) + other

    def __mul__(self, other: Any) -> Any:
        if isinstance(other, (int, Fraction)):
            q = self._exact(other)
            return self._make({k: c * q for k, c in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._mul(rhs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Any:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative exponent")
        # starting from None rather than the unit saves one product per call
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self._scalar(1) if result is None else result

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


class RationalPoly(SparseTerms):
    """Sparse polynomial with exact rational coefficients over an ordered ring.

    Instances are immutable by convention: no method mutates `self`, every
    operation returns a polynomial in canonical form.
    """

    __slots__ = ("ring", "terms", "_weights")
    _mismatch = "ring mismatch"
    _descending = True
    _shared = ("ring", "_weights")

    def __init__(self, ring: Iterable[Variable], terms: Any = ()) -> None:
        self.ring = make_ring(*ring)
        self._weights = tuple(v.weight for v in self.ring)
        self.terms = self._canonical(terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring: Iterable[Variable]) -> "RationalPoly":
        return cls(ring)

    @classmethod
    def const(cls, ring: Iterable[Variable], value: Any) -> "RationalPoly":
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): value})

    @classmethod
    def gen(cls, ring: Iterable[Variable], variable: Variable) -> "RationalPoly":
        ring = tuple(ring)
        try:
            pos = ring.index(variable)
        except ValueError:
            raise ValueError(f"{variable.name!r} is not a ring variable") from None
        exps = [0] * len(ring)
        exps[pos] = 1
        return cls(ring, {tuple(exps): 1})

    # -- basic structure -------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def term_weight(self, exps: Exponents) -> int:
        return sum(w * e for w, e in zip(self._weights, exps))

    def homogeneous_weight(self) -> int | None:
        """Common weight of all terms; None for the zero polynomial."""
        weights = map(self.term_weight, self.terms)
        return self._single_degree(weights, "term weights")

    def is_homogeneous(self) -> bool:
        try:
            self.homogeneous_weight()
        except ValueError:
            return False
        return True

    def homogeneous_components(self) -> dict[int, "RationalPoly"]:
        buckets: dict[int, dict[Exponents, int | Fraction]] = {}
        for exps, coef in self.terms.items():
            buckets.setdefault(self.term_weight(exps), {})[exps] = coef
        return {w: self._make(t) for w, t in sorted(buckets.items())}

    def cohomological_degree(self) -> int | None:
        """Degree 2*weight of an even-graded class; None when zero."""
        w = self.homogeneous_weight()
        return None if w is None else 2 * w

    # -- kernel hooks (SparseTerms) -----------------------------------------

    def _entry(
        self, exps: Sequence[int], coef: Any
    ) -> tuple[Exponents, int | Fraction]:
        size = len(self.ring)
        return self._exponents(exps, size, "a ring of {} variables"), self._exact(coef)

    def _order(self, exps: Exponents) -> tuple[int, Exponents]:
        return self.term_weight(exps), exps

    def _term_text(self, exps: Exponents, coef: Fraction) -> str:
        return "*".join([format_fraction(coef), *self._factors(exps)])

    def _times(
        self, e1: Exponents, c1: Fraction, e2: Exponents, c2: Fraction
    ) -> tuple[Exponents, Fraction]:
        return tuple(map(add, e1, e2)), c1 * c2

    def _space(self) -> tuple[Ring]:
        return (self.ring,)

    def _scalar(self, value: Any) -> "RationalPoly":
        return self._make({(0,) * len(self.ring): self._exact(value)})

    def __truediv__(self, other: Any) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- ring maps ---------------------------------------------------------

    def substitute(
        self,
        bindings: Mapping[Variable, "RationalPoly"],
        target_ring: Iterable[Variable] | None = None,
    ) -> "RationalPoly":
        """Apply the ring map sending each bound variable to its image.

        Unbound variables pass through unchanged and must therefore exist in
        the target ring whenever they actually occur.  After these checks the
        map is `evaluate` into the target ring, with every unbound variable
        sent to its own generator.
        """
        for v in bindings:
            if v not in self.ring:
                raise ValueError(f"{v.name!r} is not a variable of the source ring")
        image_rings = {img.ring for img in bindings.values()}
        if target_ring is not None:
            target = make_ring(*target_ring)
        elif len(image_rings) == 1:
            target = next(iter(image_rings))
        elif not image_rings:
            target = self.ring
        else:
            raise ValueError("images live in different rings; pass target_ring")
        if any(r != target for r in image_rings):
            raise ValueError("image ring differs from the target ring")
        values = dict(bindings)
        for pos, v in enumerate(self.ring):
            if v in bindings:
                continue
            if v in target:
                values[v] = RationalPoly.gen(target, v)
            elif any(exps[pos] for exps in self.terms):
                raise ValueError(f"unbound variable {v.name!r} is missing from the target ring")
        return self.evaluate(values, zero=RationalPoly.zero(target))

    def evaluate(self, values: Mapping[Variable, Any], zero: Any = Fraction(0)) -> Any:
        """Evaluate in an arbitrary commutative coefficient ring.

        Values must support +, *, integer powers and multiplication by
        Fraction.  Every variable that occurs with a positive exponent needs
        a value.
        """
        total = zero
        powers: dict[tuple[int, int], Any] = {}
        for exps, coef in self.terms.items():
            factor = None
            for pos, e in enumerate(exps):
                if not e:
                    continue
                v = self.ring[pos]
                if v not in values:
                    raise ValueError(f"no value supplied for {v.name!r}")
                piece = powers.get((pos, e))
                if piece is None:
                    piece = values[v] ** e
                    powers[(pos, e)] = piece
                factor = piece if factor is None else factor * piece
            term = coef if factor is None else coef * factor
            total = total + term
        return total

    # -- serialization ------------------------------------------------------

    def _factors(self, exps: Exponents) -> list[str]:
        return [
            v.name if e == 1 else f"{v.name}^{e}"
            for v, e in zip(self.ring, exps)
            if e
        ]

    def __str__(self) -> str:
        return self.to_text()


_COEF_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?")


def parse_poly(text: str, ring: Iterable[Variable]) -> RationalPoly:
    """Parse the serialization grammar emitted by `RationalPoly.to_text`.

    Terms are separated by '+', factors inside a term by '*'; a factor is
    either an integer or p/q coefficient or a variable with an optional
    positive exponent.  A bare variable without a coefficient is accepted.
    """
    ring = make_ring(*ring)
    by_name = {v.name: i for i, v in enumerate(ring)}
    src = text.strip()
    if not src:
        raise ValueError("empty polynomial text")
    terms: list[tuple[Exponents, Fraction]] = []
    for chunk in src.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        exps = [0] * len(ring)
        coef = Fraction(1)
        for factor in (f.strip() for f in chunk.split("*")):
            if _COEF_RE.fullmatch(factor):
                coef *= parse_fraction(factor)
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in by_name:
                raise ValueError(f"unknown variable {name!r}")
            exps[by_name[name]] += exp
        terms.append((tuple(exps), coef))
    return RationalPoly(ring, terms)


def first_difference(p: RationalPoly, q: RationalPoly) -> str:
    """The leading monomial on which p and q differ, with both coefficients.

    Meant for failure messages; p and q share a ring.
    """
    diff = p - q
    if diff.is_zero():
        return "none"
    exps = next(iter(diff.terms))
    mono = "*".join(diff._factors(exps)) or "1"
    return (
        f"{mono} ({format_fraction(p.coefficient(exps))}"
        f" against {format_fraction(q.coefficient(exps))})"
    )


# -- symmetric function utilities -------------------------------------------


def elementary_symmetric_all(
    values: Sequence[RationalPoly], ring: Iterable[Variable] | None = None
) -> list[RationalPoly]:
    """All e_0..e_m of the given ring elements, by the one-pass recurrence."""
    if ring is None:
        if not values:
            raise ValueError("cannot infer the ring from an empty list")
        ring = values[0].ring
    ring = make_ring(*ring)
    es = [RationalPoly.const(ring, 1)]
    for v in values:
        if v.ring != ring:
            raise ValueError("ring mismatch among the inputs")
        es.append(RationalPoly.zero(ring))
        for k in range(len(es) - 1, 0, -1):
            es[k] = es[k] + v * es[k - 1]
    return es


def express_in_elementary(
    p: RationalPoly,
    variables: Sequence[Variable],
    target_vars: Sequence[Variable] | None = None,
) -> RationalPoly:
    """Rewrite a symmetric polynomial as a polynomial in e_1..e_n.

    Classical descent over the ring of the variables: subtracting coef *
    e_1^(l1-l2) * ... * e_n^(ln) cancels a weakly decreasing lex-leading
    exponent and leaves lex-smaller monomials, so it ends: at zero exactly
    when p is symmetric, else at a lead that is not weakly decreasing.  The
    rewrite is verified by substituting the elementary polynomials back in.
    """
    src_ring = make_ring(*variables)
    if p.ring != src_ring:
        raise ValueError(
            f"polynomial ring ({', '.join(v.name for v in p.ring)}) is not the"
            f" ring of the given variables ({', '.join(v.name for v in src_ring)})"
        )
    n = len(src_ring)
    if target_vars is None:
        target_vars = tuple(Variable(f"e{i}", i) for i in range(1, n + 1))
    target = make_ring(*target_vars)
    if len(target) != n:
        raise ValueError("need exactly one target variable per source variable")
    gens = [RationalPoly.gen(src_ring, v) for v in src_ring]
    es = elementary_symmetric_all(gens, src_ring)
    work = p
    out_terms: list[tuple[Exponents, Fraction]] = []
    while work.terms:
        lead = max(work.terms)
        coef = work.terms[lead]
        if any(lead[i] < lead[i + 1] for i in range(n - 1)):
            raise ValueError("polynomial is not symmetric in the given variables")
        e_exps = tuple(
            lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        out_terms.append((e_exps, coef))
        prod = RationalPoly.const(src_ring, 1)
        for i, e in enumerate(e_exps):
            if e:
                prod = prod * es[i + 1] ** e
        work = work - coef * prod
    q = RationalPoly(target, out_terms)
    bindings = {target[i]: es[i + 1] for i in range(n)}
    back = q.substitute(bindings, target_ring=src_ring)
    if back != p:
        raise RuntimeError(
            "elementary-basis rewrite in"
            f" {', '.join(v.name for v in target)} failed back-substitution;"
            f" first differing term {first_difference(back, p)}"
        )
    return q


# -- exact linear algebra ----------------------------------------------------


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve: status plus the solution if unique."""

    status: str  # "unique" | "inconsistent" | "underdetermined"
    solution: tuple[Fraction, ...] | None = None


def linear_solve(
    matrix: Sequence[Sequence[Any]], rhs: Sequence[Any]
) -> LinearSolveResult:
    """Solve A x = rhs exactly over the rationals.

    Rows are scaled to integers and reduced by fraction-free (Bareiss)
    elimination; the status distinguishes a unique solution from an
    inconsistent system and from a consistent underdetermined one.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ValueError(f"matrix has {m} rows but rhs has {len(rhs)} entries")
    ncols = len(matrix[0]) if m else 0
    aug: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        fracs = [Fraction(x) for x in row] + [Fraction(b)]
        den = math.lcm(*(f.denominator for f in fracs))
        aug.append([int(f * den) for f in fracs])

    prev = 1
    rank = 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        pivot = next((i for i in range(rank, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for i in range(rank + 1, m):
            for j in range(c + 1, ncols + 1):
                num = aug[rank][c] * aug[i][j] - aug[i][c] * aug[rank][j]
                quo, rem = divmod(num, prev)
                if rem:
                    raise RuntimeError("fraction-free elimination lost exactness")
                aug[i][j] = quo
            aug[i][c] = 0
        prev = aug[rank][c]
        pivot_cols.append(c)
        rank += 1

    if any(aug[i][ncols] for i in range(rank, m)):
        return LinearSolveResult("inconsistent")
    if rank < ncols:
        return LinearSolveResult("underdetermined")
    x = [Fraction(0)] * ncols
    for idx in reversed(range(rank)):
        row = aug[idx]
        c = pivot_cols[idx]
        s = Fraction(row[ncols]) - sum(
            Fraction(row[j]) * x[j] for j in range(c + 1, ncols)
        )
        x[c] = s / row[c]
    return LinearSolveResult("unique", tuple(x))
