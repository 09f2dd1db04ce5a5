"""Exact rational arithmetic on graded multivariate polynomials.

Coefficients are exact rationals, `int` or `fractions.Fraction`, so every
operation is exact.  Two paths store an integral coefficient as an `int`:
construction (the public constructors) and products by a scalar.  Kernel
`+` and `*` of two elements keep each coefficient as `+` returns it, so
there an integral sum of `Fraction`s stays a `Fraction`.  A polynomial
is a sparse map from monomials to nonzero coefficients over an explicit,
ordered tuple of `Variable`s (its ring).  Each monomial is one packed int
key (Kronecker substitution): fields of one width, the term's weight in
the most significant field and below it the exponents e_1..e_n in ring
order, e_n lowest.  So int order is the term order (weight, exponents),
and the key of a product of two monomials is the sum of their keys.
Weights are at least 1, so no exponent exceeds its term's weight, and
the width is the narrowest of 8, 16, 32, ... bits that holds the largest
weight of the polynomial: every field then fits, and the width is a
function of the polynomial.  The representation is canonical as a map:
two polynomials are equal iff their rings and term maps are equal.
Exponent tuples are the public face: the constructor, `coefficient`,
`exponent_items`, `parse_poly` and the text.  Term order belongs to the
text alone: `to_text` writes the terms by descending (weight, exponents).

`SparseTerms` is the kernel shared by every sparse "key -> coefficient"
type of the package: `RationalPoly` here and `SurfaceClass`, `ParamElement`
and `KunnethClass` in `surfalg`.  It owns the canonical form (check each
pair, sum equal keys, drop zeros), the construction of results without
that check, the term order and the text grammar ("0" or terms joined by
" + " in that order), the product loop, scalar coercion, +, -, negation,
scalar *, ** by successive products, == and repr.  Each type supplies its
key and coefficient check, its order key, the text of one term, the rows
of its key products, two one-line hooks and the names of the slots a
result shares with its operand.  `RationalPoly` has no rows: its hook
returns None, and the product loop then adds the two int keys of each
term pair, after widening its operands once if the product's largest
weight needs a wider field.  `ProductRows` is the memo of key products that
the other three types keep, one per space object.  `linear_combination`
sums coefficient * element pairs into one element in one pass; `evaluate`
is one such sum over one power table, and `substitute` is `evaluate` into
a target ring that its caller names.  Both read the unpacked exponents
through an evaluation plan, which a caller that evaluates the same
polynomials again can keep.

The module also carries `elementary_symmetric_all`, every e_k of a list
of numbers or ring elements in one pass, for the Hom classes of flags and
the End root check; for kernel elements each step e_k + v * e_{k-1} is
summed by the product loop into one copy of e_k.  Two more helpers have
no caller in the library: the rewrite of a symmetric polynomial in the
elementary basis (`express_in_elementary`, whose descent also decides
symmetry) and an exact linear solver over the rationals (`linear_solve`).
The `selftest` suites check both, and the per-layer tracer in `perfbench`
wraps them by name.
"""

from __future__ import annotations

import math
import re
import struct
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import index, mul
from typing import Any, NamedTuple

__all__ = [
    "Variable",
    "SparseTerms",
    "ProductRows",
    "RationalPoly",
    "LinearSolveResult",
    "make_ring",
    "linear_combination",
    "elementary_symmetric_all",
    "express_in_elementary",
    "first_difference",
    "linear_solve",
    "parse_poly",
    "parse_fraction",
    "format_fraction",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Variable:
    """Named generator with a positive grading weight.

    Immutable; it equals and hashes as (name, weight).
    """

    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: int = 1) -> None:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
        if weight < 1:
            raise ValueError(f"variable weight must be positive, got {weight}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return Variable, (self.name, self.weight)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Variable:
            return NotImplemented
        return self.name == other.name and self.weight == other.weight

    def __hash__(self) -> int:
        return hash((self.name, self.weight))

    def __repr__(self) -> str:
        return f"Variable(name={self.name!r}, weight={self.weight!r})"


Ring = tuple[Variable, ...]
Exponents = tuple[int, ...]


def make_ring(*variables: Variable) -> Ring:
    """Freeze an ordered variable tuple, rejecting duplicate names."""
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in ring: {names}")
    return tuple(variables)


def format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def _integral(value: Any) -> Any:
    """An integral Fraction as an int; any other value unchanged."""
    whole = type(value) is Fraction and value.denominator == 1
    return value.numerator if whole else value


_NARROWEST = 8  # bits per field of a packed key; the ladder doubles from here


def _rung(weight: int) -> int:
    """The narrowest field width on the ladder 8, 16, 32, ... that holds `weight`."""
    width = _NARROWEST
    while weight >> width:
        width <<= 1
    return width


def _pack(fields: Iterable[int], width: int) -> int:
    """The key of the fields (weight, e_1, ..., e_n), the first one highest."""
    key = 0
    for field in fields:
        key = key << width | field
    return key


@lru_cache(maxsize=None)
def _unpacker(size: int, width: int) -> Any:
    """The function from a key to its fields (weight, e_1, ..., e_size).

    Widths up to 64 bits read the key's big-endian bytes through `struct`.
    """
    if width <= 64:
        fmt = struct.Struct(">" + "BHIQ"[width.bit_length() - 4] * (size + 1))
        return lambda key: fmt.unpack(key.to_bytes(fmt.size, "big"))
    shifts = range(size * width, -1, -width)
    return lambda key: tuple([key >> shift & (1 << width) - 1 for shift in shifts])


def _integer_entries(exps: Iterable[int]) -> Exponents:
    """The entries of an exponent vector as ints, through `operator.index`.

    A float, `Fraction` or string entry raises ValueError naming the vector,
    rather than being truncated or parsed into an exponent.
    """
    exps = tuple(exps)
    try:
        return tuple(map(index, exps))
    except TypeError:
        raise ValueError(f"exponent vector {exps} has a non-integer entry") from None


class SparseTerms:
    """Canonical form and arithmetic shared by the sparse "key -> coefficient" types.

    A subclass constructor stores its ring or algebra and sets `terms =
    self._canonical(terms)`: from a Mapping or a sequence of (key,
    coefficient) pairs the kernel checks each pair, sums equal keys and
    drops zeros.  Every +, -, * and ** result is built by `_make` instead,
    which takes the space from its operand and trusts the keys the kernel
    made itself: it sums nothing and checks nothing, it only drops zeros.
    `_mul` can also add its product into a copy of a third element, as the
    recurrence of `elementary_symmetric_all` does in place of a product
    followed by a sum; it never changes an operand.
    The order of `terms` is unspecified; only `_ordered_keys` orders them,
    for text.

    Keys are tuples or packed ints.  `_width` is 0 for tuple keys; for
    packed int keys (`RationalPoly`) it is the width of their fields.
    Operands of two widths are brought to the wider one before a sum
    (`_at`), a product first widens its operands when its largest weight
    needs it, and `_make` narrows its result (`_narrow`) to the narrowest
    width that holds it, so the width stays a function of the terms.

    The subclass supplies these hooks:

    - `_entry(key, coef)`: the checked (key, coefficient) pair, or None
      for a term that is identically zero in the space; raises on a bad
      key or coefficient.  Only input from outside the kernel meets it;
    - `_order`: the sort key of a term key (None: the key itself, as for
      packed keys), with `_descending` choosing the direction; only
      `_ordered_keys` calls it;
    - `_term_text(key, coef)`: the text of one term, for `to_text`;
    - `_product_rows(other)`: the rows of key products for the product
      with `other`, where `rows[k1][k2]` is the product of the terms k1
      and k2 with coefficient 1 as (key, sign), sign 1 or -1, or None when
      it is zero in the space (`_entry` never sees the key, so the rows
      apply any truncation themselves); `_mul` reads one entry per pair of
      terms and multiplies the coefficients itself.  A `ProductRows` keeps
      every entry it works out.  None in place of the rows means packed
      keys: `_mul` adds the two int keys of each pair itself, with sign 1,
      and builds no row.  `RationalPoly` returns None, and supplies
      `_top`, `_at` and `_narrow` for its widths;
    - `_space()`: the constructor's arguments before the terms, as a tuple;
      operands from different spaces raise `ValueError` with `_mismatch`;
      `_shared` names the slots a result copies from its operand;
    - `_scalar(value)`: an int or Fraction embedded as a constant, its
      coefficient passed through `_exact`.

    Coefficients are exact, an int or a Fraction.  `_canonical` and scalar
    products store an integral one as an int; the + and * of two elements
    keep what + returns, because normalising each sum there would cost time
    on the hottest path.  Instances are immutable by convention.
    """

    __slots__ = ()
    _order: Any = None
    _descending = False
    _shared: tuple[str, ...] = ()
    _width = 0

    @staticmethod
    def _exact(value: Any) -> int | Fraction:
        """A rational value as an int when integral, else as a Fraction."""
        return value if type(value) is int else _integral(Fraction(value))

    def _canonical(self, terms: Any) -> dict:
        """The canonical term map of a Mapping or a sequence of pairs.

        An integral sum of Fractions is stored as an int.
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        entry = self._entry
        acc: dict = {}
        for key, coef in items:
            checked = entry(key, coef)
            if checked is not None:
                key, coef = checked
                acc[key] = acc[key] + coef if key in acc else coef
        return {k: _integral(c) for k, c in acc.items() if c}

    def _ordered_keys(self) -> list:
        """The keys of `terms` in term order (`_order`, reversed if `_descending`)."""
        return sorted(self.terms, key=self._order, reverse=self._descending)

    @staticmethod
    def _exponents(exps: Iterable[int], size: int, space: str) -> Exponents:
        """A checked exponent-vector key; `space` formats `size` for the message."""
        exps = _integer_entries(exps)
        if len(exps) != size:
            raise ValueError(f"exponent vector {exps} does not fit {space.format(size)}")
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps}")
        return exps

    def _make(self, acc: dict) -> Any:
        """An element of the same space, from a fresh dict whose keys the kernel made.

        The element takes the dict over as its terms, zeros deleted.
        """
        new = object.__new__(type(self))
        for name in self._shared:
            setattr(new, name, getattr(self, name))
        for key in [k for k, c in acc.items() if not c]:
            del acc[key]
        new.terms = acc
        if new._width > _NARROWEST:
            new._narrow()
        return new

    def _mul(self, other: Any, into: Any = None) -> Any:
        """The product with an element of the same space, term by term.

        With `into`, an element of the same space, the result is
        into + self * other, summed in one copy of `into`'s terms.
        """
        rows = self._product_rows(other)
        if rows is None:
            # packed keys: the product's largest weight is the sum of the
            # operands' (a domain), so this width holds every field of a sum
            width = _rung(self._top() + other._top())
            if into is not None:
                width = max(width, into._width)
            lhs, right = self._at(width), other._at(width).terms.items()
            acc: dict = {} if into is None else dict(into._at(width).terms)
            get = acc.get
            for k1, c1 in lhs.terms.items():
                for k2, c2 in right:
                    key = k1 + k2
                    coef = c1 * c2
                    old = get(key)
                    acc[key] = coef if old is None else old + coef
            return lhs._make(acc)
        right = other.terms.items()
        acc = {} if into is None else dict(into.terms)
        get = acc.get
        for k1, c1 in self.terms.items():
            row = rows[k1]
            for k2, c2 in right:
                hit = row[k2]
                if hit is not None:
                    key, sign = hit
                    coef = c1 * c2 if sign > 0 else -c1 * c2
                    old = get(key)
                    acc[key] = coef if old is None else old + coef
        return self._make(acc)

    def to_text(self) -> str:
        """Canonical text: "0", or the terms' texts joined by ' + ' in term order."""
        terms = self.terms
        texts = [self._term_text(k, terms[k]) for k in self._ordered_keys()]
        return " + ".join(texts) or "0"

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
        lhs = self
        if rhs._width != lhs._width:
            width = max(lhs._width, rhs._width)
            lhs, rhs = lhs._at(width), rhs._at(width)
        acc = dict(lhs.terms)
        for key, coef in rhs.terms.items():
            acc[key] = acc[key] + coef if key in acc else coef
        return lhs._make(acc)

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
            return self._make({k: _integral(c * q) for k, c in self.terms.items()})
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
        if not exponent:
            return self._scalar(1)
        # successive products: squaring a sparse element costs far more than
        # multiplying its power by the element again
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


class ProductRows(dict):
    """A memo of key products in one space: `rows[k1][k2]` as (key, sign) or None.

    `pair(k1, k2)` works out an entry the first time it is read; the row
    and the entry are kept from then on.  A space keeps its rows on its
    space object, so two equal spaces keep separate memos.
    """

    __slots__ = ("_pair",)

    def __init__(self, pair: Any) -> None:
        self._pair = pair

    def __missing__(self, left: Any) -> "_MemoRow":
        row = self[left] = _MemoRow(left, self._pair)
        return row


class _MemoRow(dict):
    """One row of a `ProductRows`: the products of one left key, kept."""

    __slots__ = ("_left", "_pair")

    def __init__(self, left: Any, pair: Any) -> None:
        self._left = left
        self._pair = pair

    def __missing__(self, right: Any) -> Any:
        hit = self[right] = self._pair(self._left, right)
        return hit


def linear_combination(pairs: Iterable[tuple[Any, Any]], zero: Any) -> Any:
    """zero + the sum of coef * value over the (coef, value) pairs.

    When `zero` is a kernel element, every value is an element of its space
    or a scalar, and the sum is collected in one dict and built once, its
    integral coefficients stored as ints, as `_canonical` does.  Any other
    `zero` (a number, or an element of another ring) is summed by + and *.
    """
    if not isinstance(zero, SparseTerms):
        total = zero
        for coef, value in pairs:
            total = total + coef * value
        return total
    base, acc = zero, dict(zero.terms)
    get = acc.get
    for coef, value in pairs:
        element = zero._coerce(value)
        if element is None:
            raise TypeError(f"cannot add {type(value).__name__} to {type(zero).__name__}")
        if element._width != base._width:  # packed keys: sum at the wider width
            width = max(element._width, base._width)
            if width != base._width:
                base = base._make(acc)._at(width)
                acc = dict(base.terms)
                get = acc.get
            element = element._at(width)
        q = zero._exact(coef)
        for key, c in element.terms.items():
            old = get(key)
            acc[key] = c * q if old is None else old + c * q
    return base._make({k: _integral(c) for k, c in acc.items()})


class RationalPoly(SparseTerms):
    """Sparse polynomial with exact rational coefficients over an ordered ring.

    `terms` maps packed int keys to coefficients (see the module docstring);
    `_width` is the width of their fields.  `exponent_items` gives the
    terms with exponent tuples.  `to_text` writes the kernel's grammar and
    formats each factor once per call.  Instances are immutable by
    convention: no method mutates `self`, every operation returns a
    polynomial in canonical form.
    """

    __slots__ = ("ring", "terms", "_width")
    _mismatch = "ring mismatch"
    _descending = True
    _shared = ("ring", "_width")

    def __init__(self, ring: Iterable[Variable], terms: Any = ()) -> None:
        self.ring = make_ring(*ring)
        weights = [v.weight for v in self.ring]
        weighted = [
            (sum(map(mul, weights, exps)), exps, coef)
            for exps, coef in self._canonical(terms).items()
        ]
        self._width = width = _rung(max([w for w, _, _ in weighted], default=0))
        self.terms = {_pack((w, *exps), width): coef for w, exps, coef in weighted}

    @classmethod
    def _packed(cls, ring: Ring, width: int, terms: dict) -> "RationalPoly":
        """A polynomial over a made ring from keys packed at `width`, unchecked."""
        base = object.__new__(cls)
        base.ring, base._width = ring, width
        return base._make(terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring: Iterable[Variable]) -> "RationalPoly":
        return cls._packed(make_ring(*ring), _NARROWEST, {})

    @classmethod
    def const(cls, ring: Iterable[Variable], value: Any) -> "RationalPoly":
        return cls._packed(make_ring(*ring), _NARROWEST, {0: cls._exact(value)})

    @classmethod
    def gen(cls, ring: Iterable[Variable], variable: Variable) -> "RationalPoly":
        ring = tuple(ring)
        try:
            pos = ring.index(variable)
        except ValueError:
            raise ValueError(f"{variable.name!r} is not a ring variable") from None
        size, width = len(ring), _rung(variable.weight)
        key = variable.weight << size * width | 1 << (size - 1 - pos) * width
        return cls._packed(make_ring(*ring), width, {key: 1})

    # -- basic structure -------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> int | Fraction:
        """The coefficient of the monomial with these exponents.

        It is 0 for a vector of the wrong length, with a negative entry or
        heavier than every term; a non-integer entry raises ValueError.
        """
        exps = _integer_entries(exps)
        if len(exps) != len(self.ring) or min(exps, default=0) < 0:
            return 0
        weight = sum([v.weight * e for v, e in zip(self.ring, exps)])
        if weight >> self._width:  # heavier than every term
            return 0
        return self.terms.get(_pack((weight, *exps), self._width), 0)

    def exponent_items(self) -> list[tuple[Exponents, int | Fraction]]:
        """The terms as (exponent tuple, coefficient) pairs, in no set order."""
        unpack = self._unpack()
        return [(unpack(key)[1:], coef) for key, coef in self.terms.items()]

    def term_weight(self, key: int) -> int:
        """The weight of the term with this key of `terms`: its top field."""
        return key >> len(self.ring) * self._width

    def homogeneous_weight(self) -> int | None:
        """Common weight of all terms; None for the zero polynomial."""
        weights = map(self.term_weight, self.terms)
        return self._single_degree(weights, "term weights")

    def homogeneous_components(self) -> dict[int, "RationalPoly"]:
        buckets: dict[int, dict[int, int | Fraction]] = {}
        shift = len(self.ring) * self._width
        for key, coef in self.terms.items():
            buckets.setdefault(key >> shift, {})[key] = coef
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

    def _term_text(self, key: int, coef: int | Fraction) -> str:
        return self._texts([(key, coef)])[0]

    def _product_rows(self, other: "RationalPoly") -> None:
        # packed keys multiply by adding: no rows
        return None

    def _space(self) -> tuple[Ring]:
        return (self.ring,)

    def _scalar(self, value: Any) -> "RationalPoly":
        return self._make({0: self._exact(value)})

    def __truediv__(self, other: Any) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- packed keys -------------------------------------------------------

    def _unpack(self) -> Any:
        return _unpacker(len(self.ring), self._width)

    def _exponents_of(self, key: int) -> Exponents:
        return self._unpack()(key)[1:]

    def _top(self) -> int:
        """The largest term weight; 0 for the zero polynomial."""
        return max(self.terms, default=0) >> len(self.ring) * self._width

    def _repacked(self, width: int) -> dict[int, int | Fraction]:
        unpack = self._unpack()
        return {_pack(unpack(key), width): coef for key, coef in self.terms.items()}

    def _at(self, width: int) -> "RationalPoly":
        """The same polynomial with its keys packed at `width` (self if they are)."""
        if width == self._width:
            return self
        new = object.__new__(RationalPoly)
        new.ring, new._width = self.ring, width
        new.terms = self._repacked(width)
        return new

    def _narrow(self) -> None:
        """Repack a result the kernel just made at the narrowest width that holds it."""
        width = _rung(self._top())
        if width != self._width:
            self.terms, self._width = self._repacked(width), width

    # -- ring maps ---------------------------------------------------------

    def substitute(
        self,
        bindings: Mapping[Variable, "RationalPoly"],
        target_ring: Iterable[Variable],
    ) -> "RationalPoly":
        """Apply the ring map sending each bound variable to its image.

        Every image lies in the target ring.  Unbound variables pass through
        unchanged and must therefore exist in the target ring whenever they
        actually occur.  After these checks the map is `evaluate` into the
        target ring, with every unbound variable sent to its own generator.
        """
        for v in bindings:
            if v not in self.ring:
                raise ValueError(f"{v.name!r} is not a variable of the source ring")
        target = make_ring(*target_ring)
        if any(img.ring != target for img in bindings.values()):
            raise ValueError("image ring differs from the target ring")
        plan = _plan([self])
        values = [bindings.get(v) for v in self.ring]
        for pos, v in enumerate(self.ring):
            if values[pos] is None and v in target:
                values[pos] = RationalPoly.gen(target, v)
            elif values[pos] is None and plan[1][pos]:
                raise ValueError(f"unbound variable {v.name!r} is missing from the target ring")
        return _evaluate_plan(plan, values, RationalPoly.zero(target))[0]

    def evaluate(self, values: Mapping[Variable, Any], zero: Any = Fraction(0)) -> Any:
        """Evaluate in an arbitrary commutative coefficient ring.

        Values must support +, *, integer powers and multiplication by
        Fraction.  Every variable that occurs with a positive exponent needs
        a value.
        """
        return _evaluate_all([self], [values.get(v) for v in self.ring], zero)[0]

    # -- serialization ------------------------------------------------------

    def _texts(self, items: Iterable[tuple[int, int | Fraction]]) -> list[str]:
        """The text of each (key, coefficient) term, formatting each factor once."""
        unpack = self._unpack()
        factors = [{1: v.name} for v in self.ring]
        out = []
        for key, coef in items:
            # str of an int or a Fraction is the text format_fraction gives
            parts = [str(coef)]
            for table, e in zip(factors, unpack(key)[1:]):
                if e:
                    text = table.get(e)
                    if text is None:
                        text = table[e] = f"{table[1]}^{e}"
                    parts.append(text)
            out.append("*".join(parts))
        return out

    def to_text(self) -> str:
        """The kernel's text, with one factor table for all the terms."""
        terms = self.terms
        return " + ".join(self._texts([(k, terms[k]) for k in self._ordered_keys()])) or "0"

    def __str__(self) -> str:
        return self.to_text()


def _plan(polys: Sequence[RationalPoly]) -> tuple:
    """The unpacked exponents that `_evaluate_plan` reads, of polynomials over one ring.

    A tuple (ring, used, rows): `used[i]` is the sorted exponents >= 1 of
    variable i over all terms, and `rows` holds per polynomial its terms as
    (coefficient, ((variable index, exponent), ...)) with exponents >= 1.
    """
    ring = polys[0].ring if polys else ()
    used: list[set[int]] = [set() for _ in ring]
    rows = []
    for p in polys:
        row = []
        for exps, coef in p.exponent_items():
            factors = tuple([(i, e) for i, e in enumerate(exps) if e])
            for i, e in factors:
                used[i].add(e)
            row.append((coef, factors))
        rows.append(row)
    return ring, [sorted(u) for u in used], rows


def _evaluate_plan(plan: tuple, values: Sequence, zero: Any) -> list:
    """The planned polynomials at `values`: one per variable, in ring order,
    None for none.  Power 1 is the value; each higher power that a term uses
    is built once, ascending: power e is power e-1 times the value when
    power e-1 is at hand, else `value ** e`.  A term costs one product per
    variable after its first, and each polynomial is one
    `linear_combination` into `zero`.
    """
    ring, used, rows = plan
    tables = []
    for v, value, exps in zip(ring, values, used):
        if value is None and exps:
            raise ValueError(f"no value supplied for {v.name!r}")
        table = {1: value}
        for e in exps:
            if e > 1:
                table[e] = table[e - 1] * value if e - 1 in table else value**e
        tables.append(table)

    out = []
    for row in rows:
        pairs = []
        for coef, factors in row:
            factor = None
            for i, e in factors:
                power = tables[i][e]
                factor = power if factor is None else factor * power
            pairs.append((coef, 1 if factor is None else factor))
        out.append(linear_combination(pairs, zero))
    return out


def _evaluate_all(polys: Sequence[RationalPoly], values: Sequence, zero: Any) -> list:
    """The polynomials, all over one ring, at `values`, through a fresh plan."""
    return _evaluate_plan(_plan(polys), values, zero)


_COEF_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?")


def parse_poly(text: str, ring: Iterable[Variable]) -> RationalPoly:
    """Parse the serialization grammar emitted by `RationalPoly.to_text`.

    Terms are separated by '+', factors inside a term by '*'; a factor is
    either an integer or p/q coefficient or a variable with an optional
    exponent of decimal digits.  A zero exponent is accepted: `x^0` and
    `x^00` are the factor 1.  A bare variable without a coefficient is
    accepted.  An integer factor is read by `int`, a p/q factor by
    `parse_fraction`, and each term goes straight to its packed key, summed
    with the equal terms before it; the keys are repacked wider only when a
    term's weight needs it.
    """
    ring = make_ring(*ring)
    size = len(ring)
    slots = {v.name: (size - 1 - i, v.weight) for i, v in enumerate(ring)}
    src = text.strip()
    if not src:
        raise ValueError("empty polynomial text")
    width = _NARROWEST
    terms: dict[int, int | Fraction] = {}
    for chunk in src.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coef: int | Fraction = 1
        weight, powers = 0, []
        for factor in (f.strip() for f in chunk.split("*")):
            if _COEF_RE.fullmatch(factor):
                try:
                    coef *= int(factor)
                except ValueError:  # p/q, or digits past int's limit
                    coef *= parse_fraction(factor)  # which words the error
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in slots:
                raise ValueError(f"unknown variable {name!r}")
            field, w = slots[name]
            weight += w * exp
            powers.append((field, exp))
        if weight >> width:
            unpack, width = _unpacker(size, width), _rung(weight)
            terms = {_pack(unpack(key), width): c for key, c in terms.items()}
        key = weight << size * width
        for field, exp in powers:
            key += exp << field * width
        terms[key] = terms.get(key, 0) + coef
    return RationalPoly._packed(ring, width, {k: _integral(c) for k, c in terms.items()})


def first_difference(p: RationalPoly, q: RationalPoly) -> str:
    """The leading monomial on which p and q differ, with both coefficients.

    Meant for failure messages; p and q share a ring.
    """
    diff = p - q
    if diff.is_zero():
        return "none"
    key = diff._ordered_keys()[0]
    # the term "1*x*y" without its coefficient; "1" for the constant term
    mono, exps = diff._term_text(key, 1).partition("*")[2] or "1", diff._exponents_of(key)
    return (
        f"{mono} ({format_fraction(p.coefficient(exps))}"
        f" against {format_fraction(q.coefficient(exps))})"
    )


# -- symmetric function utilities -------------------------------------------


def elementary_symmetric_all(values: Sequence[Any], one: Any) -> list[Any]:
    """All e_0..e_m of numbers or of elements of one ring whose unit is `one`.

    Each step is e_k += v * e_{k-1}, for k from the top down.  Numbers use
    + and *; for kernel elements the product is summed into a copy of e_k
    in one dict, and no value or `one` is changed.
    """
    fused = isinstance(one, SparseTerms)
    es = [one]
    for v in values:
        if fused:
            v = one._coerce(v)  # a scalar as a constant; another ring raises
        es.append(v * es[-1])
        for k in range(len(es) - 2, 0, -1):
            es[k] = v._mul(es[k - 1], es[k]) if fused else es[k] + v * es[k - 1]
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
    es = elementary_symmetric_all(gens, RationalPoly.const(src_ring, 1))
    work = p
    out_terms: list[tuple[Exponents, Fraction]] = []
    while work.terms:
        lead, coef = max(work.exponent_items())
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


class LinearSolveResult(NamedTuple):
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
