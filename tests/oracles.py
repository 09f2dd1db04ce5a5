"""Reference implementations that the tests check the library against.

Each oracle takes the long way round where the library uses a closed
form: the root ring x_1..x_n in place of the twist identity, a normal
form expanded back through every z_k(c) in place of the derivation that
decides twist invariance, e_k written
out over every k-subset in place of the one-pass recurrence of
`elementary_symmetric_all`, a general span search over products of End
classes in place of the parity argument behind `surjectivity_witness`,
an evaluation term by term, each power of a value by ** and the terms
added one at a time, in place of the shared power table and the one-pass
sums behind `RationalPoly.evaluate`, `substitute` and `a_classes`, a
running sum by + and * in place of the one-pass `linear_combination`
and of the products that `elementary_symmetric_all` sums in place,
and a Kunneth product written out part by part, over ParamElements, in
place of the flat (surface key, monomial) terms of `KunnethClass` and
their product memo, and a parser that reads every coefficient as a
`Fraction` and hands exponent vectors to the checked constructor in place
of the integer coefficients and packed keys of `parse_poly`.  Newstead's
closed form for the Betti numbers of the rank-2 moduli space is an
outside bound on the generator catalog.  None of this is on a library
path.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

from projchar.projclass import chern_ring, end_in_a
from projchar.qpoly import RationalPoly, Variable, linear_solve, make_ring, parse_fraction
from projchar.surfalg import KunnethClass


def root_vars(ring):
    """The formal Chern roots x_1..x_n of a rank-n `ChernRing`."""
    return tuple(Variable(f"x{i}") for i in range(1, ring.rank + 1))


def root_ring(ring):
    """The polynomial ring in the Chern roots of a rank-n `ChernRing`."""
    return make_ring(*root_vars(ring))


def embedded(p, ring):
    """p reinterpreted over a larger ring that contains every variable of p."""
    ring = make_ring(*ring)
    positions = []
    for v in p.ring:
        try:
            positions.append(ring.index(v))
        except ValueError:
            raise ValueError(f"{v.name!r} is missing from the target ring") from None
    out = {}
    for exps, coef in p.exponent_items():
        new = [0] * len(ring)
        for pos, e in zip(positions, exps):
            new[pos] = e
        out[tuple(new)] = coef
    return RationalPoly(ring, out)


def elementary_symmetric(k, variables, ring=None):
    """The k-th elementary symmetric polynomial of the given variables.

    One term 1 * (product of the k variables) per k-subset, written out.
    """
    ring = make_ring(*(ring if ring is not None else variables))
    if not 0 <= k <= len(variables):
        raise ValueError(f"k={k} out of range 0..{len(variables)}")
    terms = []
    for subset in itertools.combinations([ring.index(v) for v in variables], k):
        terms.append((tuple(int(pos in subset) for pos in range(len(ring))), 1))
    return RationalPoly(ring, terms)


def y_roots(ring):
    """The difference roots y_i = n*x_i - (x_1 + ... + x_n); their sum is zero."""
    gens = [RationalPoly.gen(root_ring(ring), v) for v in root_vars(ring)]
    total = RationalPoly.zero(root_ring(ring))
    for gpoly in gens:
        total = total + gpoly
    return tuple(ring.rank * gpoly - total for gpoly in gens)


@lru_cache(maxsize=None)
def _root_esp(n):
    """e_0..e_n of the roots, each written out over its k-subsets."""
    xs = root_vars(chern_ring(n))
    return tuple(elementary_symmetric(k, xs) for k in range(n + 1))


def expand_to_roots(ring, poly):
    """Substitute c_i -> e_i(x), landing in the root ring."""
    es = _root_esp(ring.rank)
    bindings = {v: es[i + 1] for i, v in enumerate(ring.c_ring)}
    return poly.substitute(bindings, target_ring=root_ring(ring))


def rewrite_by_back_expansion(ring, poly):
    """The z-normal form of a class, or None when it is not twist-invariant.

    The normal form is read off the c_1-free terms, each divided by n^w for
    its weight w.  Every polynomial in the z_k is invariant, so the class is
    invariant exactly when that normal form, substituted through every
    z_k(c), gives the class again.
    """
    terms = {}
    for exps, coef in poly.exponent_items():
        if not exps[0]:
            weight = sum(k * e for k, e in enumerate(exps, start=1))
            terms[exps[1:]] = Fraction(coef, ring.rank**weight)
    q = RationalPoly(ring.z_ring, terms)
    if q.substitute(ring._z_in_c, target_ring=ring.c_ring) != poly:
        return None
    return q


def evaluate_by_terms(poly, values, zero=Fraction(0)):
    """poly at the values, term by term, with a running sum.

    Each (variable, exponent) pair is raised once by ** and kept; each term
    is the product of its powers times its coefficient, added to the total
    by +.  Every variable with a positive exponent needs a value.
    """
    total = zero
    powers = {}
    for exps, coef in poly.exponent_items():
        factor = None
        for pos, e in enumerate(exps):
            if not e:
                continue
            v = poly.ring[pos]
            if v not in values:
                raise ValueError(f"no value supplied for {v.name!r}")
            piece = powers.get((pos, e))
            if piece is None:
                piece = powers[(pos, e)] = values[v] ** e
            factor = piece if factor is None else factor * piece
        total = total + (coef if factor is None else coef * factor)
    return total


def a_classes_by_evaluation(rank, chern_values, zero=Fraction(0)):
    """a_2..a_rank as `evaluate_by_terms` of each z_k(c) at the values.

    Every z_k is evaluated on its own, with its own powers of the values;
    missing trailing values are zero.  The inputs are not checked.
    """
    ring = chern_ring(rank)
    values = list(chern_values)
    values += [zero] * (rank - len(values))
    assignment = dict(zip(ring.c_ring, values))
    return [evaluate_by_terms(z, assignment, zero) for z in ring._z_in_c.values()]


def linear_combination_by_addition(pairs, zero):
    """zero + coef * value for each (coef, value) pair in turn, by + and *."""
    total = zero
    for coef, value in pairs:
        total = total + coef * value
    return total


def elementary_symmetric_by_steps(values, one):
    """e_0..e_m by the recurrence e_k = e_k + v * e_{k-1}, each step by + and *."""
    es = [one]
    for v in values:
        es.append(v * es[-1])
        for k in range(len(es) - 2, 0, -1):
            es[k] = es[k] + v * es[k - 1]
    return es


def a_classes_by_running_sums(rank, values, zero):
    """a_2..a_rank at exactly `rank` values, each a_k summed term by term.

    The shared c_1 powers are those of `a_classes`; each term coef * c_1^a
    * c_i is added to a running total by +, which builds two elements per
    term.
    """
    c1_powers = [None, values[0]]
    for _ in range(2, rank + 1):
        c1_powers.append(c1_powers[-1] * values[0])
    out = []
    for z in chern_ring(rank)._z_in_c.values():
        total = zero
        for exps, coef in z.exponent_items():
            factor = c1_powers[exps[0]]
            for value, e in zip(values[1:], exps[1:]):
                if e:
                    piece = value**e
                    factor = piece if factor is None else factor * piece
            total = total + coef * factor
        out.append(total)
    return out


def span_witness(n):
    """True iff some z_k (k <= n) lies outside the span of products of End classes.

    For each k the products of the nonzero `end_in_a` classes with total
    weight k are written in the z-monomial basis, and z_k is tested for
    membership in their span by an exact linear solve.
    """
    ring = chern_ring(n)
    gens = []
    for j in range(1, n * n + 1):
        poly = end_in_a(n, j)
        if not poly.is_zero():
            gens.append((j, poly))
    for k in range(2, n + 1):
        products = _graded_products(gens, k, ring)
        target = RationalPoly.gen(ring.z_ring, ring.z_ring[k - 2])
        if not products:
            return True
        columns = [dict(p.exponent_items()) for p in products]
        wanted = dict(target.exponent_items())
        row_keys = sorted(set(itertools.chain(wanted, *columns)), reverse=True)
        matrix = [[col.get(rk, Fraction(0)) for col in columns] for rk in row_keys]
        rhs = [wanted.get(rk, Fraction(0)) for rk in row_keys]
        if linear_solve(matrix, rhs).status == "inconsistent":
            return True
    return False


def _graded_products(gens, weight, ring):
    """All products of the homogeneous generators with total weight `weight`."""
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        if i == len(gens):
            return
        j, poly = gens[i]
        power = acc
        for e in range(remaining // j + 1):
            if e:
                power = power * poly
            rec(i + 1, remaining - e * j, power)

    rec(0, weight, RationalPoly.const(ring.z_ring, 1))
    return out


def kunneth_product_by_parts(a, b):
    """a * b from the parts: each pair of surface keys by `basis_mul`, then
    the parameter parts multiplied with the Koszul sign of the left key's
    degree against the right part, by `sign_twist`.
    """
    pairs = []
    for k1, p1 in a.parts.items():
        for k2, p2 in b.parts.items():
            hit = a.ring.basis_mul(k1, k2)
            if hit is not None:
                sign, key = hit
                pairs.append((key, p1 * p2.sign_twist(k1[0]) * sign))
    return KunnethClass(a.algebra, a.ring, pairs)


_COEF_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?")


def parse_poly_by_fractions(text, ring):
    """`parse_poly` the long way, with the same grammar and error texts.

    Each coefficient factor is a `Fraction` from `parse_fraction`, each term
    an exponent vector, and the checked `RationalPoly` constructor sums
    equal monomials.
    """
    ring = make_ring(*ring)
    by_name = {v.name: i for i, v in enumerate(ring)}
    src = text.strip()
    if not src:
        raise ValueError("empty polynomial text")
    terms = []
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


def newstead_poincare_series(genus, top):
    """Coefficients of t^0..t^top in the Poincare series of N_0(2, 1).

    N_0(2, 1) is the moduli space of stable rank-2 bundles of fixed odd
    determinant on a curve of the given genus.  Newstead's closed form is
    P_t = ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)) / ((1-t^2)(1-t^4)), expanded
    here as an exact integer series: the numerator, then one geometric
    series per factor of the denominator.
    """
    g2 = 2 * genus
    series = [0] * (top + 1)
    for i in range(g2 + 1):
        if 3 * i <= top:
            series[3 * i] += math.comb(g2, i)
        if g2 + i <= top:
            series[g2 + i] -= math.comb(g2, i)
    for step in (2, 4):  # multiply by 1/(1 - t^step)
        for d in range(step, top + 1):
            series[d] += series[d - step]
    return series
