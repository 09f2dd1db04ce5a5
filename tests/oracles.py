"""Reference implementations that the tests check the library against.

Each oracle takes the long way round where the library uses a closed
form: the root ring x_1..x_n in place of the twist identity, and a general
span search over products of End classes in place of the parity argument
behind `surjectivity_witness`.  None of this is on a library path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from projchar.projclass import chern_ring, end_in_a
from projchar.qpoly import (
    RationalPoly,
    elementary_symmetric_all,
    linear_solve,
    make_ring,
)


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
    for exps, coef in p.terms.items():
        new = [0] * len(ring)
        for pos, e in zip(positions, exps):
            new[pos] = e
        out[tuple(new)] = coef
    return RationalPoly(ring, out)


def elementary_symmetric(k, variables, ring=None):
    """The k-th elementary symmetric polynomial of the given variables."""
    ring = make_ring(*(ring if ring is not None else variables))
    if not 0 <= k <= len(variables):
        raise ValueError(f"k={k} out of range 0..{len(variables)}")
    gens = [RationalPoly.gen(ring, v) for v in variables]
    return elementary_symmetric_all(gens, ring)[k]


def y_roots(ring):
    """The difference roots y_i = n*x_i - (x_1 + ... + x_n); their sum is zero."""
    gens = [RationalPoly.gen(ring.root_ring, v) for v in ring.root_vars]
    total = RationalPoly.zero(ring.root_ring)
    for gpoly in gens:
        total = total + gpoly
    return tuple(ring.rank * gpoly - total for gpoly in gens)


@lru_cache(maxsize=None)
def _root_esp(n):
    ring = chern_ring(n)
    gens = [RationalPoly.gen(ring.root_ring, v) for v in ring.root_vars]
    return tuple(elementary_symmetric_all(gens, ring.root_ring))


def expand_to_roots(ring, poly):
    """Substitute c_i -> e_i(x), landing in the root ring."""
    es = _root_esp(ring.rank)
    bindings = {v: es[i + 1] for i, v in enumerate(ring.chern_vars)}
    return poly.substitute(bindings, target_ring=ring.root_ring)


def span_witness(n):
    """True iff some z_k (k <= n) lies outside the span of products of End classes.

    For each k the products of the nonzero `end_in_a` classes with total
    weight k are written in the z-monomial basis, and z_k is tested for
    membership in their span by an exact linear solve.
    """
    ring = chern_ring(n)
    gens = []
    for j in range(1, n * n + 1):
        poly = end_in_a(n, j).poly
        if not poly.is_zero():
            gens.append((j, poly))
    for k in range(2, n + 1):
        products = _graded_products(gens, k, ring)
        target = RationalPoly.gen(ring.z_ring, ring.z_vars[k - 2])
        if not products:
            return True
        row_keys = sorted(
            set(itertools.chain(target.terms, *(p.terms for p in products))),
            reverse=True,
        )
        matrix = [[p.terms.get(rk, Fraction(0)) for p in products] for rk in row_keys]
        rhs = [target.terms.get(rk, Fraction(0)) for rk in row_keys]
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
