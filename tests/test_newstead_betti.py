"""The rank-2 generator catalog against Newstead's Betti numbers.

The catalog classes generate the cohomology of N_0(2, 1), so the free
graded-commutative algebra on their degrees is at least as large as the
cohomology in every degree up to the real dimension 6(g-1).
"""

import pytest

from projchar.projclass import generator_catalog
from projchar.univdet import ParabolicDatum

from oracles import newstead_poincare_series


def free_algebra_series(degrees, top):
    """Hilbert series to t^top of the free graded-commutative algebra.

    An even generator of degree d contributes 1/(1 - t^d), an odd one 1 + t^d.
    """
    series = [1] + [0] * top
    for d in degrees:
        if d % 2:
            for k in range(top, d - 1, -1):
                series[k] += series[k - d]
        else:
            for k in range(d, top + 1):
                series[k] += series[k - d]
    return series


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_catalog_dominates_newstead_series(genus):
    dim = 6 * (genus - 1)
    series = newstead_poincare_series(genus, dim + 8)
    assert series[dim + 1 :] == [0] * 8
    betti = series[: dim + 1]
    assert betti == betti[::-1]
    if genus == 2:
        assert betti == [1, 0, 1, 4, 1, 0, 1]
    catalog = generator_catalog(2, genus, ParabolicDatum(), True)
    bound = free_algebra_series([deg for _, deg in catalog], dim)
    assert all(b >= p for b, p in zip(bound, betti)), (bound, betti)
