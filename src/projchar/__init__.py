"""Exact characteristic-class calculus for projectivized bundles.

The package computes, over the rationals and without any floating point:

- canonical generators z_k of the algebra of Chern-class polynomials
  invariant under twisting by a line bundle, and rewrites of invariant
  classes in those generators (`projclass`);
- the reduction identity a_k = P + lambda * c_k with lambda != 0
  (`lambda_p`), plus Chern classes of endomorphism and Hom bundles;
- surface cohomology, Kunneth classes over a graded-commutative parameter
  algebra, slant products, and the twist-canonicality check (`surfalg`);
- integer weight arithmetic deciding when a universal bundle exists and
  constructing a weight-1 determinant word (`univdet`);
- a deterministic CLI over all of it (`projchar` console script).
"""

from . import projclass, qpoly, surfalg, univdet
from .qpoly import *  # noqa: F401,F403
from .projclass import *  # noqa: F401,F403
from .surfalg import *  # noqa: F401,F403
from .univdet import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *qpoly.__all__,
    *projclass.__all__,
    *surfalg.__all__,
    *univdet.__all__,
]
