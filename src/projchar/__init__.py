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

from importlib import import_module
from importlib.util import find_spec

__version__ = "0.1.0"

# the modules whose `__all__` the package re-exports, in this order; each is
# imported on first access, so `projchar.cli` loads only what it uses
_MODULES = ("qpoly", "projclass", "surfalg", "univdet")


def __getattr__(name: str):
    """A package name, resolved on first access and then kept (PEP 562)."""
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"]
        for module in _MODULES:
            value += __getattr__(module).__all__
    elif name.startswith("__") or find_spec(f"{__name__}.{name}") is not None:
        # dunder probes, and submodules that the import system loads itself
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
