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

from .qpoly import (
    LinearSolveResult,
    RationalPoly,
    Variable,
    elementary_symmetric_all,
    express_in_elementary,
    first_difference,
    format_fraction,
    is_symmetric,
    linear_solve,
    make_ring,
    parse_fraction,
    parse_poly,
)
from .projclass import (
    AClassExpression,
    ChernExpression,
    ChernRing,
    ReductionData,
    a_classes,
    chern_ring,
    end_chern,
    end_in_a,
    express_c_poly_in_z,
    express_in_z,
    generator_catalog,
    hom_flag_chern,
    is_shift_invariant,
    lambda_p,
    rewrite_in_z,
    surjectivity_witness,
    twist,
    z_basis,
)
from .surfalg import (
    CanonicalityReport,
    HomologyClass,
    KunnethClass,
    ParamElement,
    ParameterAlgebra,
    SurfaceClass,
    SurfaceRing,
    canonicality_check,
    cycle_a,
    cycle_b,
    fundamental_class,
    point_class,
    random_kunneth,
    random_param_element,
    slant,
    twist_chern,
)
from .univdet import (
    ConditionReport,
    ConditionWitness,
    LineBundleWord,
    LineFactor,
    ModuliParams,
    ParabolicDatum,
    ParabolicPoint,
    bezout_min_nonneg,
    check_conditions,
    construct_xi,
    det_flag,
    det_point,
    det_u,
    extended_gcd,
    parse_moduli_params,
    weight_audit,
    weight_of,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qpoly
    "Variable",
    "RationalPoly",
    "LinearSolveResult",
    "make_ring",
    "parse_poly",
    "parse_fraction",
    "format_fraction",
    "elementary_symmetric_all",
    "is_symmetric",
    "express_in_elementary",
    "first_difference",
    "linear_solve",
    # projclass
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
    # surfalg
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
    # univdet
    "ParabolicPoint",
    "ParabolicDatum",
    "ModuliParams",
    "LineFactor",
    "LineBundleWord",
    "ConditionWitness",
    "ConditionReport",
    "det_u",
    "det_flag",
    "det_point",
    "check_conditions",
    "construct_xi",
    "weight_of",
    "weight_audit",
    "extended_gcd",
    "bezout_min_nonneg",
    "parse_moduli_params",
]
