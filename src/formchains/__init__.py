"""Exact homology of weighted complexes of invariant differential forms.

Left-invariant forms on a Lie group carry a graded bracket built from the
exterior derivative of the wedge product.  This package realizes that
bracket over exact rational arithmetic, assembles the weighted chain
complexes it generates, and computes their boundary ranks, kernels, Betti
numbers and Euler characteristics.  Two variations ship alongside the core:
the one-step extension of a form complex by invariant vector fields, and
doubly weighted complexes of polynomial forms and vector fields on R^n.

The usual entry points:

    catalog(name)            named structure constants ("so3", "dim2", ...)
    betti_row(spec, w)       homology of one weighted complex
    betti_table(spec, ws)    rows for several weights
    extended_betti(spec, w)  the same after adjoining vector fields
    double_weight_betti(...) polynomial complexes with a secondary weight

Everything is computed over Q; no floats enter any result.
"""

from .exactla import SparseRationalMatrix, kernel_dim, rank
from .extend import (
    check_extended_jacobi,
    check_system_jacobi,
    extended_betti,
    extended_bracket,
    extended_complex,
    k_split_dims,
)
from .forms import basis_form, ext_d, interior, sigma, super_bracket, wedge
from .homology import (
    HomologyReport,
    betti_pattern_dim2,
    betti_row,
    betti_table,
    complex_homology,
    homology_csv,
    homology_json,
    homology_text,
    rank_formula_check,
)
from .liealg import (
    CATALOG_ALIASES,
    CATALOG_NAMES,
    LieAlgebraSpec,
    catalog,
    load_structure_constants,
    parse_structure_constants,
    validate,
)
from .polyforms import (
    double_weight,
    double_weight_basis,
    double_weight_betti,
    double_weight_complex,
    lie_derivative,
    monomial_form,
    monomial_vector,
    poly_bracket,
    poly_d,
    poly_interior,
    poly_wedge,
)
from .superchain import (
    EnumerationCapExceeded,
    Level,
    WeightedComplex,
    chain_dim,
    chain_dim_formula_n3,
    enumerate_monomials,
    forms_complex,
    format_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_ALIASES",
    "CATALOG_NAMES",
    "EnumerationCapExceeded",
    "HomologyReport",
    "Level",
    "LieAlgebraSpec",
    "SparseRationalMatrix",
    "WeightedComplex",
    "basis_form",
    "betti_pattern_dim2",
    "betti_row",
    "betti_table",
    "catalog",
    "chain_dim",
    "chain_dim_formula_n3",
    "check_extended_jacobi",
    "check_system_jacobi",
    "complex_homology",
    "double_weight",
    "double_weight_basis",
    "double_weight_betti",
    "double_weight_complex",
    "enumerate_monomials",
    "ext_d",
    "extended_betti",
    "extended_bracket",
    "extended_complex",
    "format_monomial",
    "forms_complex",
    "homology_csv",
    "homology_json",
    "homology_text",
    "interior",
    "k_split_dims",
    "kernel_dim",
    "lie_derivative",
    "load_structure_constants",
    "monomial_form",
    "monomial_vector",
    "parse_structure_constants",
    "poly_bracket",
    "poly_d",
    "poly_interior",
    "poly_wedge",
    "rank",
    "rank_formula_check",
    "sigma",
    "super_bracket",
    "validate",
    "wedge",
]
