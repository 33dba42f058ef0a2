"""Exact-arithmetic classification of abelian symmetries of N-Higgs-doublet potentials."""

from .exactmath import IntMatrix, SnfResult, det, hnf, snf
from .groups import GroupSignature, canonicalize, group_from_snf
from .monomials import Monomial, build_x_matrix, charge_vector, enumerate_monomials
from .torus import PhaseVector, TorusBasis, element_from_angles, equal_mod_center, torus_basis
from .classifier import (
    ClassificationResult,
    classify,
    probe_conjecture,
    symmetry_group_of_terms,
    verify_order_bound,
    witness_potential,
)
from .constructions import cyclic_c_matrix, product_c_matrix
from .cpext import (
    AbelianBase,
    GenPermMatrix,
    check_z3z3,
    classify_cp,
    commutant_support,
    cp_extensions,
    cp_realizable,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix", "SnfResult", "det", "hnf", "snf",
    "GroupSignature", "canonicalize", "group_from_snf",
    "Monomial", "build_x_matrix", "charge_vector", "enumerate_monomials",
    "PhaseVector", "TorusBasis", "element_from_angles", "equal_mod_center", "torus_basis",
    "ClassificationResult", "classify", "probe_conjecture",
    "symmetry_group_of_terms", "verify_order_bound", "witness_potential",
    "cyclic_c_matrix", "product_c_matrix",
    "AbelianBase", "GenPermMatrix", "check_z3z3", "classify_cp",
    "commutant_support", "cp_extensions", "cp_realizable",
    "__version__",
]
