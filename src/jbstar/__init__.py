"""Finite-dimensional JB*-algebra toolkit.

Models (hermitian-matrix algebras, spin factors, direct sums), Jordan
calculus (U-operators, triple products, operator commutativity, spectrum,
exponentials), Peirce decompositions, unitary structure, and
verification harnesses for piecewise Jordan homomorphisms and quadratic
maps on operator-commuting elements.
"""

__version__ = "0.1.0"

from .algebras import (
    AlgebraHandle,
    Element,
    algebra_from_descriptor,
    algebra_to_descriptor,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    element_from_json,
    element_to_json,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
)
from .kernel import Tolerance
from .reports import CheckReport, ResidualCheck

__all__ = [
    "AlgebraHandle",
    "Element",
    "Tolerance",
    "CheckReport",
    "ResidualCheck",
    "algebra_from_descriptor",
    "algebra_to_descriptor",
    "build_direct_sum",
    "build_hermitian_matrix_algebra",
    "build_spin_factor",
    "element_from_json",
    "element_to_json",
    "involution",
    "jbstar_norm",
    "jordan_product",
    "random_element",
    "__version__",
]
