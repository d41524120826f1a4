"""Coset realizations of pseudo-orthogonal symmetry.

The package builds so(1,m) from a real Clifford algebra, realizes group
generators as vector fields on the coset of boosts with an h-valued
compensator (exactly, through resummed iterated-bracket series), factors
finite transformations into coset representative times rotation, and flows
sections of attached vectors along node-wise gauge fields.  `cosetrep verify
all` measures every promised property.
"""

from .coeffs import CoeffTable, bernoulli_numbers, l_coeffs, recursion_residuals
from .clifford import (
    CliffordSpace,
    Multivector,
    blade_product,
    commutator,
    exp_vector,
    matrix_rep,
    multivector_matrix,
)
from .errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
)
from .lie import (
    AlgebraElement,
    CosetPoint,
    DefiningRep,
    ReductiveAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    bracket,
    defining_rep_so1m,
    h_pairs,
    jacobi_residual,
    so1m_algebra,
)
from .series import (
    DEFAULT_ORDER,
    InfinitesimalAction,
    coset_element,
    even_bracket_weights,
    odd_bracket_weights,
    realize,
    so1m_closed_field,
    so1m_closed_field_variant,
)
from .induced import (
    CompositeSection,
    FactoredPair,
    HRepresentation,
    boost_matrix,
    check_proper_orthochronous,
    exp_coset,
    factor_boost_rotation,
    flow_section,
    gauge_transform_section,
    group_from_spec,
    induced_action,
    infinitesimal_action,
    reconstruct,
    rotation_embed,
    rotation_log_coords,
    section_from_json_dict,
    section_to_json_dict,
    spinor_hrep,
    vector_hrep,
)
from .verify import PropertyResult, SUITES, fd_action_derivative, suite_all

__version__ = "0.1.0"

__all__ = [
    "CoeffTable",
    "bernoulli_numbers",
    "l_coeffs",
    "recursion_residuals",
    "CliffordSpace",
    "Multivector",
    "blade_product",
    "commutator",
    "exp_vector",
    "matrix_rep",
    "multivector_matrix",
    "BranchError",
    "ClosureError",
    "DimensionError",
    "DomainError",
    "OrthochronousError",
    "AlgebraElement",
    "CosetPoint",
    "DefiningRep",
    "ReductiveAlgebra",
    "algebra_from_json_dict",
    "algebra_to_json_dict",
    "bracket",
    "defining_rep_so1m",
    "h_pairs",
    "jacobi_residual",
    "so1m_algebra",
    "DEFAULT_ORDER",
    "InfinitesimalAction",
    "coset_element",
    "even_bracket_weights",
    "odd_bracket_weights",
    "realize",
    "so1m_closed_field",
    "so1m_closed_field_variant",
    "CompositeSection",
    "FactoredPair",
    "HRepresentation",
    "boost_matrix",
    "check_proper_orthochronous",
    "exp_coset",
    "factor_boost_rotation",
    "flow_section",
    "gauge_transform_section",
    "group_from_spec",
    "induced_action",
    "infinitesimal_action",
    "reconstruct",
    "rotation_embed",
    "rotation_log_coords",
    "section_from_json_dict",
    "section_to_json_dict",
    "spinor_hrep",
    "vector_hrep",
    "PropertyResult",
    "SUITES",
    "fd_action_derivative",
    "suite_all",
    "__version__",
]
