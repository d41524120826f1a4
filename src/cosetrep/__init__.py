"""Coset realizations of pseudo-orthogonal symmetry.

The package builds so(1,m) from a real Clifford algebra, realizes group
generators as vector fields on the coset of boosts with an h-valued
compensator (exactly, through resummed iterated-bracket series), factors
finite transformations into coset representative times rotation, and flows
sections of attached vectors along node-wise gauge fields.  `cosetrep verify
all` measures every promised property.
"""

from .errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
)
from .lie import CosetPoint, so1m_algebra
from .series import realize, so1m_closed_field
from .induced import (
    CompositeSection,
    factor_boost_rotation,
    flow_section,
    group_from_spec,
    induced_action,
    spinor_hrep,
    vector_hrep,
)

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "ClosureError",
    "DimensionError",
    "DomainError",
    "OrthochronousError",
    "CosetPoint",
    "so1m_algebra",
    "realize",
    "so1m_closed_field",
    "CompositeSection",
    "factor_boost_rotation",
    "flow_section",
    "group_from_spec",
    "induced_action",
    "spinor_hrep",
    "vector_hrep",
    "__version__",
]
