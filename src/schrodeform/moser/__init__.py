"""Prescribed Jacobian determinant constructions on the reference domain."""

from .fixed_point import moser_fixed_point, q_residual
from .flow import moser_flow
from .maps import (
    DensityFamily,
    MoserMap,
    nodal_determinant,
    nodal_jacobian,
)
from .pipeline import NormalizedFamily, moser_combined, normalize_diffeo
from .right_inverse import (
    DivergenceRightInverse,
    ZeroTraceField,
    build_divergence_right_inverse,
)

__all__ = [
    "DensityFamily",
    "DivergenceRightInverse",
    "MoserMap",
    "NormalizedFamily",
    "ZeroTraceField",
    "build_divergence_right_inverse",
    "moser_combined",
    "moser_fixed_point",
    "moser_flow",
    "nodal_determinant",
    "nodal_jacobian",
    "normalize_diffeo",
    "q_residual",
]
