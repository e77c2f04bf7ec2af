"""Reference grids and diffeomorphism families (the calculus is in `.calculus`)."""

from .diffeo import (
    DiffeoFamily,
    JacobianData,
    identity_family,
    jacobian_at,
    jacobian_field,
    jacobian_log_derivative,
)
from .fields import GridFunction
from .grid import ReferenceGrid

__all__ = [
    "DiffeoFamily",
    "GridFunction",
    "JacobianData",
    "ReferenceGrid",
    "identity_family",
    "jacobian_at",
    "jacobian_field",
    "jacobian_log_derivative",
]
