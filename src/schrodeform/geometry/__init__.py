"""Reference grids, diffeomorphism families, and the pullback calculus."""

from .calculus import (
    moving_norm_squared,
    pullback,
    pullback_sharp,
    pulled_divergence,
    pulled_gradient,
    pulled_laplacian,
    pushforward,
    pushforward_sharp,
)
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
    "moving_norm_squared",
    "pullback",
    "pullback_sharp",
    "pulled_divergence",
    "pulled_gradient",
    "pulled_laplacian",
    "pushforward",
    "pushforward_sharp",
]
