"""Complex fields sampled on a reference grid."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from .grid import ReferenceGrid
from .interp import nodal_spline


class GridFunction:
    """Scalar or vector complex samples, one value per grid node.

    The inner product is quadrature-weighted, ``<f, g> = sum_i w_i conj(f_i) g_i``
    (componentwise summed for vector values), conjugate on the first slot.
    """

    def __init__(self, grid: ReferenceGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape[0] != grid.n_nodes:
            raise InvalidInputError(
                f"expected {grid.n_nodes} nodal values, got {values.shape[0]}")
        if values.ndim == 2 and values.shape[1] != grid.dim:
            raise InvalidInputError("vector values must have one component per axis")
        if values.ndim > 2:
            raise InvalidInputError("values must be scalar or vector per node")
        self.grid = grid
        self.values = values

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @classmethod
    def from_callable(cls, grid: ReferenceGrid, func) -> "GridFunction":
        return cls(grid, np.asarray(func(grid.nodes), dtype=complex))

    @classmethod
    def constant(cls, grid: ReferenceGrid, value: complex) -> "GridFunction":
        return cls(grid, np.full(grid.n_nodes, value, dtype=complex))

    def inner(self, other: "GridFunction") -> complex:
        a, b = self.values, other.values
        if a.ndim != b.ndim:
            raise InvalidInputError("mixed scalar/vector inner product")
        integrand = np.conj(a) * b
        if a.ndim == 2:
            integrand = integrand.sum(axis=1)
        return complex(np.sum(self.grid.weights * integrand))

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self).real))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def interpolator(self):
        """Spline interpolant of the samples over the closed domain."""
        if self.is_vector:
            raise InvalidInputError("interpolator() expects a scalar field")
        return nodal_spline(self.grid, self.values)

    def __repr__(self):
        kind = "vector" if self.is_vector else "scalar"
        return f"GridFunction({kind}, n={self.grid.n_nodes})"
