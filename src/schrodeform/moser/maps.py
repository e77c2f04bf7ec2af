"""Containers for prescribed-determinant constructions.

A :class:`MoserMap` is a diffeomorphism of the closed reference domain,
equal to the identity on the boundary, stored as nodal samples of the map
and of its inverse together with the achieved determinant and its residual
against the prescribed density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import NonPositiveDensityError
from ..geometry import smallmat
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import nodal_spline
from ..geometry.stencils import node_gradient

# relative bound on |integral of f - meas(Omega0)| in DensityFamily.validate
_INTEGRAL_TOL = 1e-8
# Newton polish of MoserMap.inverse: residual bound and most iterations
_NEWTON_TOL = 1e-10
_NEWTON_MAXITER = 50


def nodal_jacobian(grid: ReferenceGrid, values: np.ndarray) -> np.ndarray:
    """Stencil Jacobian of nodal map samples, shape (n_nodes, dim, dim)."""
    values = np.asarray(values, dtype=float)
    return np.stack([node_gradient(grid, values[:, i]) for i in range(grid.dim)],
                    axis=1)


def nodal_determinant(grid: ReferenceGrid, values: np.ndarray) -> np.ndarray:
    return smallmat.det(nodal_jacobian(grid, values))


@dataclass
class DensityFamily:
    """Strictly positive density f(t, y) with unit average over the domain.

    ``evaluator(t, pts)`` gives f and ``d_dt(t, pts)`` its time derivative,
    both at one time and vectorized over points of shape (..., dim).
    """

    evaluator: Callable
    d_dt: Callable

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(t, pts), dtype=float)

    def rate(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.d_dt(t, pts), dtype=float)

    def validate(self, grid: ReferenceGrid, times) -> None:
        for t in times:
            vals = self(t, grid.nodes)
            if not np.min(vals) > 0.0:
                raise NonPositiveDensityError(
                    f"density reaches {np.min(vals):.3e} at t={t}")
            total = float(np.sum(grid.weights * vals))
            if not abs(total - grid.measure) <= _INTEGRAL_TOL * grid.measure:
                raise NonPositiveDensityError(
                    f"density integral {total:.12f} != meas(Omega0) at t={t}")


@dataclass
class MoserMap:
    """Diffeomorphism of the reference domain with prescribed determinant.

    ``flow_consistency`` is set on maps built by the flow method: the largest
    deviation of det D psi * f(t, .) / f(t0, .) from 1 along the forward flow.
    """

    grid: ReferenceGrid
    t: float
    values: np.ndarray
    inverse_values: np.ndarray
    det_values: np.ndarray
    det_residual: float
    method: str
    iterations: int = 0
    step_deltas: list = field(default_factory=list)
    flow_consistency: Optional[float] = None

    def __post_init__(self):
        self._interp = None
        self._interp_inv = None
        self._interp_jac = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self._interp is None:
            self._interp = nodal_spline(self.grid, self.values)
        return self._interp(pts)

    def inverse(self, pts: np.ndarray) -> np.ndarray:
        """Interpolated inverse, polished by Newton on the interpolated map."""
        if self._interp_inv is None:
            self._interp_inv = nodal_spline(self.grid, self.inverse_values)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        y = self._interp_inv(pts)
        y = _clip_to_box(y, self.grid)
        if self._interp_jac is None:
            self._interp_jac = nodal_spline(
                self.grid, nodal_jacobian(self.grid, self.values))
        jac = self._interp_jac
        for _ in range(_NEWTON_MAXITER):
            res = self(y) - pts
            if np.max(np.abs(res)) <= _NEWTON_TOL:
                break
            y = _clip_to_box(y - smallmat.solve(jac(y), res), self.grid)
        return y

    def check(self) -> None:
        """Assert the structural invariants (identity trace, positive det)."""
        bnd = self.grid.boundary_indices
        err = np.max(np.abs(self.values[bnd] - self.grid.nodes[bnd]))
        # both guards are written so that a NaN fails them
        if not err <= 0.0:
            raise AssertionError(f"map is not the identity on the boundary: {err:.3e}")
        if not np.min(self.det_values) > 0.0:
            raise AssertionError("map determinant is not positive everywhere")


def _clip_to_box(pts: np.ndarray, grid: ReferenceGrid) -> np.ndarray:
    out = np.array(pts, dtype=float)
    for a, (lo, hi) in enumerate(grid.bounds):
        np.clip(out[..., a], lo, hi, out=out[..., a])
    return out


def identity_moser_map(grid: ReferenceGrid, t: float = 0.0) -> MoserMap:
    nodes = grid.nodes.copy()
    return MoserMap(
        grid=grid, t=t, values=nodes, inverse_values=nodes.copy(),
        det_values=np.ones(grid.n_nodes), det_residual=0.0,
        method="identity")


def build_moser_map(grid: ReferenceGrid, t: float, values: np.ndarray,
                    inverse_values: np.ndarray, target: np.ndarray,
                    method: str, iterations: int = 0, step_deltas=None,
                    flow_consistency: Optional[float] = None) -> MoserMap:
    """Assemble a MoserMap, pinning the boundary and recording the residual."""
    values = np.array(values, dtype=float)
    inverse_values = np.array(inverse_values, dtype=float)
    bnd = grid.boundary_indices
    values[bnd] = grid.nodes[bnd]
    inverse_values[bnd] = grid.nodes[bnd]
    det = nodal_determinant(grid, values)
    residual = float(np.max(np.abs(det - np.asarray(target, dtype=float))))
    return MoserMap(grid=grid, t=t, values=values,
                    inverse_values=inverse_values, det_values=det,
                    det_residual=residual, method=method,
                    iterations=iterations, step_deltas=step_deltas or [],
                    flow_consistency=flow_consistency)
