"""Fixed-point construction of maps with prescribed Jacobian determinant.

For densities close to 1, writes the map as identity plus a small
displacement and iterates
``eta <- L^{-1}(f - 1 - Q(D eta))``
with ``Q(M) = det(I + M) - 1 - tr(M)``, the nonlinear remainder of the
determinant expansion.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractionBoundExceededError, NoConvergenceError
from ..geometry import smallmat
from ..geometry.fields import GridFunction
from ..geometry.grid import ReferenceGrid
from .maps import MoserMap, build_moser_map, nodal_jacobian
from .right_inverse import build_divergence_right_inverse


def q_residual(M: np.ndarray) -> np.ndarray:
    """det(I + M) - 1 - tr(M), elementwise over stacked square matrices."""
    M = np.asarray(M, dtype=float)
    out = (smallmat.det(np.eye(M.shape[-1]) + M) - 1.0
           - np.trace(M, axis1=-2, axis2=-1))
    return out if out.shape else float(out)


def _as_nodal(f, grid: ReferenceGrid) -> np.ndarray:
    if isinstance(f, GridFunction):
        return f.values.real.copy()
    if callable(f):
        return np.asarray(f(grid.nodes), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (grid.n_nodes,):
        raise ValueError("density snapshot must have one value per node")
    return arr


def moser_fixed_point(f_snapshot, grid: ReferenceGrid, tol: float = 1e-10,
                      max_iter: int = 60, contraction_bound: float = 0.1,
                      t: float = 0.0) -> MoserMap:
    """Single-time map with det D phi = f, for f within the contraction bound."""
    f = _as_nodal(f_snapshot, grid)
    dev = float(np.max(np.abs(f - 1.0)))
    if dev > contraction_bound * (1.0 + 1e-12):
        raise ContractionBoundExceededError(
            f"||f - 1||_inf = {dev:.3g} exceeds the bound {contraction_bound:g}; "
            "use the combined pipeline")

    rinv = build_divergence_right_inverse(grid)
    eta = np.zeros((grid.n_nodes, grid.dim))
    deltas = []
    for iteration in range(1, max_iter + 1):
        rhs = f - 1.0 - q_residual(nodal_jacobian(grid, eta))
        new = rinv.apply(rhs).node_values.real
        delta = float(np.max(np.abs(new - eta)))
        deltas.append(delta)
        eta = new
        if delta <= tol:
            break
    else:
        raise NoConvergenceError(
            f"fixed point did not reach {tol:g} in {max_iter} iterations "
            f"(last delta {deltas[-1]:.3e})")

    values = grid.nodes + eta
    seed = grid.nodes - eta
    trial = build_moser_map(grid, t, values, seed, f, method="fixed_point",
                            iterations=iteration, step_deltas=deltas)
    inverse = trial.inverse(grid.nodes)
    final = build_moser_map(grid, t, values, inverse, f, method="fixed_point",
                            iterations=iteration, step_deltas=deltas)
    final.check()
    return final
