"""Fixed-point construction of maps with prescribed Jacobian determinant.

For densities close to 1, writes the map as identity plus a small
displacement and iterates
``eta <- L^{-1}(f - 1 - Q(D eta))``
with ``Q(M) = det(I + M) - 1 - tr(M)``, the nonlinear remainder of the
determinant expansion.
"""

from __future__ import annotations

import numpy as np

from ..errors import (ContractionBoundExceededError, InvalidInputError,
                      NoConvergenceError)
from ..geometry import smallmat
from ..geometry.grid import ReferenceGrid
from .maps import MoserMap, build_moser_map, nodal_jacobian
from .right_inverse import build_divergence_right_inverse

# the largest ||f - 1||_inf the iteration is started on
CONTRACTION_BOUND = 0.1


def q_residual(M: np.ndarray) -> np.ndarray:
    """det(I + M) - 1 - tr(M), elementwise over stacked square matrices."""
    M = np.asarray(M, dtype=float)
    out = (smallmat.det(np.eye(M.shape[-1]) + M) - 1.0
           - np.trace(M, axis1=-2, axis2=-1))
    return out if out.shape else float(out)


def moser_fixed_point(f_snapshot, grid: ReferenceGrid, tol: float = 1e-10,
                      max_iter: int = 60, t: float = 0.0) -> MoserMap:
    """Single-time map with det D phi = f, for nodal samples f within the
    contraction bound."""
    f = np.asarray(f_snapshot, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise InvalidInputError("density snapshot must have one value per node")
    dev = float(np.max(np.abs(f - 1.0)))
    if not dev <= CONTRACTION_BOUND * (1.0 + 1e-12):   # a NaN fails too
        raise ContractionBoundExceededError(
            f"||f - 1||_inf = {dev:.3g} exceeds the bound {CONTRACTION_BOUND:g}; "
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
