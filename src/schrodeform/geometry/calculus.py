"""Pullback/pushforward calculus between the moving and reference domains.

Fields on the moving domain are plain evaluator callbacks ``x -> values``;
all sampled state lives on the reference grid.  The starred operators
compose with the map, the sharp operators additionally carry the
``sqrt(det J)`` weight that makes them unitary between the two L2 spaces.

The pulled differential operators use the collocated node stencils
(centered interior, one-sided second-order boundary rows), and the pulled
Laplacian is literally the divergence applied to the gradient, so the
composition identity holds bit for bit.  The one-sided closures make the
divergence and Laplacian second-order accurate away from the boundary but
lower-order in the outermost node layers; the assembled Hamiltonians do
not share this limitation (they are built from the staggered form in
:mod:`schrodeform.operators`).
"""

from __future__ import annotations

import numpy as np

from ..errors import EvaluationOutsideDomainError, InvalidInputError
from .diffeo import DiffeoFamily, jacobian_field
from .fields import GridFunction
from .grid import ReferenceGrid
from .stencils import node_derivative, node_gradient


def _evaluate_field(field, pts: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(field(pts), dtype=complex)
    except Exception as exc:  # noqa: BLE001 - callback failure is the contract
        raise EvaluationOutsideDomainError(
            f"field evaluation failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EvaluationOutsideDomainError("field returned non-finite values")
    return vals


def pullback(family: DiffeoFamily, t: float, field, grid: ReferenceGrid) -> GridFunction:
    """(h* phi)(y) = phi(h(t, y)) sampled on the grid nodes."""
    family.check_time(t)
    pts = np.asarray(family.map(t, grid.nodes), dtype=float)
    return GridFunction(grid, _evaluate_field(field, pts))


def pushforward(family: DiffeoFamily, t: float, g: GridFunction):
    """(h_* psi)(x) = psi(h^{-1}(t, x)) as an evaluator on the moving domain."""
    family.check_time(t)
    interp = g.interpolator()

    def field(x):
        y = family.inverse_map(t, x)
        return interp(y)

    return field


def pullback_sharp(family: DiffeoFamily, t: float, field, grid: ReferenceGrid) -> GridFunction:
    """Unitary pullback: sqrt(det J) * (phi o h)."""
    g = pullback(family, t, field, grid)
    _, det, _ = jacobian_field(family, t, grid.nodes)
    return GridFunction(grid, np.sqrt(det) * g.values)


def pushforward_sharp(family: DiffeoFamily, t: float, g: GridFunction):
    """Inverse of the unitary pullback: (psi / sqrt(det J)) o h^{-1}."""
    family.check_time(t)
    interp = g.interpolator()

    def field(x):
        y = family.inverse_map(t, x)
        _, det, _ = jacobian_field(family, t, y)
        return interp(y) / np.sqrt(det)

    return field


def pulled_gradient(family: DiffeoFamily, t: float, g: GridFunction) -> GridFunction:
    """(h* grad_x h_*) g = (J^{-1})^t grad_y g, nodewise."""
    if g.is_vector:
        raise InvalidInputError("pulled_gradient expects a scalar field")
    grid = g.grid
    _, _, Jinv = jacobian_field(family, t, grid.nodes)
    grad = node_gradient(grid, g.values)
    # (J^{-1})^t grad: contract the row index of J^{-1} with the gradient.
    vals = np.einsum("nij,ni->nj", Jinv, grad)
    return GridFunction(grid, vals)


def pulled_divergence(family: DiffeoFamily, t: float, A: GridFunction) -> GridFunction:
    """(h* div_x h_*) A = div_y(|J| J^{-1} A) / |J|, nodewise flux form."""
    if not A.is_vector:
        raise InvalidInputError("pulled_divergence expects a vector field")
    grid = A.grid
    _, det, Jinv = jacobian_field(family, t, grid.nodes)
    flux = det[:, None] * np.einsum("nij,nj->ni", Jinv, A.values)
    div = np.zeros(grid.n_nodes, dtype=complex)
    for a in range(grid.dim):
        div += node_derivative(grid, a) @ flux[:, a]
    return GridFunction(grid, div / det)


def pulled_laplacian(family: DiffeoFamily, t: float, g: GridFunction) -> GridFunction:
    """(h* Lap_x h_*) g, exactly pulled_divergence(pulled_gradient(g))."""
    return pulled_divergence(family, t, pulled_gradient(family, t, g))


def moving_norm_squared(family: DiffeoFamily, t: float, g: GridFunction) -> float:
    """L2 norm squared on the moving domain of h_* g (det-weighted quadrature)."""
    grid = g.grid
    _, det, _ = jacobian_field(family, t, grid.nodes)
    vals = np.abs(g.values) ** 2
    if vals.ndim == 2:
        vals = vals.sum(axis=1)
    return float(np.sum(grid.weights * det * vals))
