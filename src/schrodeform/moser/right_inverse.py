"""Bounded linear right-inverse of the divergence on the reference grid.

Solves the underdetermined discrete system ``div u = v`` with ``u = 0`` on
the boundary.  The divergence is the staggered (face-to-node) operator with
second-order wall closures for zero-trace fields; it has one exact left null
vector (a modified trapezoid profile), so the system is consistent exactly
when the right-hand side is orthogonal to it.  A matching constant is
projected out before solving.

Among the infinitely many solutions the discrete H1-minimal one is returned
(KKT saddle solve, factorized once per grid).  Minimizing the H1 norm rather
than the Euclidean one mirrors the boundedness of the continuum right
inverse into the smoother space: it is what keeps the returned field free of
wall layers, so downstream Jacobian determinants stay second-order accurate
up to the boundary.  The rank-one row redundancy is absorbed by bordering
the saddle system with the known null vector.

Unknowns are the interior face samples of each component; face samples on a
transverse boundary are pinned to zero, enforcing the zero trace exactly.

Corner rigidity: on a rectangle, any C^1 field vanishing on the boundary has
zero divergence at the corners (both tangential derivatives vanish), and the
discrete operator reproduces this exactly, as zero corner rows.  The corner
equations are therefore dropped; the right-inverse is exact on inputs whose
corner values vanish (after projection) and reports the corner mismatch
separately otherwise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SingularSystemError
from ..geometry.fields import GridFunction
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import vector_interpolator
from ..geometry.stencils import (
    _along_axis,
    _face_difference_1d,
    face_shape,
    lateral_face_mask,
    mimetic_divergence,
    mimetic_null_vector_1d,
)


def _zero_trace_face_to_node_1d(m: int) -> sp.csr_matrix:
    """Face midpoints -> nodes for fields vanishing at both wall nodes.

    Fourth-order reconstruction; the wall rows are zero and the wall-adjacent
    rows use a cubic through the (structurally zero) wall value, so the
    reconstruction error vanishes with the function at the wall.
    """
    n = m - 1
    if n < 4:
        rows, cols, vals = [], [], []
        for i in range(1, m - 1):
            rows += [i, i]
            cols += [i - 1, i]
            vals += [0.5, 0.5]
        return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    rows = [1, 1, 1]
    cols = [0, 1, 2]
    vals = [0.75, 0.5, -0.05]
    for i in range(2, m - 2):
        rows += [i] * 4
        cols += [i - 2, i - 1, i, i + 1]
        vals += [-1 / 16, 9 / 16, 9 / 16, -1 / 16]
    rows += [m - 2] * 3
    cols += [n - 1, n - 2, n - 3]
    vals += [0.75, 0.5, -0.05]
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _null_vector(grid: ReferenceGrid) -> np.ndarray:
    c = mimetic_null_vector_1d(grid.shape[0])
    for a in range(1, grid.dim):
        c = np.multiply.outer(c, mimetic_null_vector_1d(grid.shape[a]))
    return c.reshape(-1)


class ZeroTraceField:
    """Vector field on the grid with exactly zero boundary trace."""

    def __init__(self, grid: ReferenceGrid, node_values: np.ndarray,
                 div_residual: float, corner_mismatch: float = 0.0):
        bnd = grid.boundary_indices
        node_values = np.array(node_values)
        node_values[bnd] = 0.0
        self.grid = grid
        self.node_values = node_values
        self.div_residual = div_residual
        self.corner_mismatch = corner_mismatch
        self._interp = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self._interp is None:
            self._interp = vector_interpolator(self.grid, self.node_values.real)
        return self._interp(pts)


def _face_h1_metric(grid: ReferenceGrid, axis: int, mask: np.ndarray) -> sp.csr_matrix:
    """Discrete H1 metric on the kept face unknowns of one component."""
    shape = face_shape(grid, axis)
    n_kept = int(mask.sum())
    metric = sp.identity(n_kept, format="csr")
    for b in range(grid.dim):
        mb = shape[b]
        if mb < 2:
            continue
        op = _along_axis(shape, _face_difference_1d(mb, grid.spacing[b]), b)
        # removed lateral faces are structurally zero, so restricting the
        # columns keeps the penalty on the jump toward the boundary value
        op = op[:, mask]
        metric = metric + op.T @ op
    return metric.tocsr()


class DivergenceRightInverse:
    """H1-minimal right-inverse of the staggered divergence."""

    def __init__(self, grid: ReferenceGrid):
        self.grid = grid
        keep, blocks, metrics = [], [], []
        for a in range(grid.dim):
            mask = ~lateral_face_mask(grid, a)
            keep.append(mask)
            blocks.append(mimetic_divergence(grid, a)[:, mask])
            metrics.append(_face_h1_metric(grid, a, mask))
        self._keep = keep
        self._A = sp.hstack(blocks, format="csr")

        row_nnz = np.diff(self._A.indptr)
        self._rigid = np.flatnonzero(row_nnz == 0)
        self._solvable = np.flatnonzero(row_nnz > 0)

        null_full = _null_vector(grid)
        check = np.abs(null_full @ self._A).max()
        if check > 1e-10 / grid.min_spacing:
            raise SingularSystemError(
                f"left null vector mismatch {check:.3e}; stencil bug")
        self._null = null_full
        self._null_sum = float(null_full.sum())

        reduced = self._A[self._solvable, :].tocsr()
        border = null_full[self._solvable]
        metric = sp.block_diag(metrics, format="csr")
        n_x, n_lam = metric.shape[0], reduced.shape[0]
        kkt = sp.bmat([
            [metric, reduced.T, None],
            [reduced, None, border[:, None]],
            [None, border[None, :], None],
        ], format="csc")
        try:
            self._solve = spla.splu(kkt).solve
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        self._n_x, self._n_lam = n_x, n_lam
        self._reduced = reduced
        self._f2n = [
            _along_axis(grid.shape, _zero_trace_face_to_node_1d(grid.shape[a]), a)
            for a in range(grid.dim)
        ]

    def _project(self, values: np.ndarray) -> np.ndarray:
        """Subtract the constant that makes the rhs exactly solvable."""
        shift = float(self._null @ values) / self._null_sum
        return values - shift

    def apply_faces(self, v_values: np.ndarray):
        """Solve for the face unknowns of the staggered system.

        Returns (per-axis face arrays, residual over solvable rows, corner
        mismatch |rhs| over the rigid corner rows).
        """
        b = self._project(np.asarray(v_values, dtype=float))
        rhs = np.concatenate([np.zeros(self._n_x), b[self._solvable], [0.0]])
        x = self._solve(rhs)[:self._n_x]
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("right-inverse solve produced non-finite data")
        residual = float(np.max(np.abs(self._reduced @ x - b[self._solvable])))
        corner = float(np.max(np.abs(b[self._rigid]))) if self._rigid.size else 0.0
        faces, offset = [], 0
        for a in range(self.grid.dim):
            mask = self._keep[a]
            full = np.zeros(mask.size)
            cnt = int(mask.sum())
            full[mask] = x[offset:offset + cnt]
            faces.append(full)
            offset += cnt
        return faces, residual, corner

    def apply(self, v) -> ZeroTraceField:
        """Mean-adjusted scalar samples -> nodal vector field u with div u = v."""
        if isinstance(v, GridFunction):
            if v.is_vector:
                raise ValueError("right-inverse input must be scalar")
            values = v.values.real
        else:
            values = np.asarray(v, dtype=float)
        faces, residual, corner = self.apply_faces(values)
        nodes = np.stack([self._f2n[a] @ faces[a] for a in range(self.grid.dim)],
                         axis=-1)
        return ZeroTraceField(self.grid, nodes, residual, corner)


def build_divergence_right_inverse(grid: ReferenceGrid) -> DivergenceRightInverse:
    """Factorized right-inverse, cached per grid."""
    return grid.cached("right_inverse", lambda: DivergenceRightInverse(grid))
