"""Sparse difference operators on reference grids.

Two families of operators are provided and cached per grid:

* node-collocated first derivatives (centered interior, one-sided
  second-order rows at the boundary) used by the pointwise operator
  calculus, and
* staggered face operators (exact midpoint differences/averages plus the
  mimetic node divergence with half-cell boundary closures) used by the
  Hamiltonian assembly and by the divergence right-inverse.

Flattening is C-order throughout, so an operator acting along axis ``a`` is
the Kronecker product of identities and the 1D operator in position ``a``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import ReferenceGrid, _trapezoid_weights


def _node_derivative_1d(m: int, dy: float) -> sp.csr_matrix:
    """Collocated d/dy on m nodes: centered interior, one-sided ends."""
    rows, cols, vals = [], [], []
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-1.5 / dy, 2.0 / dy, -0.5 / dy]
    for i in range(1, m - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-0.5 / dy, 0.5 / dy]
    rows += [m - 1, m - 1, m - 1]
    cols += [m - 3, m - 2, m - 1]
    vals += [0.5 / dy, -2.0 / dy, 1.5 / dy]
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def _face_difference_1d(m: int, dy: float) -> sp.csr_matrix:
    """Midpoint derivative: m nodes -> m-1 faces."""
    n = m - 1
    main = sp.diags([-np.ones(n) / dy], [0], shape=(n, m))
    upper = sp.diags([np.ones(n) / dy], [1], shape=(n, m))
    return (main + upper).tocsr()


def _face_average_1d(m: int) -> sp.csr_matrix:
    """Midpoint average: m nodes -> m-1 faces."""
    n = m - 1
    return (sp.diags([np.full(n, 0.5)], [0], shape=(n, m))
            + sp.diags([np.full(n, 0.5)], [1], shape=(n, m))).tocsr()


def _face_to_node_1d(m: int) -> sp.csr_matrix:
    """Average m-1 face values back to m nodes (2nd-order extrapolated ends)."""
    n = m - 1
    rows, cols, vals = [0, 0], [0, 1], [1.5, -0.5]
    for i in range(1, m - 1):
        rows += [i, i]
        cols += [i - 1, i]
        vals += [0.5, 0.5]
    rows += [m - 1, m - 1]
    cols += [n - 2, n - 1]
    vals += [-0.5, 1.5]
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _mimetic_divergence_1d(m: int, dy: float) -> sp.csr_matrix:
    """Staggered divergence m-1 faces -> m nodes, for zero-trace fields.

    Interior rows are the exact midpoint difference; the wall rows use the
    second-order one-sided derivative of a field known to vanish at the wall,
    (9 u(dy/2) - u(3 dy/2)) / (3 dy).  The operator has the exact left null
    vector returned by :func:`mimetic_null_vector_1d`.
    """
    n = m - 1
    rows, cols, vals = [0, 0], [0, 1], [3.0 / dy, -1.0 / (3.0 * dy)]
    for i in range(1, m - 1):
        rows += [i, i]
        cols += [i - 1, i]
        vals += [-1.0 / dy, 1.0 / dy]
    rows += [m - 1, m - 1]
    cols += [n - 1, n - 2]
    vals += [-3.0 / dy, 1.0 / (3.0 * dy)]
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def mimetic_null_vector_1d(m: int) -> np.ndarray:
    """Exact left null vector of the 1D staggered divergence (unit interior)."""
    c = np.ones(m)
    c[0] = c[-1] = 3.0 / 8.0
    c[1] = c[-2] = 9.0 / 8.0
    return c


def _along_axis(shape: tuple, op1d: sp.spmatrix, axis: int) -> sp.csr_matrix:
    """Apply ``op1d`` along ``axis`` of a C-ordered array of ``shape``.

    ``op1d`` may be rectangular (nodes vs faces); only the sizes of the other
    axes are read from ``shape``.  The result is CSR in every dimension, so
    callers may slice it (scipy does not subscript ``dia_matrix``).
    """
    mats = []
    for a, m in enumerate(shape):
        mats.append(op1d if a == axis else sp.identity(m, format="csr"))
    out = mats[0]
    for mat in mats[1:]:
        out = sp.kron(out, mat, format="csr")
    return out.tocsr()


def node_derivative(grid: ReferenceGrid, axis: int) -> sp.csr_matrix:
    """Collocated d/dy_axis on all nodes."""
    return grid.cached(("node_d", axis), lambda: _along_axis(
        grid.shape, _node_derivative_1d(grid.shape[axis], grid.spacing[axis]), axis))


def face_difference(grid: ReferenceGrid, axis: int) -> sp.csr_matrix:
    """Nodes -> axis faces, exact midpoint derivative."""
    return grid.cached(("face_d", axis), lambda: _along_axis(
        grid.shape, _face_difference_1d(grid.shape[axis], grid.spacing[axis]), axis))


def face_average(grid: ReferenceGrid, axis: int) -> sp.csr_matrix:
    """Nodes -> axis faces, midpoint average."""
    return grid.cached(("face_avg", axis), lambda: _along_axis(
        grid.shape, _face_average_1d(grid.shape[axis]), axis))


def face_to_node(grid: ReferenceGrid, axis: int) -> sp.csr_matrix:
    """Axis faces -> nodes, midpoint average with extrapolated ends."""
    return grid.cached(("face_to_node", axis), lambda: _along_axis(
        grid.shape, _face_to_node_1d(grid.shape[axis]), axis))


def mimetic_divergence(grid: ReferenceGrid, axis: int) -> sp.csr_matrix:
    """Axis faces -> nodes, staggered divergence with half-cell closures."""
    return grid.cached(("mimetic_div", axis), lambda: _along_axis(
        grid.shape, _mimetic_divergence_1d(grid.shape[axis], grid.spacing[axis]), axis))


def face_shape(grid: ReferenceGrid, axis: int) -> tuple:
    return tuple(m - 1 if a == axis else m for a, m in enumerate(grid.shape))


def face_coords(grid: ReferenceGrid, axis: int) -> np.ndarray:
    """Coordinates of the axis-`axis` face points, shape (n_faces, dim)."""
    def build():
        axes = []
        for a, ax in enumerate(grid.axes):
            axes.append(0.5 * (ax[:-1] + ax[1:]) if a == axis else ax)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        pts.setflags(write=False)
        return pts
    return grid.cached(("face_coords", axis), build)


def face_weights(grid: ReferenceGrid, axis: int) -> np.ndarray:
    """Quadrature weights of the axis face points (midpoint x trapezoid)."""
    def build():
        ws = [np.full(m - 1, grid.spacing[a]) if a == axis
              else _trapezoid_weights(m, grid.spacing[a])
              for a, m in enumerate(grid.shape)]
        w = ws[0]
        for extra in ws[1:]:
            w = np.multiply.outer(w, extra)
        w = w.reshape(-1)
        w.setflags(write=False)
        return w
    return grid.cached(("face_w", axis), build)


def lateral_face_mask(grid: ReferenceGrid, axis: int) -> np.ndarray:
    """Faces of `axis` sitting on the boundary of a transverse axis."""
    def build():
        shape = face_shape(grid, axis)
        idx = np.unravel_index(np.arange(int(np.prod(shape))), shape)
        mask = np.zeros(int(np.prod(shape)), dtype=bool)
        for a, m in enumerate(shape):
            if a == axis:
                continue
            mask |= (idx[a] == 0) | (idx[a] == m - 1)
        mask.setflags(write=False)
        return mask
    return grid.cached(("lateral_mask", axis), build)


def node_gradient(grid: ReferenceGrid, values: np.ndarray) -> np.ndarray:
    """Collocated gradient of flat nodal values, shape (n_nodes, dim)."""
    return np.stack(
        [node_derivative(grid, a) @ values for a in range(grid.dim)], axis=-1)
