"""Interpolation of nodal samples over the closed reference domain.

One builder serves every nodal field, scalar or not, real or complex: a
tensor-product not-a-knot B-spline of degree min(3, n_a - 1) on each axis,
evaluated by a single ``NdBSpline`` call for all channels at once (de Boor,
*A Practical Guide to Splines*, 2001, on tensor-product splines).  It is
genuinely interpolatory, so the nodal values are reproduced to machine
precision; SciPy's RegularGridInterpolator "cubic" does not, and several
round-trip invariants in this package rely on node exactness.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import NdBSpline, make_interp_spline

from ..errors import InvalidInputError
from .grid import ReferenceGrid


def _axis_factors(grid: ReferenceGrid):
    """Per-axis knots, degrees and inverse collocation matrices.

    Interpolating the identity gives the coefficients of each unit nodal
    vector, so the coefficients of any nodal data are one product per axis.
    """
    units = [make_interp_spline(axis, np.eye(axis.size), k=min(3, axis.size - 1))
             for axis in grid.axes]
    return (tuple(u.t for u in units), tuple(u.k for u in units),
            [u.c for u in units])


def nodal_spline(grid: ReferenceGrid, values: np.ndarray):
    """Node-exact spline of (n_nodes, *channels) samples; pts -> (n_pts, *channels)."""
    values = np.asarray(values)
    if values.shape[:1] != (grid.n_nodes,):
        raise InvalidInputError(f"nodal_spline needs {grid.n_nodes} node "
                                f"samples, got an array of shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("nodal_spline samples must be finite")
    knots, degrees, inverses = grid.cached("nodal_spline",
                                           lambda: _axis_factors(grid))
    coef = grid.reshape(values)
    for a, inverse in enumerate(inverses):
        coef = np.moveaxis(np.tensordot(inverse, coef, axes=(1, a)), 0, a)
    spline = NdBSpline(knots, coef, degrees)

    def evaluate(pts):
        return spline(np.atleast_2d(np.asarray(pts, dtype=float)))

    return evaluate
