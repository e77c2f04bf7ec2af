"""Sparse LU factors in a chosen column order, and their inertia."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla


def factor(A, permc_spec: str, diagonal_pivots: bool):
    """SuperLU factor of CSC ``A`` in the ``permc_spec`` order, taking every
    nonzero diagonal pivot if ``diagonal_pivots``, else threshold pivots.
    A singular matrix raises SuperLU's ``RuntimeError``."""
    if diagonal_pivots:
        return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    return spla.splu(A, permc_spec=permc_spec)


def inertia(lu) -> tuple[int, int] | None:
    """Counts of positive and negative pivots: with diagonal pivots only, the
    factor of a Hermitian matrix is L D L^H, so by Sylvester's law these count
    its eigenvalues of each sign.  None if a row was pivoted off the diagonal."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    d = lu.U.diagonal().real
    return int((d > 0).sum()), int((d < 0).sum())
