"""Sparse LU factors in a chosen column order, their inertia, and the
nested-dissection orders they are taken in."""

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


# parts of the dof graph with at most this many dofs are not split further
_DISSECTION_LEAF = 8


def _nested_dissection(shape: tuple, pattern) -> np.ndarray:
    """All parts of one level are split at once.  Each dof carries a base-3
    key with one digit per level (0 lower half, 1 upper half, 2 separator,
    0 once its part is done); sorting by key orders every separator after
    the two halves it separates, with ties in dof order."""
    n = pattern.dofs.size
    coords = np.stack(np.unravel_index(pattern.dofs, shape))
    span = max(shape)
    rows = np.repeat(np.arange(n, dtype=pattern.indices.dtype),
                     np.diff(pattern.indptr))
    off = rows != pattern.indices
    a, b = rows[off], pattern.indices[off]      # the graph's edges
    key = np.zeros(n, dtype=np.int64)
    act = np.arange(n)                  # the dofs still to split, by part
    size = np.array([n])                # the size of each part
    side = np.empty(n, dtype=np.int8)
    while act.size:
        key *= 3
        n_parts = size.size
        start = np.cumsum(size) - size
        part = np.repeat(np.arange(n_parts), size)
        x = coords[:, act]
        lo = np.minimum.reduceat(x, start, axis=1)
        axis = np.argmax(np.maximum.reduceat(x, start, axis=1) - lo, axis=0)
        c = x[axis[part], np.arange(act.size)]
        median = (np.sort(part * span + c)[start + size // 2]
                  - np.arange(n_parts) * span)
        split = (size > _DISSECTION_LEAF) & (median > lo[axis, np.arange(n_parts)])
        s = np.where(split[part], c >= median[part], 3).astype(np.int8)
        side.fill(4)                    # 3: a part done, 4: not active
        side[act] = s
        sa, sb = side[a], side[b]
        side[a[(sa == 0) & (sb == 1)]] = 2
        side[b[(sb == 0) & (sa == 1)]] = 2
        # edges inside one half stay; the next level drops the separator's
        live = (sa == sb) & (sa < 2)
        a, b = a[live], b[live]
        s = side[act]
        key[act] += s % 3
        go = s < 2
        child = 2 * part[go] + s[go]
        act = act[go][np.argsort(child, kind="stable")]
        size = np.bincount(child, minlength=2 * n_parts)
        size = size[size > 0]
    return np.argsort(key, kind="stable")
