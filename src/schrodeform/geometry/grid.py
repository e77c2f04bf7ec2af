"""Tensor-product reference grids on an interval or an axis-aligned rectangle.

All simulation state lives on one of these fixed grids; moving domains are
reached only through diffeomorphism families.  Nodes include the boundary,
quadrature is the tensor trapezoid rule, and the boundary carries its own
(d-1)-dimensional trapezoid weights plus outward unit normals.
"""

from __future__ import annotations

import numpy as np


def _trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    w = np.full(n_nodes, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w


class ReferenceGrid:
    """Uniform tensor-product grid with boundary metadata.

    Parameters
    ----------
    cells : sequence of int
        Number of cells per axis (nodes per axis = cells + 1).
    bounds : sequence of (lo, hi)
        Physical extent per axis.
    """

    def __init__(self, cells, bounds):
        cells = tuple(int(c) for c in cells)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(cells) != len(bounds):
            raise ValueError("cells and bounds must have the same length")
        if len(cells) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per axis")
        if any(hi <= lo for lo, hi in bounds):
            raise ValueError("each axis needs hi > lo")

        self.dim = len(cells)
        self.cells = cells
        self.bounds = bounds
        self.shape = tuple(c + 1 for c in cells)
        self.spacing = tuple((hi - lo) / c for c, (lo, hi) in zip(cells, bounds))
        self.axes = tuple(
            np.linspace(lo, hi, c + 1) for c, (lo, hi) in zip(cells, bounds)
        )

        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        self.n_nodes = self.nodes.shape[0]

        w1d = [_trapezoid_weights(self.shape[a], self.spacing[a]) for a in range(self.dim)]
        w = w1d[0]
        for a in range(1, self.dim):
            w = np.multiply.outer(w, w1d[a])
        self.weights = w.reshape(-1)

        self._build_boundary(w1d)
        for arr in (self.nodes, self.weights, self.boundary_indices,
                    self.boundary_normals, self.boundary_weights,
                    self.interior_indices):
            arr.setflags(write=False)
        self._cache: dict = {}

    def _build_boundary(self, w1d):
        idx = np.unravel_index(np.arange(self.n_nodes), self.shape)
        on_lo = [idx[a] == 0 for a in range(self.dim)]
        on_hi = [idx[a] == self.shape[a] - 1 for a in range(self.dim)]
        on_bnd = np.zeros(self.n_nodes, dtype=bool)
        for a in range(self.dim):
            on_bnd |= on_lo[a] | on_hi[a]

        self.boundary_indices = np.flatnonzero(on_bnd)
        self.interior_indices = np.flatnonzero(~on_bnd)

        normals = np.zeros((self.boundary_indices.size, self.dim))
        sigma = np.zeros(self.boundary_indices.size)
        for k, i in enumerate(self.boundary_indices):
            nv = np.zeros(self.dim)
            for a in range(self.dim):
                transverse = 1.0
                for b in range(self.dim):
                    if b != a:
                        transverse *= w1d[b][idx[b][i]]
                if on_lo[a][i]:
                    nv[a] -= 1.0
                    sigma[k] += transverse
                elif on_hi[a][i]:
                    nv[a] += 1.0
                    sigma[k] += transverse
            normals[k] = nv / np.linalg.norm(nv)
        self.boundary_normals = normals
        self.boundary_weights = sigma

    # -- convenience ------------------------------------------------------

    @classmethod
    def interval(cls, cells: int, lo: float = 0.0, hi: float = 1.0) -> "ReferenceGrid":
        return cls((cells,), ((lo, hi),))

    @classmethod
    def rectangle(cls, cells, bounds=((0.0, 1.0), (0.0, 1.0))) -> "ReferenceGrid":
        if np.isscalar(cells):
            cells = (cells, cells)
        return cls(tuple(cells), bounds)

    def refined(self, factor: int = 2) -> "ReferenceGrid":
        """Same extent with `factor` times as many cells per axis."""
        return ReferenceGrid(tuple(c * factor for c in self.cells), self.bounds)

    @property
    def measure(self) -> float:
        out = 1.0
        for lo, hi in self.bounds:
            out *= hi - lo
        return out

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    def reshape(self, values: np.ndarray) -> np.ndarray:
        """View a flat nodal array in tensor shape (extra axes trail)."""
        return values.reshape(self.shape + values.shape[1:])

    def cached(self, key, build):
        """Per-grid cache: the value stored under `key`, from `build()` once."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        return f"ReferenceGrid(cells={self.cells}, bounds={self.bounds})"
