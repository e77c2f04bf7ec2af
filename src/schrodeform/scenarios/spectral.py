"""Spectral projectors onto simple eigenbranches of assembled Hamiltonians."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..errors import DegenerateBranchError
from ..geometry.fields import GridFunction
from ..operators import DiscreteHamiltonian, eigenpairs

# a branch is isolated when both its gaps are at least this times max(|E_k|, 1)
_GAP_FLOOR = 1e-6


@dataclass
class SpectralBranch:
    """One Ritz pair with its rank-one projector."""

    index: int
    eigenvalue: float
    eigenvector: GridFunction
    _dof_vector: np.ndarray
    _H: DiscreteHamiltonian

    def project(self, u: GridFunction) -> GridFunction:
        """P u = <phi, u> phi in the quadrature inner product."""
        coef = np.vdot(self._dof_vector, self._H.to_dofs(u))
        return self._H.from_dofs(coef * self._dof_vector)

    def occupation(self, u) -> float:
        """<P u, u> = |<phi, u>|^2 for dof vectors or grid functions."""
        vec = u if isinstance(u, np.ndarray) else self._H.to_dofs(u)
        return float(abs(np.vdot(self._dof_vector, vec)) ** 2)


def spectral_projector(H: DiscreteHamiltonian, k: int) -> SpectralBranch:
    """k-th (sorted) eigenbranch of H; requires the branch to be isolated."""
    vals, vecs = eigenpairs(H, k=k + 2)
    scale = max(abs(float(vals[min(k, vals.size - 1)])), 1.0)
    floor = _GAP_FLOOR * scale
    gaps = []
    if k > 0:
        gaps.append(abs(vals[k] - vals[k - 1]))
    if k + 1 < vals.size:
        gaps.append(abs(vals[k + 1] - vals[k]))
    if gaps and min(gaps) < floor:
        raise DegenerateBranchError(
            f"branch {k} gap {min(gaps):.3e} below floor {floor:.3e}")
    vec = vecs[:, k]
    vec = vec / np.linalg.norm(vec)
    return SpectralBranch(index=k, eigenvalue=float(vals[k]),
                          eigenvector=H.from_dofs(vec),
                          _dof_vector=vec.astype(complex), _H=H)
