"""Adiabatic sweeps: slow domain deformations and projector occupations.

A deformation parametrized over tau in [0, 1] is run at physical slowness
epsilon (the full moving-domain generator on [0, 1/epsilon], which is the
rescaled equation with its order-epsilon motion correction included), and
the occupation of the target eigenbranch at tau = 1 is recorded per epsilon.
The theory guarantees only the limit epsilon -> 0, so sweeps are judged on
the trend toward the initial occupation, never on a rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import DegenerateBranchError, InvalidInputError
from ..geometry.diffeo import DiffeoFamily
from ..geometry.grid import ReferenceGrid
from ..operators import CoefficientSet, DIRICHLET, assemble_hamiltonian, free_coefficients
from ..parallel import map_jobs
from ..propagator import PropagatorConfig, evolve
from .spectral import SpectralBranch, spectral_projector

# frozen generators checked along the path, window ends included
_PATH_SAMPLES = 5


@dataclass
class AdiabaticRun:
    """Result of an epsilon sweep (epsilons strictly decreasing)."""

    epsilons: List[float]
    overlaps: List[float]
    initial_overlap: float
    branch: int
    eigenvalue_path: List[float]

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise InvalidInputError("epsilon list must be strictly decreasing")
        if any(not (0.0 <= ov <= 1.0 + 1e-10) for ov in self.overlaps):
            raise InvalidInputError("projector occupations must lie in [0, 1]")

    def deviations(self) -> np.ndarray:
        return np.abs(np.asarray(self.overlaps) - self.initial_overlap)


def slowed_family(family: DiffeoFamily, epsilon: float) -> DiffeoFamily:
    """Reparametrize tau = epsilon t: the same path traversed slowly."""
    t0, t1 = family.window

    fam = DiffeoFamily(
        map=lambda t, y: family.map(epsilon * t, y),
        dmap_dt=(None if family.dmap_dt is None else
                 (lambda t, y: epsilon * np.asarray(
                     family.dmap_dt(epsilon * t, y)))),
        jacobian=(None if family.jacobian is None else
                  (lambda t, y: family.jacobian(epsilon * t, y))),
        jacobian_dt=(None if family.jacobian_dt is None else
                     (lambda t, y: epsilon * np.asarray(
                         family.jacobian_dt(epsilon * t, y)))),
        inverse=(None if family.inverse is None else
                 (lambda t, x: family.inverse(epsilon * t, x))),
        window=(t0 / epsilon, t1 / epsilon),
        name=f"{family.name}@eps={epsilon:g}",
    )
    return fam


def frozen_hamiltonian(family: DiffeoFamily, t: float, grid: ReferenceGrid,
                       bc: str = DIRICHLET):
    """The free generator of the motionless snapshot ``family.frozen(t)``."""
    return assemble_hamiltonian(family.frozen(t), free_coefficients(grid.dim),
                                t, grid, bc)


def _frozen_branch(family: DiffeoFamily, tau: float, grid: ReferenceGrid,
                   bc: str, k: int) -> SpectralBranch:
    return spectral_projector(frozen_hamiltonian(family, tau, grid, bc), k)


def check_branch_path(family: DiffeoFamily, grid: ReferenceGrid, k: int,
                      bc: str = DIRICHLET) -> List[SpectralBranch]:
    """Simple-branch sanity along the path: gaps plus overlap continuity.

    Returns the frozen branches at evenly spaced times, the first at the
    window's start and the last at its end.
    """
    taus = np.linspace(family.window[0], family.window[1], _PATH_SAMPLES)
    branches = [_frozen_branch(family, tau, grid, bc, k) for tau in taus]
    for b0, b1 in zip(branches, branches[1:]):
        align = abs(np.vdot(b0._dof_vector, b1._dof_vector))
        if align < 0.5:
            raise DegenerateBranchError(
                f"branch {k} loses continuity along the path "
                f"(|overlap| = {align:.3f}); possible crossing")
    return branches


def adiabatic_experiment(family: DiffeoFamily, coeffs: CoefficientSet,
                         branch: int, epsilons, grid: ReferenceGrid,
                         dt: float, bc: str = DIRICHLET) -> AdiabaticRun:
    """Run the deformation at each slowness and record final occupations.

    The family must be parametrized over tau in [0, 1]; the initial state is
    the branch eigenstate of the frozen generator at tau = 0 and occupations
    are measured against the frozen-branch projector at tau = 1.  The
    epsilons are independent evolutions and run on every usable CPU
    (``parallel.map_jobs``), the smallest first; once no epsilon is left to
    start, an evolution still running relays its steps onto the CPUs the
    finished ones left idle (``parallel.relay``).
    """
    epsilons = sorted({float(e) for e in epsilons}, reverse=True)
    if not epsilons:
        raise InvalidInputError("need at least one epsilon")

    path = check_branch_path(family, grid, branch, bc)
    start, final = path[0], path[-1]

    v0 = start.eigenvector
    initial_overlap = start.occupation(v0)

    def config(eps):
        return PropagatorConfig(dt=dt, t_start=family.window[0] / eps,
                                t_end=family.window[1] / eps)

    def final_occupation(eps):
        trace = evolve(slowed_family(family, eps), coeffs, bc, v0,
                       config(eps), grid)
        return final.occupation(trace.final_state)

    overlaps = map_jobs(final_occupation, epsilons,
                        cost=lambda eps: config(eps).n_steps)

    return AdiabaticRun(
        epsilons=epsilons, overlaps=overlaps,
        initial_overlap=initial_overlap, branch=branch,
        eigenvalue_path=[b.eigenvalue for b in path],
    )
