"""Norm-preserving time evolution on the reference grid.

Implicit midpoint (Crank-Nicolson) stepping of ``i dv/dt = H(t) v`` with the
Hamiltonian assembled once per step at the midpoint time.  The Cayley step
is exactly unitary for Hermitian generators, so the quadrature norm of the
state is preserved to solver precision; for the deliberately non-Hermitian
naive-Neumann realization the recorded norm drift is the diagnostic output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .errors import InverseUnavailableError, SnapshotMissingError, SolverDivergenceError
# jacobian_field is not called here, but perfbench/spans.py traces it by this name
from .geometry.calculus import jacobian_field, pushforward_sharp  # noqa: F401
from .geometry.diffeo import DiffeoFamily
from .geometry.fields import GridFunction
from .geometry.grid import ReferenceGrid
from .operators import (
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    CoefficientSet,
    DiscreteHamiltonian,
    assemble_hamiltonian,
)


@dataclass
class PropagatorConfig:
    """Time-stepping parameters and per-step observables."""

    dt: float
    t_start: float
    t_end: float
    solver_tol: float = 1e-12
    snapshot_stride: int = 0
    observables: List[GridFunction] = field(default_factory=list)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t_start
        if span == 0.0:
            return 0
        return max(1, int(round(span / self.dt)))

    @property
    def dt_effective(self) -> float:
        n = self.n_steps
        return 0.0 if n == 0 else (self.t_end - self.t_start) / n


@dataclass
class EvolutionTrace:
    """Per-step record of norm, energy, and reference-state overlaps.

    Energies after the initial record are midpoint energies <H_mid v, v>
    evaluated with the step's own Hamiltonian.  Norms are quadrature norms
    of the reference-grid state.
    """

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    overlaps: np.ndarray
    snapshot_times: list
    snapshots: list
    metadata: dict

    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))

    def snapshot_at(self, t: float, tol: float = 1e-9) -> GridFunction:
        for tk, snap in zip(self.snapshot_times, self.snapshots):
            if abs(tk - t) <= tol:
                return snap
        raise SnapshotMissingError(f"no snapshot stored at t={t}")

    @property
    def final_state(self) -> GridFunction:
        return self.snapshots[-1]


def step(v_dofs: np.ndarray, H_mid: DiscreteHamiltonian, dt: float,
         solver_tol: float = 1e-12) -> np.ndarray:
    """One Cayley step: solve (I + i dt/2 H) v' = (I - i dt/2 H) v.

    Tridiagonal generators go through a banded solve, all others through a
    sparse LU with the minimum-degree ordering of A^t + A, which fills less
    than the default COLAMD on these symmetric-pattern systems.  Non-finite
    data, a singular factor and a residual above tolerance all raise
    :class:`SolverDivergenceError`.
    """
    z = 0.5j * dt
    rhs = v_dofs - z * (H_mid.matrix @ v_dofs)
    if not (np.isfinite(H_mid.matrix.data).all() and np.isfinite(rhs).all()):
        raise SolverDivergenceError(
            "Cayley system has non-finite entries (generator or state)")
    if H_mid.banded is not None:
        ab = z * H_mid.banded
        ab[1, :] += 1.0
        out = solve_banded((1, 1), ab, rhs, check_finite=False)
    else:
        A = (sp.identity(H_mid.matrix.shape[0], format="csc", dtype=complex)
             + z * H_mid.matrix.tocsc())
        try:
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverDivergenceError(
                f"Cayley factorization failed: {exc}") from exc
        out = lu.solve(rhs)
    residual = np.linalg.norm(out + z * (H_mid.matrix @ out) - rhs)
    scale = np.linalg.norm(rhs)
    bound = max(10 * max(solver_tol, 1e-15) * scale, solver_tol)
    # written so that a NaN residual fails the guard
    if scale > 0 and not residual <= bound:
        raise SolverDivergenceError(
            f"linear solve residual {residual:.3e} exceeds tolerance")
    return out


def evolve(family: DiffeoFamily, coeffs: CoefficientSet, bc: str,
           v0: GridFunction, config: PropagatorConfig,
           grid: Optional[ReferenceGrid] = None) -> EvolutionTrace:
    """March the conjugated dynamics over the configured span."""
    grid = grid or v0.grid
    H0 = assemble_hamiltonian(family, coeffs, config.t_start, grid, bc)
    v = H0.to_dofs(v0)
    obs = [H0.to_dofs(o) for o in config.observables]

    n = config.n_steps
    dt = config.dt_effective
    times = [config.t_start]
    norms = [float(np.linalg.norm(v))]
    energies = [float(np.real(np.vdot(v, H0.matrix @ v)))]
    overlaps = [[abs(np.vdot(o, v)) ** 2 for o in obs]]
    snapshot_times = [config.t_start]
    snapshots = [H0.from_dofs(v)]

    H_mid = None
    for k in range(n):
        t_mid = config.t_start + (k + 0.5) * dt
        H_mid = assemble_hamiltonian(family, coeffs, t_mid, grid, bc)
        v = step(v, H_mid, dt, config.solver_tol)
        t_next = config.t_start + (k + 1) * dt
        times.append(t_next)
        norms.append(float(np.linalg.norm(v)))
        energies.append(float(np.real(np.vdot(v, H_mid.matrix @ v))))
        overlaps.append([abs(np.vdot(o, v)) ** 2 for o in obs])
        want_snap = (config.snapshot_stride
                     and (k + 1) % config.snapshot_stride == 0)
        if want_snap or k == n - 1:
            snapshot_times.append(t_next)
            snapshots.append(H_mid.from_dofs(v))

    return EvolutionTrace(
        times=np.asarray(times),
        norms=np.asarray(norms),
        energies=np.asarray(energies),
        overlaps=np.asarray(overlaps) if obs else np.zeros((len(times), 0)),
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        metadata={"bc": bc, "dt": dt, "n_steps": n, "family": family.name,
                  "grid": grid.cells},
    )


def transport_solution(trace: EvolutionTrace, family: DiffeoFamily):
    """Evaluator u(t, x) on the moving domain from stored snapshots."""

    def u(t: float, x: np.ndarray) -> np.ndarray:
        snap = trace.snapshot_at(t)
        if family.inverse is None and family.jacobian is None:
            raise InverseUnavailableError(
                "transporting a snapshot needs an inverse map (or Jacobian "
                "data for Newton inversion)")
        return pushforward_sharp(family, t, snap)(x)

    return u


def neumann_drift_diagnostic(family: DiffeoFamily, coeffs: CoefficientSet,
                             v0: GridFunction, config: PropagatorConfig,
                             grid: Optional[ReferenceGrid] = None):
    """Evolve with the naive and the magnetic Neumann realizations.

    Returns (naive_trace, magnetic_trace); on a genuinely moving boundary the
    naive realization cannot preserve the norm (its squared norm tracks the
    moving volume for the constant state), while the magnetic one does.
    """
    naive = evolve(family, coeffs, NAIVE_NEUMANN, v0, config, grid)
    magnetic = evolve(family, coeffs, MAGNETIC_NEUMANN, v0, config, grid)
    return naive, magnetic
