"""Norm-preserving time evolution on the reference grid.

Implicit midpoint (Crank-Nicolson) stepping of ``i dv/dt = H(t) v`` with the
Hamiltonian assembled once per step at the midpoint time.  The Cayley step
is exactly unitary for Hermitian generators, so the quadrature norm of the
state is preserved to solver precision; for the deliberately non-Hermitian
naive-Neumann realization the recorded norm drift is the diagnostic output.

:func:`evolve` walks the steps in chunks: it assembles the Hamiltonians of K
consecutive midpoints in one pass (K chosen so that one chunk evaluates
about ``CHUNK_POINTS`` points) and hands them to a :class:`CayleyStepper`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (InvalidInputError, InverseUnavailableError,
                     SnapshotMissingError, SolverDivergenceError)
from .geometry.calculus import pushforward_sharp
from .geometry.diffeo import DiffeoFamily
from .geometry.fields import GridFunction
from .geometry.grid import ReferenceGrid
from .operators import (
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    CoefficientSet,
    DiscreteHamiltonian,
    assemble_hamiltonian,
    form_pattern,
    form_points,
    hamiltonian_data,
)

# points evaluated per assembly pass; keeps a chunk's temporaries near 1 MB
CHUNK_POINTS = 16384


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
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        if not self.t_end >= self.t_start:
            raise InvalidInputError("t_end must not precede t_start")

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


class CayleyStepper:
    """Cayley steps ``(I + z H) v' = (I - z H) v``, ``z = i dt / 2``, for
    generators that share one sparsity pattern.

    Built once per (pattern, dt).  Without ``csr`` the generators are
    tridiagonal and given as LAPACK (1, 1) bands ``(K, 3, n)``: the
    right-hand side is a band product and the solve is ``zgtsv``.  With
    ``csr = (indptr, indices)`` they are given as ``(K, nnz)`` data rows of
    that CSR pattern and each step factors ``I + z H`` with a sparse LU in
    the minimum-degree ordering of A^t + A, which fills less than the
    default COLAMD on these symmetric-pattern systems.

    Non-finite data, a singular factor and a residual above tolerance all
    raise :class:`SolverDivergenceError`.
    """

    def __init__(self, n: int, dt: float, solver_tol: float = 1e-12,
                 csr: Optional[tuple] = None):
        self.n = n
        self.z = 0.5j * dt
        self.solver_tol = solver_tol
        self._csc = None
        if csr is not None:
            indptr, indices = csr
            # the CSC layout of the pattern and where each CSR entry goes in it
            order = sp.csr_matrix((np.arange(1, indices.size + 1), indices, indptr),
                                  shape=(n, n)).tocsc()
            self._csc = (order.data - 1, order.indices, order.indptr)
            self._eye = sp.identity(n, format="csc", dtype=complex)

    def advance(self, v: np.ndarray, rows: np.ndarray):
        """Take ``len(rows)`` steps from ``v``, one per generator row.

        Returns the states after each step, ``(K, n)``, and the step
        energies ``<H_k v_k, v_k>``, ``(K,)``.
        """
        if not np.isfinite(rows).all():
            raise SolverDivergenceError(
                "Cayley system has non-finite entries (generator or state)")
        banded = self._csc is None
        if banded:
            cayley = self.z * rows      # I + z H, in the same band storage
            cayley[:, 1] += 1.0
        states = np.empty((len(rows), self.n), dtype=complex)
        energies = np.empty(len(rows))
        for k in range(len(rows)):
            if banded:
                v, Hv = self._band_step(v, rows[k], cayley[k])
            else:
                v, Hv = self._lu_step(v, rows[k])
            states[k] = v
            energies[k] = np.vdot(v, Hv).real
        return states, energies

    def _check(self, A_out, rhs):
        residual = np.linalg.norm(A_out - rhs)
        scale = np.linalg.norm(rhs)
        bound = max(10 * max(self.solver_tol, 1e-15) * scale, self.solver_tol)
        # written so that a NaN residual fails the guard
        if scale > 0 and not residual <= bound:
            raise SolverDivergenceError(
                f"linear solve residual {residual:.3e} exceeds tolerance")

    def _rhs(self, v, Hv):
        rhs = v - self.z * Hv
        if not np.isfinite(rhs).all():
            raise SolverDivergenceError(
                "Cayley system has non-finite entries (generator or state)")
        return rhs

    def _band_step(self, v, bands, cayley):
        rhs = self._rhs(v, _band_matvec(bands, v))
        _, _, _, out, info = lapack.zgtsv(cayley[2, :-1], cayley[1], cayley[0, 1:], rhs)
        if info != 0:
            raise SolverDivergenceError(
                f"Cayley factorization failed: zgtsv info {info}")
        Hout = _band_matvec(bands, out)
        self._check(out + self.z * Hout, rhs)
        return out, Hout

    def _lu_step(self, v, data):
        perm, indices, indptr = self._csc
        H = sp.csc_matrix((data[perm], indices, indptr), shape=(self.n, self.n))
        rhs = self._rhs(v, H @ v)
        try:
            lu = spla.splu(self._eye + self.z * H, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverDivergenceError(
                f"Cayley factorization failed: {exc}") from exc
        out = lu.solve(rhs)
        Hout = H @ out
        self._check(out + self.z * Hout, rhs)
        return out, Hout


def _band_matvec(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for H in LAPACK (1, 1) band storage, summed in CSR row order."""
    out = bands[1] * v
    out[1:] += bands[2, :-1] * v[:-1]
    out[:-1] += bands[0, 1:] * v[1:]
    return out


def step(v_dofs: np.ndarray, H_mid: DiscreteHamiltonian, dt: float,
         solver_tol: float = 1e-12) -> np.ndarray:
    """One Cayley step: solve (I + i dt/2 H) v' = (I - i dt/2 H) v.

    A one-step :class:`CayleyStepper`: on the bands when the generator is
    tridiagonal, through the sparse LU otherwise.  Non-finite data, a
    singular factor and a residual above tolerance all raise
    :class:`SolverDivergenceError`.
    """
    n = H_mid.matrix.shape[0]
    if H_mid.banded is not None:
        stepper, rows = CayleyStepper(n, dt, solver_tol), H_mid.banded[None]
    else:
        M = H_mid.matrix
        stepper = CayleyStepper(n, dt, solver_tol, csr=(M.indptr, M.indices))
        rows = M.data[None]
    return stepper.advance(np.asarray(v_dofs, dtype=complex), rows)[0][0]


def steps_per_pass(grid: ReferenceGrid) -> int:
    """K, the midpoints :func:`evolve` assembles in one pass on this grid."""
    return max(1, CHUNK_POINTS // len(form_points(grid)))


def evolve(family: DiffeoFamily, coeffs: CoefficientSet, bc: str,
           v0: GridFunction, config: PropagatorConfig,
           grid: Optional[ReferenceGrid] = None) -> EvolutionTrace:
    """March the conjugated dynamics over the configured span.

    Chunks of :func:`steps_per_pass` midpoints are assembled in one pass and
    stepped by one :class:`CayleyStepper`; a chunk whose assembly fails (a
    degenerate Jacobian, say) raises before any of its steps run.
    """
    grid = grid or v0.grid
    H0 = assemble_hamiltonian(family, coeffs, config.t_start, grid, bc)
    v = H0.to_dofs(v0)
    obs = np.array([H0.to_dofs(o) for o in config.observables],
                   dtype=complex).reshape(-1, H0.n_dofs).conj().T

    n = config.n_steps
    dt = config.dt_effective
    stride = config.snapshot_stride
    pattern = form_pattern(grid, bc)
    csr = None if pattern.band_pos is not None else (pattern.indptr, pattern.indices)
    stepper = CayleyStepper(H0.n_dofs, dt, config.solver_tol, csr)

    norms = [np.linalg.norm(v[None], axis=1)]
    overlaps = [np.abs(v[None] @ obs) ** 2]
    energies = [np.array([np.real(np.vdot(v, H0.matrix @ v))])]
    snap_steps, snapshots = [0], [H0.from_dofs(v)]
    chunk = steps_per_pass(grid)
    for k0 in range(0, n, chunk):
        done = np.arange(k0 + 1, min(k0 + chunk, n) + 1)  # steps this chunk ends
        data = hamiltonian_data(family, coeffs, config.t_start + (done - 0.5) * dt,
                                grid, bc)
        rows = data if csr is not None else pattern.bands(data)
        states, chunk_energies = stepper.advance(v, rows)
        v = states[-1]
        norms.append(np.linalg.norm(states, axis=1))
        overlaps.append(np.abs(states @ obs) ** 2)
        energies.append(chunk_energies)
        want = (done == n) | ((done % stride == 0) if stride else False)
        for i in np.flatnonzero(want):
            snap_steps.append(int(done[i]))
            snapshots.append(H0.from_dofs(states[i]))

    times = config.t_start + np.arange(n + 1) * dt
    return EvolutionTrace(
        times=times,
        norms=np.concatenate(norms),
        energies=np.concatenate(energies),
        overlaps=np.concatenate(overlaps),
        snapshot_times=[float(times[k]) for k in snap_steps],
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
