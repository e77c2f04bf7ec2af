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
    nested_dissection,
)
from .sparse_lu import factor

# points evaluated per assembly pass; keeps a chunk's temporaries near 1 MB
CHUNK_POINTS = 16384
# largest |t_k - t| at which EvolutionTrace.snapshot_at returns snapshot k
_SNAPSHOT_TOL = 1e-9


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

    def snapshot_at(self, t: float) -> GridFunction:
        for tk, snap in zip(self.snapshot_times, self.snapshots):
            if abs(tk - t) <= _SNAPSHOT_TOL:
                return snap
        raise SnapshotMissingError(f"no snapshot stored at t={t}")

    @property
    def final_state(self) -> GridFunction:
        return self.snapshots[-1]


class CayleyStepper:
    """Cayley steps ``v' = (I + z H)^{-1} (I - z H) v = 2 w - v``, where
    ``w = (I + z H)^{-1} v`` and ``z = i dt / 2`` (an identity for any H),
    for generators that share the canonical CSR pattern ``(indptr,
    indices)``; :meth:`advance` takes them as ``(K, nnz)`` data rows of it.

    The solve kernel is read off the pattern, once.  If every entry has
    ``|i - j| <= 1`` the rows are scattered into LAPACK (1, 1) bands and
    solved by ``zgtsv``.  Otherwise each step factors ``I + z H`` by a
    sparse LU with diagonal pivots, in the cached :func:`nested_dissection`
    order of ``(grid, bc)``, folded into the scatter from the CSR rows to
    SuperLU's CSC layout, so SuperLU keeps its natural order.

    Non-finite rows or state, a singular factor and a residual above
    tolerance raise :class:`SolverDivergenceError` naming the failed chunk
    ``step``; the residuals are checked once per chunk, after its last solve.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 grid: ReferenceGrid, bc: str, dt: float, solver_tol: float = 1e-12):
        n = self.n = indptr.size - 1
        self.z = 0.5j * dt
        self.solver_tol = solver_tol
        rows = np.repeat(np.arange(n), np.diff(indptr))
        if np.all(np.abs(rows - indices) <= 1):
            self._order = self._inv = slice(None)
            self._band_pos = (1 + rows - indices) * n + indices
            self._kernels = self._band_kernels
            return
        self._order = nested_dissection(grid, bc)
        if self._order.shape != (n,):
            raise InvalidInputError(
                f"a pattern of {n} dofs cannot take the {self._order.size}-dof "
                f"elimination order of {bc} on {grid.cells} cells")
        self._inv = np.empty(n, dtype=np.intp)
        self._inv[self._order] = np.arange(n)
        # the CSC layout of P H P^t plus its whole diagonal, and the CSR
        # entry each slot reads (-1: a diagonal entry the pattern lacks,
        # zeroed after the read)
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([indices, np.arange(n)])
        ids = np.concatenate([np.arange(1, indices.size + 1),
                              np.zeros(n, dtype=np.int64)])
        layout = sp.csc_matrix((ids, (self._inv[rows], self._inv[cols])),
                               shape=(n, n))
        slots = layout.data - 1
        col = np.repeat(np.arange(n), np.diff(layout.indptr))
        self._lu = (slots, np.flatnonzero(slots < 0), layout.indices,
                    layout.indptr, np.flatnonzero(layout.indices == col))
        self._kernels = self._lu_kernels

    def advance(self, v: np.ndarray, rows: np.ndarray):
        """Take ``len(rows)`` steps from ``v``, one per generator row.

        Returns the states after each step, ``(K, n)``, and the step
        energies ``<H_k v_k, v_k>``, ``(K,)``.
        """
        finite = np.isfinite(rows).all(axis=1)
        finite[0] &= np.isfinite(v).all()
        if not finite.all():
            raise SolverDivergenceError(
                "Cayley system has non-finite entries (generator or state)",
                step=int(np.argmin(finite)))
        solve, apply = self._kernels(rows)
        states = np.empty((len(rows) + 1, self.n), dtype=complex)
        states[0] = v[self._order]
        w = np.empty_like(states[1:])
        for k in range(len(rows)):
            w[k] = solve(k, states[k])
            states[k + 1] = 2 * w[k] - states[k]
        # every step's residual |w + z H w - v| and state, checked at once
        residual = np.linalg.norm(w + self.z * apply(w) - states[:-1], axis=1)
        scale = np.linalg.norm(states[:-1], axis=1)
        bound = np.maximum(10 * max(self.solver_tol, 1e-15) * scale, self.solver_tol)
        # written so that a NaN residual fails the guard
        bad = ((scale > 0) & ~(residual <= bound)) | ~np.isfinite(states[1:]).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise SolverDivergenceError(
                f"linear solve residual {residual[k]:.3e} exceeds tolerance", step=k)
        energies = np.einsum("kn,kn->k", states[1:].conj(), apply(states[1:])).real
        return states[1:, self._inv], energies

    def _band_kernels(self, data):
        """A chunk's ``zgtsv`` solves and its ``H`` product, by bands."""
        bands = np.zeros((len(data), 3 * self.n), dtype=complex)
        bands[:, self._band_pos] = data
        bands = bands.reshape(-1, 3, self.n)
        cayley = self.z * bands     # I + z H, in the same band storage
        cayley[:, 1] += 1.0
        zgtsv = lapack.zgtsv

        def solve(k, v):
            c = cayley[k]
            *_, w, info = zgtsv(c[2, :-1], c[1], c[0, 1:], v)
            if info != 0:
                raise SolverDivergenceError(
                    f"Cayley factorization failed: zgtsv info {info}", step=k)
            return w

        return solve, lambda x: _band_matvec(bands, x)

    def _lu_kernels(self, data):
        """A chunk's sparse-LU solves and its ``H`` product, one matvec per
        step, on the permuted system."""
        slots, absent, indices, indptr, diag = self._lu
        shape = (self.n, self.n)
        h = np.take(data, slots, axis=1)
        h[:, absent] = 0.0
        cayley = np.ascontiguousarray(self.z * h)   # SuperLU takes C rows
        cayley[:, diag] += 1.0

        def solve(k, v):
            try:
                # threshold pivoting takes these diagonal pivots too: for
                # Hermitian H, I + zH has Hermitian part I
                lu = factor(sp.csc_matrix((cayley[k], indices, indptr), shape=shape),
                            "NATURAL", diagonal_pivots=True)
            except RuntimeError as exc:
                raise SolverDivergenceError(
                    f"Cayley factorization failed: {exc}", step=k) from exc
            return lu.solve(v)

        H = [sp.csc_matrix((hk, indices, indptr), shape=shape) for hk in h]
        return solve, lambda x: np.stack([Hk @ xk for Hk, xk in zip(H, x)])


def _band_matvec(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for H in LAPACK (1, 1) band storage ``(..., 3, n)``, summed in CSR
    row order, for each of the leading indices."""
    out = bands[..., 1, :] * v
    out[..., 1:] += bands[..., 2, :-1] * v[..., :-1]
    out[..., :-1] += bands[..., 0, 1:] * v[..., 1:]
    return out


def step(v_dofs: np.ndarray, H_mid: DiscreteHamiltonian, dt: float,
         solver_tol: float = 1e-12) -> np.ndarray:
    """One Cayley step: solve (I + i dt/2 H) v' = (I - i dt/2 H) v.

    A one-step :class:`CayleyStepper` on the pattern of ``H_mid.matrix``,
    with ``(H_mid.grid, H_mid.bc)`` for its elimination order.  Non-finite
    data, a singular factor and a residual above tolerance all raise
    :class:`SolverDivergenceError`.
    """
    M = H_mid.matrix.copy()
    M.sum_duplicates()
    stepper = CayleyStepper(M.indptr, M.indices, H_mid.grid, H_mid.bc, dt, solver_tol)
    return stepper.advance(np.asarray(v_dofs, dtype=complex), M.data[None])[0][0]


def steps_per_pass(grid: ReferenceGrid) -> int:
    """K, the midpoints :func:`evolve` assembles in one pass on this grid."""
    return max(1, CHUNK_POINTS // len(form_points(grid)))


def evolve(family: DiffeoFamily, coeffs: CoefficientSet, bc: str,
           v0: GridFunction, config: PropagatorConfig,
           grid: Optional[ReferenceGrid] = None) -> EvolutionTrace:
    """March the conjugated dynamics over the configured span.

    Chunks of :func:`steps_per_pass` midpoints are assembled in one pass and
    stepped by one :class:`CayleyStepper`; a chunk whose assembly fails (a
    degenerate Jacobian, say) raises before any of its steps run.  A step
    that fails raises :class:`SolverDivergenceError` naming the step, counted
    from 1, and its midpoint time.
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
    stepper = CayleyStepper(pattern.indptr, pattern.indices, grid, bc, dt,
                            config.solver_tol)

    norms = [np.linalg.norm(v[None], axis=1)]
    overlaps = [np.abs(v[None] @ obs) ** 2]
    energies = [np.array([np.real(np.vdot(v, H0.matrix @ v))])]
    snap_steps, snapshots = [0], [H0.from_dofs(v)]
    chunk = steps_per_pass(grid)
    for k0 in range(0, n, chunk):
        done = np.arange(k0 + 1, min(k0 + chunk, n) + 1)  # steps this chunk ends
        mids = config.t_start + (done - 0.5) * dt
        data = hamiltonian_data(family, coeffs, mids, grid, bc)
        try:
            states, chunk_energies = stepper.advance(v, data)
        except SolverDivergenceError as exc:
            k = int(done[exc.step])
            raise SolverDivergenceError(
                f"step {k} (t={mids[exc.step]:.12g}): {exc}", step=k) from exc
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
