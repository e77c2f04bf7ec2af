"""Hermitian Hamiltonians on the reference grid for a moving domain.

The moving-domain generator is the unitary conjugation of an effective
magnetic Hamiltonian: the motion enters only through the induced magnetic
potential ``A_h = -(1/2) h_* dh/dt`` and the matching effective electric
term.  Assembly is form-based: the sesquilinear form

    q(u) = int |D grad u + i A~ u|^2 + V~ |u|^2

is written in pulled-back coordinates (gradients on staggered faces with
the metric weights, magnetic cross terms with face averages, zeroth-order
terms on nodes) and then conjugated by the diagonal square-root Jacobian
similarity, which yields a matrix that is Hermitian in the plain weighted
inner product of the grid.

The form is linear in its face and node coefficient arrays, so the sparsity
pattern of the conjugated matrix and a sparse linear map from the stacked
coefficients to its ``data`` array are built once per (grid, boundary
realization) and cached on the grid, with the Dirichlet restriction and the
naive-Neumann boundary term folded in.  :func:`hamiltonian_data` evaluates
the coefficients of K time slices in one pass over a ``(K, n_pts)`` stack of
the faces and nodes, turns the ``(n_coef, K)`` coefficient block into K
``data`` rows with one sparse product, and scales them by the square-root
Jacobian.  :func:`assemble_hamiltonian` is its K = 1 case wrapped in the
cached CSR index arrays.  One path serves every dimension;
:func:`assemble_form` with :func:`_conjugate_and_restrict` is the
sparse-product reference it is tested against.

Boundary realizations:

* ``dirichlet``      - interior degrees of freedom only, zero trace;
* ``magnetic-neumann`` - all nodes; the form's natural boundary condition is
  the flux condition <nu | D grad u + i A~ u> = 0 of the moving boundary;
* ``naive-neumann``  - all nodes with the magnetic boundary flux removed
  (plain d_nu u = 0).  This realization is deliberately *not* Hermitian on a
  genuinely moving boundary; it exists as the counterexample diagnostic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (EllipticityViolatedError, InvalidInputError,
                     NonRealEnergyError, SolverDivergenceError)
from .geometry import smallmat
from .geometry.diffeo import DiffeoFamily, identity_family, jacobian_field
from .geometry.fields import GridFunction
from .geometry.grid import ReferenceGrid
from .geometry.stencils import (
    face_average,
    face_coords,
    face_difference,
    face_to_node,
    face_weights,
)
from .sparse_lu import _nested_dissection, factor, inertia

DIRICHLET = "dirichlet"
MAGNETIC_NEUMANN = "magnetic-neumann"
NAIVE_NEUMANN = "naive-neumann"
_BCS = (DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN)

_log = logging.getLogger(__name__)


# -- coefficients -------------------------------------------------------------

@dataclass
class CoefficientSet:
    """Diffusion / magnetic / electric coefficients of the Hamiltonian.

    Evaluators are vectorized over points on the *moving* domain:
    ``diffusion(t, x) -> (..., N, N)``, ``magnetic(t, x) -> (..., N)``,
    ``electric(t, x) -> (...)``, with ``t`` a float or an array that
    broadcasts to ``x.shape[:-1]``.  ``alpha`` is the ellipticity floor:
    the smallest singular value of D must stay >= sqrt(alpha).
    """

    diffusion: Callable
    magnetic: Callable
    electric: Callable
    alpha: float = 1.0

    def _check_diffusion(self, D: np.ndarray) -> None:
        # both guards are written so that a NaN fails them
        sym_err = float(abs(D - np.swapaxes(D, -1, -2)).max())
        if not sym_err <= 1e-12 * max(1.0, float(abs(D).max())):
            raise EllipticityViolatedError(
                f"diffusion matrix is not symmetric (residual {sym_err:.3e})")
        smin = _smallest_singular_value(D)
        if not smin >= np.sqrt(self.alpha) * (1 - 1e-12):
            raise EllipticityViolatedError(
                f"min singular value {smin:.6g} < sqrt(alpha) = "
                f"{np.sqrt(self.alpha):.6g}")


def _smallest_singular_value(D: np.ndarray) -> float:
    n = D.shape[-1]
    if n == 1:
        return float(np.min(np.abs(D[..., 0, 0])))
    S = smallmat.matmul(np.swapaxes(D, -1, -2), D)
    tr, det = S[..., 0, 0] + S[..., 1, 1], smallmat.det(S)
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0)))
    return float(np.sqrt(np.maximum(lam_min.min(), 0.0)))


def isotropic_coefficients(dim: int, electric: Optional[Callable] = None,
                           magnetic: Optional[Callable] = None) -> CoefficientSet:
    """Identity diffusion with optional scalar potential / magnetic field."""

    def zero_vec(t, x):
        return np.zeros(np.asarray(x, dtype=float).shape)

    def zero_scal(t, x):
        return np.zeros(np.asarray(x, dtype=float).shape[:-1])

    # D = I, which is also the Jacobian of the identity map at every point
    return CoefficientSet(identity_family(dim).jacobian, magnetic or zero_vec,
                          electric or zero_scal)


def free_coefficients(dim: int) -> CoefficientSet:
    """The free Laplacian: D = I, A = 0, V = 0."""
    return isotropic_coefficients(dim)


# -- motion-induced potentials -------------------------------------------------

@dataclass
class EffectivePotentials:
    """Motion-corrected magnetic and electric coefficients.

    ``pulled_*`` evaluators take reference points y; the ``moving_*``
    evaluator takes points x on the moving domain (and needs the inverse map).
    ``t`` is a float or, for the pulled evaluators, an array of times that
    broadcasts to the points.
    """

    family: DiffeoFamily
    coeffs: CoefficientSet
    t: float | np.ndarray

    def pulled_motion_potential(self, y: np.ndarray) -> np.ndarray:
        """(h* A_h)(y) = -(1/2) dh/dt (t, y)."""
        return -0.5 * self.family.velocity(self.t, y)

    def pulled_pair(self, y: np.ndarray, x: Optional[np.ndarray] = None,
                    D: Optional[np.ndarray] = None):
        """(A~_h, V~_h) at reference points, sharing one evaluation.

        ``x = h(t, y)`` and ``D = diffusion(t, x)`` are evaluated here unless
        the caller already has them.
        """
        if x is None:
            x = np.asarray(self.family.map(self.t, y), dtype=float)
        if D is None:
            D = np.asarray(self.coeffs.diffusion(self.t, x), dtype=float)
        A = np.asarray(self.coeffs.magnetic(self.t, x), dtype=float)
        V = np.asarray(self.coeffs.electric(self.t, x), dtype=float)
        dit_ah = smallmat.solve(np.swapaxes(D, -1, -2),
                                self.pulled_motion_potential(y))
        atil = A + dit_ah
        vtil = V - (dit_ah * (dit_ah + 2 * A)).sum(axis=-1)
        return atil, vtil

    def moving_motion_potential(self, x: np.ndarray) -> np.ndarray:
        y = self.family.inverse_map(self.t, x)
        return self.pulled_motion_potential(y)


def magnetic_potential(family: DiffeoFamily, t: float, grid: ReferenceGrid):
    """Motion-induced magnetic potential A_h = -(1/2) h_* dh/dt.

    Returns (evaluator on the moving domain, pulled samples at grid nodes).
    """
    pot = EffectivePotentials(family, free_coefficients(grid.dim), t)
    return pot.moving_motion_potential, pot.pulled_motion_potential(grid.nodes)


# -- discrete Hamiltonian -----------------------------------------------------

@dataclass
class DiscreteHamiltonian:
    """Sparse generator over the grid degrees of freedom.

    The matrix acts on weighted samples ``v~ = sqrt(w) v`` restricted to the
    dof set, which makes the quadrature inner product of grid functions the
    plain Euclidean one; for the Dirichlet and magnetic Neumann realizations
    the matrix is then Hermitian entrywise.
    """

    matrix: sp.csr_matrix
    bc: str
    t: float
    grid: ReferenceGrid
    dofs: np.ndarray

    def __post_init__(self):
        self._sqrt_w = np.sqrt(self.grid.weights[self.dofs])

    @property
    def n_dofs(self) -> int:
        return self.dofs.size

    def to_dofs(self, v) -> np.ndarray:
        values = v.values if isinstance(v, GridFunction) else np.asarray(v)
        return self._sqrt_w * values[self.dofs]

    def from_dofs(self, vec: np.ndarray) -> GridFunction:
        values = np.zeros(self.grid.n_nodes, dtype=complex)
        values[self.dofs] = np.asarray(vec) / self._sqrt_w
        return GridFunction(self.grid, values)

    def hermiticity_residual(self) -> float:
        diff = self.matrix - self.matrix.conj().T
        scale = max(float(np.max(np.abs(self.matrix.data))), 1e-300)
        if diff.nnz == 0:
            return 0.0
        return float(np.max(np.abs(diff.data))) / scale

    def lowest_ritz_value(self) -> float:
        vals = eigenpairs(self, k=1)[0]
        return float(vals[0])


class _FormPieces(NamedTuple):
    """Face and node coefficient arrays of the pulled-back form.

    Every array has the shape of the ``times`` it was evaluated at as its
    leading shape (none for one float time).  ``boundary_flux`` is the
    density <(J^-1)^t nu0 | A~> det on the boundary nodes, the flux term that
    separates the naive from the magnetic Neumann realization (None for the
    other two); ``det_n`` is det J on the nodes.
    """

    diag_metric: list
    cross_metric: dict
    cross_vector: list
    node_diag: np.ndarray
    det_n: np.ndarray
    boundary_flux: Optional[np.ndarray]


def _cross_keys(dim: int) -> list:
    return [(b, c) for b in range(dim) for c in range(dim) if b != c]


def form_points(grid: ReferenceGrid) -> np.ndarray:
    """The faces of every axis, then the nodes: the points at which one time
    slice of the form evaluates its coefficients (cached per grid)."""
    return grid.cached("form_points", lambda: np.concatenate(
        [face_coords(grid, a) for a in range(grid.dim)] + [grid.nodes]))


def _form_pieces(grid: ReferenceGrid, family: DiffeoFamily,
                 coeffs: CoefficientSet, times, bc: str) -> _FormPieces:
    """Per-face metric and magnetic arrays of the pulled-back form.

    The map, Jacobian and coefficients are evaluated in one pass over
    :func:`form_points` stacked once per time: a ``(K, n_pts)`` stack for K
    times, the plain point set for one float time.  The boundary flux is only
    computed for the naive-Neumann realization, the one that uses it.
    """
    pts = form_points(grid)
    times = np.asarray(times, dtype=float)
    y = np.broadcast_to(pts, times.shape + pts.shape)
    t = times[..., None]
    _, det, Jinv = jacobian_field(family, t, y)
    x = np.asarray(family.map(t, y), dtype=float)
    D = np.asarray(coeffs.diffusion(t, x), dtype=float)
    C = smallmat.matmul(D, np.swapaxes(Jinv, -1, -2))
    theta = smallmat.matmul(np.swapaxes(C, -1, -2), C)
    atil, vtil = EffectivePotentials(family, coeffs, t).pulled_pair(y, x, D)

    diag_metric, cross_vector = [], []
    start = 0
    for a in range(grid.dim):
        w = face_weights(grid, a)
        f = slice(start, start + w.size)
        start = f.stop
        mu = w * det[..., f]
        diag_metric.append(mu * theta[..., f, a, a])
        cross_vector.append(mu * (C[..., f, :, a] * atil[..., f, :]).sum(axis=-1))

    n = slice(start, None)
    coeffs._check_diffusion(D[..., n, :, :])
    det_n, atil_n = det[..., n], atil[..., n, :]
    mass = grid.weights * det_n
    node_diag = mass * ((atil_n * atil_n).sum(axis=-1) + vtil[..., n])
    cross_metric = {(b, c): mass * theta[..., n, b, c]
                    for b, c in _cross_keys(grid.dim)}

    boundary_flux = None
    if bc == NAIVE_NEUMANN:
        b_idx = grid.boundary_indices
        conormal = np.einsum("...nji,nj->...ni", Jinv[..., n, :, :][..., b_idx, :, :],
                             grid.boundary_normals)
        boundary_flux = (grid.boundary_weights * det_n[..., b_idx]
                         * (conormal * atil_n[..., b_idx, :]).sum(axis=-1))
    return _FormPieces(diag_metric, cross_metric, cross_vector, node_diag,
                      det_n, boundary_flux)


def assemble_form(grid: ReferenceGrid, diag_metric, cross_metric,
                  cross_vector, node_diag) -> sp.csr_matrix:
    """Hermitian form matrix from its face/node coefficient arrays.

    ``diag_metric[a]``: face_a array multiplying |d_a g|^2;
    ``cross_metric[(b, c)]``: node array multiplying (d_b g)* (d_c g), b != c;
    ``cross_vector[a]``: real face_a array r with the magnetic cross term
    i (G^t diag(r) Avg - Avg^t diag(r) G);
    ``node_diag``: node array multiplying |g|^2.

    This is the sparse-product reference of the cached scatter that
    :func:`assemble_hamiltonian` uses.
    """
    dim = grid.dim
    F_real = sp.csr_matrix((grid.n_nodes, grid.n_nodes))
    K = sp.csr_matrix((grid.n_nodes, grid.n_nodes))
    for a in range(dim):
        G = face_difference(grid, a)
        F_real = F_real + G.T @ G.multiply(
            np.asarray(diag_metric[a], dtype=float)[:, None])
        if cross_vector is not None:
            r = np.asarray(cross_vector[a], dtype=float)
            if np.any(r):
                Avg = face_average(grid, a)
                K = K + G.T @ Avg.multiply(r[:, None])
    if cross_metric:
        for (b, c), arr in cross_metric.items():
            Gb = face_to_node(grid, b) @ face_difference(grid, b)
            Gc = face_to_node(grid, c) @ face_difference(grid, c)
            F_real = F_real + Gb.T @ Gc.multiply(np.asarray(arr, float)[:, None])
    F = F_real.astype(complex)
    if K.nnz:
        F = F + 1j * (K - K.T)
    F = F + sp.diags(np.asarray(node_diag, dtype=complex))
    return F.tocsr()


def _conjugate_and_restrict(grid: ReferenceGrid, F: sp.spmatrix,
                            det_nodes: np.ndarray, bc: str, t: float
                            ) -> DiscreteHamiltonian:
    scale = 1.0 / np.sqrt(grid.weights * det_nodes)
    H_full = sp.diags(scale) @ F @ sp.diags(scale)
    if bc == DIRICHLET:
        dofs = grid.interior_indices
        H = H_full.tocsr()[dofs, :][:, dofs]
    else:
        dofs = np.arange(grid.n_nodes)
        H = H_full.tocsr()
    return DiscreteHamiltonian(matrix=H.tocsr(), bc=bc, t=t, grid=grid, dofs=dofs)


# -- cached assembly pattern ---------------------------------------------------

def _coefficient_blocks(pieces: _FormPieces, bc: str) -> list:
    """The form's coefficient arrays, in the order of :func:`_operator_blocks`."""
    dim = len(pieces.diag_metric)
    blocks = list(pieces.diag_metric)
    blocks += [pieces.cross_metric[key] for key in _cross_keys(dim)]
    blocks += list(pieces.cross_vector)
    blocks.append(pieces.node_diag)
    if bc == NAIVE_NEUMANN:
        blocks.append(pieces.boundary_flux)
    return blocks


def _operator_blocks(grid: ReferenceGrid, bc: str) -> list:
    """Per coefficient block c, the triples (G, K, w) with which it enters
    the form as the sum of w G^t diag(c) K."""
    G = [face_difference(grid, a) for a in range(grid.dim)]
    eye = sp.identity(grid.n_nodes, format="csr")
    blocks = [[(G[a], G[a], 1.0)] for a in range(grid.dim)]
    for b, c in _cross_keys(grid.dim):
        blocks.append([(face_to_node(grid, b) @ G[b],
                        face_to_node(grid, c) @ G[c], 1.0)])
    for a in range(grid.dim):
        Avg = face_average(grid, a)
        blocks.append([(G[a], Avg, 1j), (Avg, G[a], -1j)])
    blocks.append([(eye, eye, 1.0)])
    if bc == NAIVE_NEUMANN:
        trace = eye[grid.boundary_indices]
        blocks.append([(trace, trace, -1j)])
    return blocks


def _outer_entries(G: sp.csr_matrix, K: sp.csr_matrix):
    """Entries of G^t diag(c) K as (row, col, k, value), one per product
    G[k, row] K[k, col]; the entry is value * c[k]."""
    ng, nk = np.diff(G.indptr), np.diff(K.indptr)
    counts = ng * nk
    k = np.repeat(np.arange(G.shape[0]), counts)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    gi = G.indptr[k] + j // nk[k]
    ki = K.indptr[k] + j % nk[k]
    return G.indices[gi], K.indices[ki], k, G.data[gi] * K.data[ki]


@dataclass(frozen=True)
class _FormPattern:
    """CSR pattern of the conjugated Hamiltonian for one (grid, bc).

    ``weights`` maps the stacked coefficient blocks to the unscaled ``data``
    array; ``rows``/``cols`` are the node indices of each entry (for the
    square-root Jacobian similarity).
    """

    dofs: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: sp.csr_matrix
    rows: np.ndarray
    cols: np.ndarray


def _form_pattern(grid: ReferenceGrid, bc: str) -> _FormPattern:
    """Build the pattern; :func:`assemble_hamiltonian` caches it per grid.

    The Dirichlet restriction is folded in by dropping every entry outside
    the interior block, the naive-Neumann boundary term by its own block.
    """
    rows, cols, coeff, vals = [], [], [], []
    offset = 0
    for products in _operator_blocks(grid, bc):
        for G, K, w in products:
            r, c, k, v = _outer_entries(G, K)
            rows.append(r)
            cols.append(c)
            coeff.append(k + offset)
            vals.append(w * v)
        offset += products[0][0].shape[0]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    coeff, vals = np.concatenate(coeff), np.concatenate(vals)

    dofs = grid.interior_indices if bc == DIRICHLET else np.arange(grid.n_nodes)
    n = dofs.size
    local = np.full(grid.n_nodes, -1)
    local[dofs] = np.arange(n)
    r, c = local[rows], local[cols]
    keep = (r >= 0) & (c >= 0)
    entry, slot = np.unique(r[keep] * n + c[keep], return_inverse=True)
    weights = sp.csr_matrix((vals[keep], (slot, coeff[keep])),
                            shape=(entry.size, offset))
    # entries that cancel exactly (the diagonal of K - K^t) leave the pattern
    weights.eliminate_zeros()
    live = np.diff(weights.indptr) > 0
    weights, entry = weights[live], entry[live]

    r, c = entry // n, entry % n
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return _FormPattern(dofs=dofs, indptr=indptr,
                        indices=c.astype(np.int32), weights=weights,
                        rows=dofs[r], cols=dofs[c])


def form_pattern(grid: ReferenceGrid, bc: str) -> _FormPattern:
    """The cached assembly pattern of one (grid, boundary realization)."""
    if bc not in _BCS:
        raise InvalidInputError(f"unknown boundary condition {bc!r}; use one of {_BCS}")
    return grid.cached(("form_pattern", bc), lambda: _form_pattern(grid, bc))


def nested_dissection(grid: ReferenceGrid, bc: str) -> np.ndarray:
    """Nested-dissection elimination order of ``form_pattern(grid, bc)``'s
    dofs, a permutation of ``range(n_dofs)`` (cached per grid and bc).

    Geometric nested dissection (A. George, SIAM J. Numer. Anal. 10, 1973):
    each part of the dof set is bisected at the median grid index of its
    longer axis; the lower-half dofs with a pattern neighbour in the upper
    half form the separator, ordered after both halves, whose remaining dofs
    are split in turn until a part has at most ``sparse_lu._DISSECTION_LEAF``
    dofs.  The separator is read off the pattern's graph, not off grid lines,
    so it holds for stencils that reach further than one node (the
    magnetic-Neumann walls reach two).
    """
    pattern = form_pattern(grid, bc)
    return grid.cached(("nested_dissection", bc),
                       lambda: _nested_dissection(grid.shape, pattern))


def hamiltonian_data(family: DiffeoFamily, coeffs: CoefficientSet,
                     times: np.ndarray, grid: ReferenceGrid,
                     bc: str = DIRICHLET) -> np.ndarray:
    """The conjugated Hamiltonian's ``data`` at K times, shape ``(K, nnz)``.

    Row k holds the matrix at ``times[k]`` in the order of
    ``form_pattern(grid, bc)``.  The form's coefficients of all K times go
    through the pattern's cached linear map in one sparse product, then the
    square-root Jacobian similarity scales each row.
    """
    pattern = form_pattern(grid, bc)
    pieces = _form_pieces(grid, family, coeffs,
                          np.asarray(times, dtype=float).reshape(-1), bc)
    scale = 1.0 / np.sqrt(grid.weights * pieces.det_n)
    coef = np.concatenate(_coefficient_blocks(pieces, bc), axis=-1)
    data = np.ascontiguousarray((pattern.weights @ coef.T).T)
    data *= scale[:, pattern.rows] * scale[:, pattern.cols]
    return data


def assemble_hamiltonian(family: DiffeoFamily, coeffs: CoefficientSet,
                         t: float, grid: ReferenceGrid,
                         bc: str = DIRICHLET) -> DiscreteHamiltonian:
    """Discrete conjugated Hamiltonian at one time slice.

    The K = 1 case of :func:`hamiltonian_data`, wrapped in the pattern's
    CSR index arrays.
    """
    pattern = form_pattern(grid, bc)
    data = hamiltonian_data(family, coeffs, [t], grid, bc)
    n = pattern.dofs.size
    H = sp.csr_matrix((data[0], pattern.indices, pattern.indptr), shape=(n, n))
    return DiscreteHamiltonian(matrix=H, bc=bc, t=t, grid=grid, dofs=pattern.dofs)


def neumann_flux_coefficient(family: DiffeoFamily, t: float,
                             grid: ReferenceGrid, boundary_node: int) -> complex:
    """Robin coefficient of the transported Neumann condition at one node.

    Returns -(i/2) <nu | h_* dh/dt> evaluated at the image of the given
    boundary node; zero means the plain homogeneous Neumann condition.
    """
    where = np.flatnonzero(grid.boundary_indices == boundary_node)
    if where.size == 0:
        raise InvalidInputError(f"node {boundary_node} is not a boundary node")
    k = int(where[0])
    y = grid.nodes[boundary_node:boundary_node + 1]
    _, _, Jinv = jacobian_field(family, t, y)
    conormal = Jinv[0].T @ grid.boundary_normals[k]
    nu = conormal / np.linalg.norm(conormal)
    vel = np.asarray(family.velocity(t, y), dtype=float)[0]
    return complex(-0.5j * float(nu @ vel))


def energy_form(H: DiscreteHamiltonian, v: GridFunction) -> float:
    """<H v, v> in the quadrature inner product; must be real and finite."""
    vec = H.to_dofs(v)
    val = complex(np.vdot(vec, H.matrix @ vec))
    scale = max(abs(val), float(np.vdot(vec, vec).real)
                * float(np.max(np.abs(H.matrix.data)) if H.matrix.nnz else 0.0))
    # written so that a NaN or infinite energy fails the guard
    if not (np.isfinite(val) and abs(val.imag) <= 1e-10 * max(scale, 1e-300)):
        raise NonRealEnergyError(
            f"energy {val!r} is not finite or has a relative imaginary part "
            "above 1e-10")
    return val.real


def coercivity_bounds(family: DiffeoFamily, coeffs: CoefficientSet, t: float,
                      grid: ReferenceGrid) -> tuple:
    """Discrete constants (gamma, kappa) with
    <H v, v> >= gamma <H0 v, v> - kappa ||v||^2, H0 the pure-metric operator."""
    atil, vtil = EffectivePotentials(family, coeffs, t).pulled_pair(grid.nodes)
    a2 = np.sum(atil * atil, axis=-1)
    gamma = coeffs.alpha / 2.0
    # face-average mass versus nodal mass can exceed 1 by a quadrature factor
    _, det_n, _ = jacobian_field(family, t, grid.nodes)
    rho = _face_mass_ratio(grid, family, t, det_n)
    kappa = float(np.max(2.0 * rho * a2 - (a2 + vtil)))
    return gamma, max(kappa, 0.0)


def _face_mass_ratio(grid: ReferenceGrid, family: DiffeoFamily, t: float,
                     det_nodes: np.ndarray) -> float:
    node_mass = grid.weights * det_nodes
    acc = np.zeros(grid.n_nodes)
    for a in range(grid.dim):
        _, det_f, _ = jacobian_field(family, t, face_coords(grid, a))
        mu = face_weights(grid, a) * det_f
        Avg = face_average(grid, a)
        acc += Avg.T @ mu
    return float(np.max(acc / (grid.dim * node_mass)))


def eigenpairs(H: DiscreteHamiltonian, k: int = 5):
    """Lowest k Ritz pairs of the (Hermitian) Hamiltonian.

    Eigenvectors are columns, orthonormal in the dof (= quadrature) inner
    product.  Small problems are solved densely; larger ones by shift-invert
    Lanczos at a shift that :func:`_certified_shift` proves lies below the
    spectrum.  Non-finite data raise :class:`SolverDivergenceError`.
    """
    if not np.isfinite(H.matrix.data).all():
        raise SolverDivergenceError("Hamiltonian has non-finite entries")
    n = H.matrix.shape[0]
    if n <= 800 or k >= n - 2:
        dense = H.matrix.toarray()
        vals, vecs = np.linalg.eigh(dense)
        return vals[:k], vecs[:, :k]
    # deterministic generic start vector (ARPACK's default random start would
    # make results run-to-run dependent and can miss symmetry sectors)
    v0 = np.random.default_rng(1234).standard_normal(n)
    try:
        sigma, opinv = _certified_shift(H)
        vals, vecs = spla.eigsh(H.matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=opinv)
    except RuntimeError as exc:
        raise SolverDivergenceError(f"shift-invert eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _certified_shift(H: DiscreteHamiltonian):
    """A shift below the spectrum of H, and the inverse of H - sigma I at it.

    For the Hermitian realizations, sigma = -1, -4, -16, ... is tried in
    turn: H - sigma I, permuted into the cached nested-dissection order of
    its grid, is factored with diagonal pivots, and the first factor whose
    inertia proves it positive definite is returned as the shift-invert
    operator, so that nothing is factored twice (the spectral transformation
    of Ericsson and Ruhe, Math. Comp. 35, 1980).  A singular factor, or a shift
    at or below the Gershgorin lower bound, falls back to a shift below that
    bound, which needs no certificate; so does the non-Hermitian
    naive-Neumann realization, to which Sylvester's law does not apply.  The
    fallback factors H - sigma I in COLAMD order with threshold pivots, as
    ARPACK's own shift-invert would; a singular factor raises SuperLU's
    ``RuntimeError``.
    """
    M = H.matrix
    diag = M.diagonal().real
    row_abs = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    bound = float(np.min(diag - row_abs))
    probes = 0
    eye = sp.identity(M.shape[0], dtype=M.dtype, format="csc")
    if H.bc != NAIVE_NEUMANN:
        order = nested_dissection(H.grid, H.bc)
        inv = np.argsort(order)
        A = M[order][:, order].tocsc()
        sigma = -1.0
        while sigma > bound:
            probes += 1
            try:
                lu = factor(A - sigma * eye, "NATURAL", diagonal_pivots=True)
            except RuntimeError:
                break
            if inertia(lu) == (A.shape[0], 0):
                _log.debug("eigenpairs: sigma=%g probes=%d gershgorin_fallback=False",
                           sigma, probes)

                def solve(x):
                    return lu.solve(np.asarray(x, dtype=complex).ravel()[order])[inv]

                return sigma, spla.LinearOperator(A.shape, matvec=solve,
                                                  dtype=complex)
            sigma *= 4.0
    sigma = bound - 1.0
    _log.debug("eigenpairs: sigma=%g probes=%d gershgorin_fallback=True",
               sigma, probes)
    lu = factor((M - sigma * eye).tocsc(), "COLAMD", diagonal_pivots=False)
    return sigma, spla.LinearOperator(M.shape, matvec=lu.solve, dtype=complex)
