import numpy as np
import pytest
import scipy.sparse as sp

from schrodeform.errors import EllipticityViolatedError, NonRealEnergyError
from schrodeform.geometry import GridFunction, ReferenceGrid, identity_family
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    CoefficientSet,
    EffectivePotentials,
    _conjugate_and_restrict,
    _form_pieces,
    assemble_form,
    assemble_hamiltonian,
    coercivity_bounds,
    eigenpairs,
    energy_form,
    free_coefficients,
    isotropic_coefficients,
)
from schrodeform.scenarios.families import (
    diagonal_family,
    interval_family,
    rotation_family,
)


@pytest.fixture(scope="module")
def moving_interval():
    return interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)


def test_flat_dirichlet_spectrum():
    grid = ReferenceGrid.interval(400)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    vals, _ = eigenpairs(H, k=3)
    exact = np.pi ** 2 * np.array([1.0, 4.0, 9.0])
    assert np.max(np.abs(vals - exact) / exact) <= 1e-3


def test_conjugated_spectrum_frozen_stretch():
    grid = ReferenceGrid.interval(400)
    fam = interval_family(lambda t: 2.0, lambda t: 0.0)
    H = assemble_hamiltonian(fam, free_coefficients(1), 0.0, grid, DIRICHLET)
    vals, _ = eigenpairs(H, k=3)
    exact = np.pi ** 2 / 4 * np.array([1.0, 4.0, 9.0])
    assert np.max(np.abs(vals - exact) / exact) <= 1e-3


def test_spectral_invariance_under_conjugation(moving_interval):
    # conjugated assembly vs direct assembly on a grid of the image interval
    grid = ReferenceGrid.interval(200)
    H_conj = assemble_hamiltonian(moving_interval.frozen(1.0),
                                  free_coefficients(1), 0.0, grid, DIRICHLET)
    grid_img = ReferenceGrid.interval(200, 0.0, 1.5)
    H_direct = assemble_hamiltonian(identity_family(1), free_coefficients(1),
                                    0.0, grid_img, DIRICHLET)
    v1, _ = eigenpairs(H_conj, k=5)
    v2, _ = eigenpairs(H_direct, k=5)
    assert np.max(np.abs(v1 - v2) / np.abs(v2)) <= 5e-3


def test_hermiticity_dirichlet_and_neumann(moving_interval):
    grid = ReferenceGrid.interval(150)
    for bc in (DIRICHLET, MAGNETIC_NEUMANN):
        for t in (0.0, 0.33, 0.77):
            H = assemble_hamiltonian(moving_interval, free_coefficients(1),
                                     t, grid, bc)
            assert H.hermiticity_residual() <= 1e-12


def test_naive_neumann_not_hermitian_when_moving(moving_interval):
    grid = ReferenceGrid.interval(100)
    H = assemble_hamiltonian(moving_interval, free_coefficients(1), 0.5,
                             grid, NAIVE_NEUMANN)
    assert H.hermiticity_residual() > 1e-6


def test_2d_hermiticity_with_cross_metric():
    from schrodeform.scenarios.families import warped_2d_family
    grid = ReferenceGrid.rectangle(16)
    fam = warped_2d_family()
    for bc in (DIRICHLET, MAGNETIC_NEUMANN):
        H = assemble_hamiltonian(fam, free_coefficients(2), 0.6, grid, bc)
        assert H.hermiticity_residual() <= 1e-12


def test_1d_fast_path_matches_generic(moving_interval):
    # the cached-pattern scatter against the sparse-product reference
    from schrodeform.scenarios.families import warped_2d_family

    coeffs_1d = isotropic_coefficients(
        1, electric=lambda t, x: 0.4 * x[..., 0] ** 2,
        magnetic=lambda t, x: 0.2 * np.ones_like(x))
    coeffs_2d = isotropic_coefficients(
        2, electric=lambda t, x: 0.4 * x[..., 0] ** 2 - x[..., 1],
        magnetic=lambda t, x: np.stack([0.3 * x[..., 1], -0.2 * x[..., 0]],
                                       axis=-1))
    square = ((-0.5, 0.5), (-0.5, 0.5))
    cases = [
        (moving_interval, coeffs_1d, ReferenceGrid.interval(80)),
        (warped_2d_family(), coeffs_2d, ReferenceGrid.rectangle(12)),
        (rotation_family(1.3), coeffs_2d, ReferenceGrid.rectangle(10, square)),
    ]
    for fam, coeffs, grid in cases:
        for bc in (DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN):
            fast = assemble_hamiltonian(fam, coeffs, 0.6, grid, bc)
            pieces = _form_pieces(grid, fam, coeffs, 0.6, bc)
            F = assemble_form(grid, pieces.diag_metric, pieces.cross_metric,
                              pieces.cross_vector, pieces.node_diag)
            if bc == NAIVE_NEUMANN:
                flux = np.zeros(grid.n_nodes)
                flux[grid.boundary_indices] = pieces.boundary_flux
                F = F - 1j * sp.diags(flux)
            generic = _conjugate_and_restrict(grid, F, pieces.det_n, bc, 0.6)
            diff = fast.matrix - generic.matrix
            scale = np.max(np.abs(generic.matrix.data))
            assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-13 * scale
            # the pattern is built once per (grid, bc) and shared by later steps
            again = assemble_hamiltonian(fam, coeffs, 0.7, grid, bc)
            assert np.shares_memory(again.matrix.indices, fast.matrix.indices)


def test_effective_coefficients_static_reduction():
    fam = identity_family(1)
    coeffs = isotropic_coefficients(
        1, electric=lambda t, x: np.cos(x[..., 0]),
        magnetic=lambda t, x: 0.3 * x)
    pts = np.linspace(0, 1, 7)[:, None]
    atil, vtil = EffectivePotentials(fam, coeffs, 0.4).pulled_pair(pts)
    assert np.array_equal(atil, 0.3 * pts)
    assert np.array_equal(vtil, np.cos(pts[:, 0]))


def test_effective_coefficients_pure_motion(moving_interval):
    # D = I, A = 0, V = 0: A~ = A_h and V~ = -|A_h|^2
    pot = EffectivePotentials(moving_interval, free_coefficients(1), 0.5)
    pts = np.array([[0.25], [0.75]])
    ah = pot.pulled_motion_potential(pts)
    assert np.allclose(ah, -0.25 * pts)  # -(1/2) l'(t) y with l' = 0.5
    atil, vtil = pot.pulled_pair(pts)
    assert np.allclose(atil, ah)
    assert np.allclose(vtil, -np.sum(ah * ah, axis=-1))


def test_effective_coefficients_rotation_repulsive_potential():
    fam = rotation_family(1.2)
    pts = np.array([[0.2, -0.4], [0.1, 0.5]])
    _, vt = EffectivePotentials(fam, free_coefficients(2), 0.3).pulled_pair(pts)
    r2 = np.sum(fam.map(0.3, pts) ** 2, axis=-1)
    assert np.allclose(vt, -1.2 ** 2 * r2 / 4, atol=1e-14)


def test_ellipticity_guard():
    bad = CoefficientSet(
        diffusion=lambda t, x: 0.1 * np.ones(x.shape[:-1] + (1, 1)),
        magnetic=lambda t, x: np.zeros_like(x),
        electric=lambda t, x: np.zeros(x.shape[:-1]),
        alpha=1.0)
    grid = ReferenceGrid.interval(16)
    with pytest.raises(EllipticityViolatedError):
        assemble_hamiltonian(identity_family(1), bad, 0.0, grid, DIRICHLET)

    asym = CoefficientSet(
        diffusion=lambda t, x: np.broadcast_to(
            np.array([[1.0, 0.5], [0.0, 1.0]]), x.shape[:-1] + (2, 2)).copy(),
        magnetic=lambda t, x: np.zeros_like(x),
        electric=lambda t, x: np.zeros(x.shape[:-1]),
        alpha=0.5)
    grid2 = ReferenceGrid.rectangle(6)
    with pytest.raises(EllipticityViolatedError):
        assemble_hamiltonian(identity_family(2), asym, 0.0, grid2, DIRICHLET)


def test_energy_form_zero_state():
    grid = ReferenceGrid.interval(32)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    assert energy_form(H, GridFunction.constant(grid, 0.0)) == 0.0


def test_energy_form_rayleigh_quotient():
    grid = ReferenceGrid.interval(200)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    vals, vecs = eigenpairs(H, k=1)
    v = H.from_dofs(vecs[:, 0])
    assert energy_form(H, v) == pytest.approx(np.pi ** 2, rel=1e-3)


def test_energy_form_detects_non_hermitian(moving_interval):
    grid = ReferenceGrid.interval(64)
    H = assemble_hamiltonian(moving_interval, free_coefficients(1), 0.5,
                             grid, NAIVE_NEUMANN)
    rng = np.random.default_rng(0)
    v = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    with pytest.raises(NonRealEnergyError):
        energy_form(H, v)


def test_coercivity_audit(moving_interval):
    grid = ReferenceGrid.interval(100)
    coeffs = isotropic_coefficients(
        1, electric=lambda t, x: -np.sin(3 * x[..., 0]))
    t = 0.6
    H = assemble_hamiltonian(moving_interval, coeffs, t, grid, DIRICHLET)
    H0 = assemble_hamiltonian(moving_interval, free_coefficients(1), t, grid,
                              DIRICHLET)
    gamma, kappa = coercivity_bounds(moving_interval, coeffs, t, grid)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = GridFunction(grid, np.zeros(grid.n_nodes, dtype=complex))
        v.values[grid.interior_indices] = (
            rng.standard_normal(grid.interior_indices.size)
            + 1j * rng.standard_normal(grid.interior_indices.size))
        lhs = energy_form(H, v)
        rhs = gamma * energy_form(H0, v) - kappa * v.norm() ** 2
        assert lhs >= rhs - 1e-9 * abs(rhs)


def test_banded_representation_matches_matrix(moving_interval):
    grid = ReferenceGrid.interval(50)
    H = assemble_hamiltonian(moving_interval, free_coefficients(1), 0.4,
                             grid, MAGNETIC_NEUMANN)
    dense = H.matrix.toarray()
    ab = H.banded
    n = dense.shape[0]
    assert np.allclose(np.diag(dense), ab[1])
    assert np.allclose(np.diag(dense, 1), ab[0, 1:])
    assert np.allclose(np.diag(dense, -1), ab[2, :-1])
    assert n == H.n_dofs


def test_2d_diagonal_family_spectrum():
    # rectangle (0, 2) x (0, 1) via a frozen diagonal stretch of the square
    grid = ReferenceGrid.rectangle(40)
    fam = diagonal_family((lambda t: 2.0, lambda t: 1.0),
                          (lambda t: 0.0, lambda t: 0.0))
    H = assemble_hamiltonian(fam, free_coefficients(2), 0.0, grid, DIRICHLET)
    vals, _ = eigenpairs(H, k=3)
    exact = np.pi ** 2 * np.array([0.25 + 1.0, 1.0 + 1.0, 2.25 + 1.0])
    assert np.max(np.abs(vals - exact) / exact) <= 5e-3


def test_spectrum_bounded_below_spot_check(moving_interval):
    grid = ReferenceGrid.interval(60)
    for t in (0.0, 0.5, 1.0):
        H = assemble_hamiltonian(moving_interval, free_coefficients(1), t,
                                 grid, DIRICHLET)
        assert H.lowest_ritz_value() > 0.0
    Hn = assemble_hamiltonian(moving_interval, free_coefficients(1), 0.5,
                              grid, MAGNETIC_NEUMANN)
    assert Hn.lowest_ritz_value() > -1.0


def _coefficients(diffusion, alpha=1.0):
    return CoefficientSet(diffusion=diffusion,
                          magnetic=lambda t, x: np.zeros_like(x),
                          electric=lambda t, x: np.zeros(x.shape[:-1]),
                          alpha=alpha)


def test_nan_diffusion_fails_the_symmetry_guard():
    # a NaN diffusion used to assemble silently, then break eigenpairs
    nan = _coefficients(lambda t, x: np.full(x.shape[:-1] + (1, 1), np.nan))
    grid = ReferenceGrid.interval(16)
    with pytest.raises(EllipticityViolatedError, match="symmetric"):
        assemble_hamiltonian(identity_family(1), nan, 0.0, grid, DIRICHLET)


def test_nan_ellipticity_floor_fails_the_singular_value_guard():
    unit = _coefficients(lambda t, x: np.ones(x.shape[:-1] + (1, 1)),
                         alpha=np.nan)
    grid = ReferenceGrid.interval(16)
    with pytest.raises(EllipticityViolatedError, match="singular value"):
        assemble_hamiltonian(identity_family(1), unit, 0.0, grid, DIRICHLET)
