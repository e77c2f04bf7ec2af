import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from schrodeform.errors import (
    DegenerateJacobianError,
    EllipticityViolatedError,
    InvalidInputError,
    NonRealEnergyError,
    SolverDivergenceError,
)
from schrodeform.geometry import DiffeoFamily, GridFunction, ReferenceGrid, identity_family
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    CoefficientSet,
    EffectivePotentials,
    _certified_shift,
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
from schrodeform.scenarios import warped_2d_family
from schrodeform.scenarios.families import (
    diagonal_family,
    homothety_family,
    interval_family,
    rotation_family,
)
from schrodeform.sparse_lu import factor, inertia


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


@pytest.mark.parametrize("family, t, grid, bc", [
    (interval_family(lambda t: 1 + 1e200 * t, lambda t: 1e200), 1e-200,
     ReferenceGrid.interval(16), DIRICHLET),
    (warped_2d_family(b=1e300), 0.5, ReferenceGrid.rectangle(8), MAGNETIC_NEUMANN),
], ids=["interval_1d", "warped_2d"])
def test_overflowing_motion_potential_is_invalid_input(family, t, grid, bc):
    # squaring these potentials used to overflow into a NaN matrix, with
    # RuntimeWarnings on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match=r"motion potential .* at t=.*, y=\["):
            assemble_hamiltonian(family, free_coefficients(grid.dim), t, grid, bc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _const(value):
    return lambda t: np.full(np.shape(t), value)


@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN])
@pytest.mark.parametrize("family, error, match", [
    # J^-1 = diag(1e160, 1): theta = C^t C used to overflow into a NaN matrix
    (diagonal_family([_const(1e-160), _const(1.0)], [_const(0.0)] * 2),
     InvalidInputError,
     r"metric D J\^-t may reach 2\.000e\+160 > 1e\+150 at t=0\.5, y=\["),
    # det J = 1e400: smallmat.det used to overflow before the guard saw inf
    (homothety_family(_const(1e200), _const(0.0), dim=2),
     DegenerateJacobianError, r"det J = inf .* at t=0\.5, y=\["),
], ids=["tiny_axis", "huge_homothety"])
def test_overflowing_metric_raises_before_any_warning(bc, family, error, match):
    grid = ReferenceGrid.rectangle(8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=match):
            assemble_hamiltonian(family, free_coefficients(2), 0.5, grid, bc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _sheared(a):
    """The constant linear map y -> A y."""
    a = np.asarray(a, dtype=float)
    return DiffeoFamily(
        map=lambda t, y: np.asarray(y, dtype=float) @ a.T,
        dmap_dt=lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
        jacobian=lambda t, y: np.broadcast_to(a, np.shape(y)[:-1] + a.shape).copy(),
        jacobian_dt=lambda t, y: np.zeros(np.shape(y)[:-1] + a.shape))


@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN])
@pytest.mark.parametrize("family, grid, match", [
    # a positive subnormal det J: 1 / det used to overflow in smallmat.inv
    (diagonal_family([_const(1e-310), _const(1.0)], [_const(0.0)] * 2),
     ReferenceGrid.rectangle(8), r"10\^310\.0 > 1e\+300 \(det J = 1\.000e-310\)"),
    (interval_family(_const(1e-310), _const(0.0)), ReferenceGrid.interval(16),
     r"10\^310\.0 > 1e\+300 \(det J = 1\.000e-310\)"),
    # a normal det J = 1e-150, small next to the entry 1e200: J^-1 has -1e350
    (_sheared([[1.0, 1e200], [0.0, 1e-150]]), ReferenceGrid.rectangle(8),
     r"10\^350\.0 > 1e\+300 \(det J = 1\.000e-150\)"),
], ids=["subnormal_det_2d", "subnormal_det_1d", "small_det_next_to_J"])
def test_an_overflowing_inverse_jacobian_raises_before_any_warning(bc, family,
                                                                  grid, match):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match=match + r" at t=0\.5, y=\["):
            assemble_hamiltonian(family, free_coefficients(grid.dim), 0.5, grid, bc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_large_jacobian_with_a_finite_determinant_is_not_degenerate():
    # entries of 1e200 and 1e-200: det J = 1 is taken as usual; its inverse
    # is what overflows the metric
    family = diagonal_family([_const(1e200), _const(1e-200)], [_const(0.0)] * 2)
    grid = ReferenceGrid.rectangle(6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match=r"metric D J\^-t"):
            assemble_hamiltonian(family, free_coefficients(2), 0.5, grid, DIRICHLET)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_energy_form_rejects_a_nan_state():
    grid = ReferenceGrid.interval(8)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    values = np.ones(grid.n_nodes, dtype=complex)
    values[4] = np.nan
    with pytest.raises(NonRealEnergyError, match="not finite"):
        energy_form(H, GridFunction(grid, values))


# -- eigenpairs: non-finite data and the certified shift ----------------------

WARPED = warped_2d_family(b=0.3)


def _bump(amplitude):
    """A Gaussian electric well at the centre of the moving square."""
    def electric(t, x):
        r2 = (x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.5) ** 2
        return amplitude * np.exp(-r2 / 0.02)
    return isotropic_coefficients(2, electric=electric)


def _warped(bc, coeffs=None, cells=32, t=0.0):
    return assemble_hamiltonian(WARPED, coeffs or free_coefficients(2), t,
                                ReferenceGrid.rectangle(cells), bc)


@pytest.mark.parametrize("cells, bc", [(16, DIRICHLET),
                                       (32, MAGNETIC_NEUMANN)])
def test_eigenpairs_rejects_non_finite_data(cells, bc):
    # 225 dofs take the dense branch, 1089 the sparse one
    H = _warped(bc, cells=cells)
    H.matrix.data[5] = np.nan
    with pytest.raises(SolverDivergenceError, match="non-finite"):
        eigenpairs(H, k=2)


def test_assembly_rejects_a_nan_electric_potential():
    # the 8^2 warped family used to assemble 81 NaN entries without a word
    coeffs = isotropic_coefficients(
        2, electric=lambda t, x: np.full(np.shape(x)[:-1], np.nan))
    with pytest.raises(InvalidInputError, match=r"t=0\.25 has non-finite entries"):
        assemble_hamiltonian(WARPED, coeffs, 0.25, ReferenceGrid.rectangle(8),
                             MAGNETIC_NEUMANN)


@pytest.mark.parametrize("k", [-1, 0, "n + 1", 2.5])
def test_eigenpairs_rejects_k_outside_one_to_n(k):
    # k = -1 used to return n - 1 pairs, k = 0 none, k = 2.5 a raw TypeError
    H = _warped(DIRICHLET, cells=8)
    k = H.n_dofs + 1 if k == "n + 1" else k
    with pytest.raises(InvalidInputError, match=f"k={k} eigenpairs"):
        eigenpairs(H, k=k)
    assert len(eigenpairs(H, k=H.n_dofs)[0]) == H.n_dofs


def _assert_matches_dense(H, k=3):
    vals, vecs = eigenpairs(H, k=k)
    ref = np.linalg.eigvalsh(H.matrix.toarray())[:k]
    # the floor covers eigenvalues near zero, where the dense reference is
    # itself only good to about eps ||H|| (2.5e-11 at 32^2 magnetic Neumann,
    # whose lowest eigenvalue is -8.1e-3)
    np.testing.assert_allclose(vals, ref, rtol=1e-9, atol=1e-9)
    scale = np.abs(H.matrix.data).max()
    for j in range(k):
        residual = H.matrix @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(residual) <= 1e-12 * scale


@pytest.mark.parametrize("bc, n_dofs", [(DIRICHLET, 961),
                                        (MAGNETIC_NEUMANN, 1089)])
def test_sparse_eigenpairs_match_dense(bc, n_dofs):
    # Dirichlet has a Gershgorin bound of about 0 and takes the fallback;
    # magnetic Neumann (bound about -850) is certified at sigma = -1
    H = _warped(bc)
    assert H.n_dofs == n_dofs
    _assert_matches_dense(H)


def _assert_inverts_shift(H, sigma, opinv):
    """opinv solves (H - sigma I) x = b to a relative residual of 1e-10."""
    b = np.random.default_rng(3).standard_normal(H.n_dofs) + 0j
    x = opinv.matvec(b)
    residual = H.matrix @ x - sigma * x - b
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


def _shift_record(caplog, H):
    """Run the shift search on H; return its shift and its DEBUG record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="schrodeform"):
        sigma, opinv = _certified_shift(H)
    [record] = caplog.records
    return sigma, opinv, record.getMessage()


@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN])
def test_deep_well_climbs_the_shift_ladder(caplog, bc):
    # sigma = -1 lies above the lowest eigenvalue (about -237): the ladder
    # must go on until a shift is certified, well before Gershgorin's bound
    H = _warped(bc, _bump(-500.0))
    sigma, opinv, message = _shift_record(caplog, H)
    assert opinv is not None
    assert "gershgorin_fallback=False" in message
    assert sigma < -4.0
    assert sigma < np.linalg.eigvalsh(H.matrix.toarray())[0]
    _assert_matches_dense(H)


def test_deepest_well_falls_back_to_gershgorin(caplog):
    # the lowest eigenvalue (about -9.7e4) lies below every probe the ladder
    # makes before it passes the Gershgorin bound
    H = _warped(MAGNETIC_NEUMANN, _bump(-1e5))
    sigma, opinv, message = _shift_record(caplog, H)
    _assert_inverts_shift(H, sigma, opinv)
    assert "probes=9 gershgorin_fallback=True" in message
    diag = H.matrix.diagonal().real
    row_abs = np.asarray(abs(H.matrix).sum(axis=1)).ravel() - np.abs(diag)
    assert sigma == np.min(diag - row_abs) - 1.0
    _assert_matches_dense(H)


def test_a_shift_above_the_lowest_eigenvalue_is_not_certified():
    H = _warped(DIRICHLET)
    lam = np.linalg.eigvalsh(H.matrix.toarray())[:2]
    A, n = H.matrix.tocsc(), H.n_dofs
    eye = sp.identity(n, dtype=A.dtype, format="csc")

    def definite(sigma):
        return inertia(factor(A - sigma * eye, "NATURAL", diagonal_pivots=True)) == (n, 0)

    assert definite(lam[0] - 1e-3)
    assert not definite(lam[0] + 1e-3)
    assert not definite(0.5 * (lam[0] + lam[1]))


def test_naive_neumann_keeps_the_gershgorin_shift(caplog):
    # not Hermitian on a moving boundary, so no inertia certificate applies
    H = _warped(NAIVE_NEUMANN, t=0.5)
    assert H.hermiticity_residual() > 1e-6
    sigma, opinv, message = _shift_record(caplog, H)
    _assert_inverts_shift(H, sigma, opinv)
    assert "probes=0 gershgorin_fallback=True" in message


@pytest.mark.parametrize("case", ["deepest_well", "naive_neumann"])
def test_gershgorin_fallback_factors_through_sparse_lu(monkeypatch, case):
    # the fallback hands ARPACK its own factor of H - sigma I, so ARPACK's
    # internal SuperLU path is never taken
    from scipy.sparse.linalg._eigen.arpack import arpack

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK factored H - sigma I itself")

    monkeypatch.setattr(arpack, "SpLuInv", refuse)
    if case == "deepest_well":
        _assert_matches_dense(_warped(MAGNETIC_NEUMANN, _bump(-1e5)))
    else:
        vals, vecs = eigenpairs(_warped(NAIVE_NEUMANN, t=0.5), k=3)
        assert np.isfinite(vals).all() and np.isfinite(vecs).all()


def test_eigenpairs_logs_its_shift_at_debug_only(caplog):
    H = _warped(MAGNETIC_NEUMANN)
    eigenpairs(H, k=2)
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="schrodeform")
    eigenpairs(H, k=2)
    [record] = caplog.records
    assert record.name == "schrodeform.operators"
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "eigenpairs: sigma=-1 probes=1 gershgorin_fallback=False")
