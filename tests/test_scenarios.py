import numpy as np
import pytest

from schrodeform.errors import DegenerateBranchError, GaugeIncompatibleError
from schrodeform.geometry import GridFunction, ReferenceGrid, identity_family
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    assemble_hamiltonian,
    free_coefficients,
    magnetic_potential,
    neumann_flux_coefficient,
)
from schrodeform.propagator import PropagatorConfig, evolve
from schrodeform.scenarios import (
    GaugeSpec,
    adiabatic_experiment,
    apply_gauge,
    cylinder_scenario,
    gauge_equivalence_check,
    homothety_scenario,
    moving_interval_scenario,
    rotation_magnetic_coefficients,
    rotation_scenario,
    slowed_family,
    spectral_projector,
    translation_scenario,
)


# -- gauge --------------------------------------------------------------------

def test_gauge_compatibility_on_random_samples():
    rng = np.random.default_rng(42)
    for scen in (translation_scenario(), homothety_scenario()):
        pts = rng.uniform(0.05, 0.95, size=(100, scen.dim))
        for t in rng.uniform(0.0, 1.0, size=5):
            res = scen.gauge.compatibility_residual(scen.family, t, pts)
            assert res <= 1e-10


def test_apply_gauge_trivial_phase():
    grid = ReferenceGrid.interval(32)
    fam = identity_family(1)
    gauge = GaugeSpec(phase=lambda t, x: np.zeros(x.shape[0]),
                      grad=lambda t, x: np.zeros_like(x))
    v = GridFunction.from_callable(grid, lambda y: np.exp(1j * y[:, 0]))
    w = apply_gauge(v, gauge, fam, 0.5)
    assert np.array_equal(w.values, v.values)


def test_apply_gauge_preserves_norm_exactly():
    grid = ReferenceGrid.interval(64)
    scen = translation_scenario()
    v = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    w = apply_gauge(v, scen.gauge, scen.family, 0.7)
    assert w.norm() == pytest.approx(v.norm(), abs=1e-14)


def test_apply_gauge_rejects_incompatible_phase():
    grid = ReferenceGrid.interval(16)
    scen = translation_scenario()
    bad = GaugeSpec(phase=lambda t, x: x[:, 0],
                    grad=lambda t, x: np.ones_like(x))
    with pytest.raises(GaugeIncompatibleError):
        apply_gauge(GridFunction.constant(grid, 1.0), bad, scen.family, 0.5)


def test_translation_reduced_potential_matches_example():
    # D(t) = (t^2/2) e1 gives D'' = e1 and the reduced potential y/2
    scen = translation_scenario()
    pts = np.array([[0.2], [0.8]])
    vals = scen.reduced.coeffs.electric(0.3, pts)
    assert np.allclose(vals, 0.5 * pts[:, 0])


def test_translation_twin_fidelity_quick():
    scen = translation_scenario()
    cfg = PropagatorConfig(dt=2e-3, t_start=0.0, t_end=1.0)
    report = gauge_equivalence_check(scen, cfg, cells=100)
    assert report["fidelity"] >= 1 - 1e-6


def test_homothety_trivial_scale_is_free_equation():
    scen = homothety_scenario(scale=lambda t: 1.0, dscale=lambda t: 0.0,
                              ddscale=lambda t: 0.0)
    assert scen.reduced.time_map(0.7) == pytest.approx(0.7, abs=1e-9)
    pts = np.array([[0.4]])
    assert scen.reduced.coeffs.electric(0.5, pts)[0] == pytest.approx(0.0)


def test_homothety_gauge_gradient_value():
    # f = 1 + t/2 at t = 0: h_* dh/dt = x/2, so 2 grad phi must equal x/2
    scen = homothety_scenario()
    x = np.array([[0.6]])
    assert 2 * scen.gauge.grad(0.0, x)[0, 0] == pytest.approx(0.3, rel=1e-12)


def test_homothety_twin_fidelity_quick():
    scen = homothety_scenario()
    cfg = PropagatorConfig(dt=2e-3, t_start=0.0, t_end=1.0)
    report = gauge_equivalence_check(scen, cfg, cells=100)
    assert report["fidelity"] >= 1 - 1e-5


def test_static_gauge_check_is_exact():
    # motionless family with zero phase: fidelity 1 within solver tolerance
    scen = translation_scenario(path=lambda t: np.array([0.25]),
                                velocity=lambda t: np.array([0.0]),
                                accel=lambda t: np.array([0.0]))
    cfg = PropagatorConfig(dt=2e-3, t_start=0.0, t_end=0.3)
    report = gauge_equivalence_check(scen, cfg, cells=64)
    assert report["fidelity"] >= 1 - 1e-12


def test_translation_metadata_names_the_path():
    assert translation_scenario().metadata["path"] == "t^2/2"
    scen = translation_scenario(path=lambda t: [0.1 * t],
                                velocity=lambda t: [0.1],
                                accel=lambda t: [0.0])
    assert scen.metadata["path"] == "custom"


# -- rotation -----------------------------------------------------------------

def test_rotation_zero_speed_plain_laplacian():
    scen = rotation_scenario(0.0)
    rep = scen.self_test(cells=24)
    assert rep["matrix_identity"] <= 1e-15
    grid = scen.grid(24)
    Hm = assemble_hamiltonian(identity_family(2),
                              rotation_magnetic_coefficients(0.0), 0.0, grid,
                              DIRICHLET)
    Hp = assemble_hamiltonian(identity_family(2), free_coefficients(2), 0.0,
                              grid, DIRICHLET)
    diff = Hm.matrix - Hp.matrix
    assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-12


def test_rotation_double_assembly_identity():
    rep = rotation_scenario(1.0).self_test(cells=64)
    assert rep["matrix_identity"] <= 1e-12
    assert rep["hermiticity"] <= 1e-12


def test_rotation_volume_preserving():
    scen = rotation_scenario(1.3)
    grid = scen.grid(12)
    for t in (0.0, 0.4, 0.9):
        J = scen.family.jacobian_matrix(t, grid.nodes)
        assert np.max(np.abs(np.linalg.det(J) - 1.0)) <= 1e-14


def test_rotation_conjugated_assembly_consistent():
    # the full conjugated assembly agrees with the fixed-frame operators
    # up to roundoff amplified by the stiffness scale
    scen = rotation_scenario(1.0)
    grid = scen.grid(32)
    Hm = assemble_hamiltonian(identity_family(2),
                              rotation_magnetic_coefficients(1.0), 0.3, grid,
                              DIRICHLET)
    Hc = assemble_hamiltonian(scen.family, scen.coeffs, 0.3, grid, DIRICHLET)
    diff = Hm.matrix - Hc.matrix
    scale = np.max(np.abs(Hm.matrix.data))
    assert np.max(np.abs(diff.data)) / scale <= 1e-9


# -- cylinder -----------------------------------------------------------------

def test_cylinder_flux_coefficients():
    scen = cylinder_scenario(length=lambda t: 1.0 + 0.3 * t,
                             dlength=lambda t: 0.3)
    grid = scen.grid(32)
    fixed = neumann_flux_coefficient(scen.family, 0.5, grid, 0)
    moving = neumann_flux_coefficient(scen.family, 0.5, grid, grid.n_nodes - 1)
    assert fixed == pytest.approx(0.0, abs=1e-14)
    assert moving == pytest.approx(-0.15j, abs=1e-12)


def test_cylinder_static_is_homogeneous_neumann():
    scen = cylinder_scenario(length=lambda t: 1.2, dlength=lambda t: 0.0)
    grid = scen.grid(16)
    flux = [neumann_flux_coefficient(scen.family, 0.4, grid, int(i))
            for i in grid.boundary_indices]
    assert all(abs(c) <= 1e-14 for c in flux)


def test_cylinder_lateral_wall_flux_vanishes_in_2d():
    # axial stretch of a 2D section: motion is tangent to the lateral wall
    from schrodeform.scenarios import diagonal_family
    fam = diagonal_family((lambda t: 1 + 0.5 * t, lambda t: 1.0),
                          (lambda t: 0.5, lambda t: 0.0))
    grid = ReferenceGrid.rectangle(8)
    lateral = None
    for k, idx in enumerate(grid.boundary_indices):
        normal = grid.boundary_normals[k]
        if normal[0] == 0.0:  # lateral wall node (not a corner)
            lateral = int(idx)
            break
    coeff = neumann_flux_coefficient(fam, 0.5, grid, lateral)
    assert coeff == pytest.approx(0.0, abs=1e-14)


def test_cylinder_evolution_norm_drift():
    scen = cylinder_scenario()
    grid = scen.grid(100)
    v0 = scen.build_initial(grid)
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    tr = evolve(scen.family, scen.coeffs, scen.bc, v0, cfg)
    assert tr.norm_drift() <= 1e-8


# -- spectral projector ---------------------------------------------------------

def test_spectral_projector_flat_interval():
    grid = ReferenceGrid.interval(400)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    branch = spectral_projector(H, 0)
    assert branch.eigenvalue == pytest.approx(np.pi ** 2, rel=1e-3)
    y = grid.nodes[:, 0]
    mode = branch.eigenvector.values
    mode = mode * np.sign(mode[len(mode) // 2].real)
    assert np.max(np.abs(mode - np.sqrt(2) * np.sin(np.pi * y))) <= 5e-3


def test_spectral_projector_stretched_interval():
    from schrodeform.scenarios import interval_family
    grid = ReferenceGrid.interval(400)
    fam = interval_family(lambda t: 2.0, lambda t: 0.0)
    H = assemble_hamiltonian(fam, free_coefficients(1), 0.0, grid, DIRICHLET)
    assert spectral_projector(H, 0).eigenvalue == pytest.approx(
        np.pi ** 2 / 4, rel=1e-3)


def test_spectral_projector_idempotent():
    grid = ReferenceGrid.interval(64)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    branch = spectral_projector(H, 1)
    rng = np.random.default_rng(2)
    u = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    once = branch.project(u)
    twice = branch.project(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-12


def test_spectral_projector_degenerate_branch():
    # the square's (1,2)/(2,1) Dirichlet modes are exactly degenerate
    grid = ReferenceGrid.rectangle(24)
    H = assemble_hamiltonian(identity_family(2), free_coefficients(2), 0.0,
                             grid, DIRICHLET)
    with pytest.raises(DegenerateBranchError):
        spectral_projector(H, 1)


# -- adiabatic ----------------------------------------------------------------

def test_slowed_family_consistency():
    scen = moving_interval_scenario(1.0, 1.5, smooth=True)
    slow = slowed_family(scen.family, 0.1)
    y = np.array([[0.3], [0.9]])
    assert np.allclose(slow.map(4.0, y), scen.family.map(0.4, y))
    assert np.allclose(slow.velocity(4.0, y),
                       0.1 * scen.family.velocity(0.4, y))
    assert slow.window == (0.0, 10.0)


def test_adiabatic_static_family_flat_overlap():
    fam = identity_family(1, window=(0.0, 1.0))
    grid = ReferenceGrid.interval(64)
    run = adiabatic_experiment(fam, free_coefficients(1), 0, [0.5, 0.25],
                               grid, dt=5e-3)
    assert np.allclose(run.overlaps, run.initial_overlap, atol=1e-9)


def test_adiabatic_trend_quick():
    scen = moving_interval_scenario(1.0, 1.5, smooth=True)
    grid = ReferenceGrid.interval(100)
    run = adiabatic_experiment(scen.family, free_coefficients(1), 0,
                               [0.5, 0.1], grid, dt=2e-3)
    devs = run.deviations()
    assert run.overlaps[-1] >= 0.99
    assert devs[-1] <= devs[0] + 1e-12


def test_magnetic_potential_examples():
    # translation: A_h = -D'(t)/2 constant; rotation: A_h = -(w/2) x_perp
    scen = translation_scenario()
    grid = ReferenceGrid.interval(16)
    on_moving, pulled = magnetic_potential(scen.family, 0.6, grid)
    assert np.allclose(pulled, -0.3)
    x = np.array([[0.7]])
    assert np.allclose(on_moving(x), -0.3)

    rot = rotation_scenario(1.4)
    g2 = rot.grid(8)
    _, pulled2 = magnetic_potential(rot.family, 0.0, g2)
    perp = np.stack([-g2.nodes[:, 1], g2.nodes[:, 0]], axis=-1)
    assert np.max(np.abs(pulled2 + 0.7 * perp)) <= 1e-12

    static, pulled3 = magnetic_potential(identity_family(1), 0.2,
                                         ReferenceGrid.interval(8))
    assert np.max(np.abs(pulled3)) == 0.0
