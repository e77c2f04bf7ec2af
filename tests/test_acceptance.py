"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Each criterion is exercised at its stated scale and tolerance; tolerances
are pinned here, not configurable.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import numpy as np
import pytest

from schrodeform.geometry import (
    GridFunction,
    ReferenceGrid,
    identity_family,
    jacobian_log_derivative,
)
from schrodeform.geometry.calculus import pulled_laplacian
from schrodeform.moser import (
    DensityFamily,
    moser_fixed_point,
    normalize_diffeo,
)
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    assemble_hamiltonian,
    eigenpairs,
    free_coefficients,
)
from schrodeform.propagator import PropagatorConfig, evolve, neumann_drift_diagnostic
from schrodeform.scenarios import (
    adiabatic_experiment,
    cylinder_scenario,
    gauge_equivalence_check,
    homothety_scenario,
    interval_family,
    moving_interval_scenario,
    rotation_scenario,
    translation_scenario,
    warped_2d_family,
)
from schrodeform.scenarios.families import stretch_warp_family


def _report(criterion: str, label: str, value: float, tol: float,
            larger_ok: bool = False) -> None:
    ok = value >= tol if larger_ok else value <= tol
    sign = ">=" if larger_ok else "<="
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {label} = {value:.3e} "
          f"(required {sign} {tol:g})")
    assert ok, f"{criterion}: {label} = {value:.3e} not {sign} {tol:g}"


def test_criterion_1_hermiticity():
    rng = np.random.default_rng(20260810)
    scenarios = [
        moving_interval_scenario(1.0, 1.5),
        translation_scenario(),
        rotation_scenario(1.0),
        homothety_scenario(),
        cylinder_scenario(),
    ]
    worst = 0.0
    for scen in scenarios:
        grid = scen.grid(64 if scen.dim == 1 else 24)
        lo, hi = scen.family.window
        for bc in (DIRICHLET, MAGNETIC_NEUMANN):
            for t in rng.uniform(lo, hi, size=20):
                H = assemble_hamiltonian(scen.family, scen.coeffs, float(t),
                                         grid, bc)
                worst = max(worst, H.hermiticity_residual())
    _report("criterion 1", "max hermiticity residual (relative)", worst, 1e-12)


def test_criterion_2_unitarity_moving_interval():
    grid = ReferenceGrid.interval(200)
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    coeffs = free_coefficients(1)
    H0 = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    v0 = H0.from_dofs(eigenpairs(H0, k=1)[1][:, 0])
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    trace = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    _report("criterion 2", "max norm drift", trace.norm_drift(), 1e-10)


def test_criterion_3_magnetic_vs_naive_neumann():
    grid = ReferenceGrid.interval(200)
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    coeffs = free_coefficients(1)
    v0 = GridFunction.constant(grid, 1.0)
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    naive, magnetic = neumann_drift_diagnostic(fam, coeffs, v0, cfg)
    ell = 1.0 + 0.5 * naive.times
    tracking = float(np.max(np.abs(naive.norms ** 2 - ell) / ell))
    _report("criterion 3", "naive norm^2 vs meas(Omega(t)) relative error",
            tracking, 1e-2)
    _report("criterion 3", "magnetic Neumann norm drift",
            magnetic.norm_drift(), 1e-8)


def test_criterion_4_spectrum_oracle():
    grid = ReferenceGrid.interval(400)
    H = assemble_hamiltonian(identity_family(1), free_coefficients(1), 0.0,
                             grid, DIRICHLET)
    vals, _ = eigenpairs(H, k=3)
    exact = np.pi ** 2 * np.array([1.0, 4.0, 9.0])
    _report("criterion 4", "flat Dirichlet eigenvalue relative error",
            float(np.max(np.abs(vals - exact) / exact)), 1e-3)

    fam = interval_family(lambda t: 2.0, lambda t: 0.0)
    H2 = assemble_hamiltonian(fam, free_coefficients(1), 0.0, grid, DIRICHLET)
    vals2, _ = eigenpairs(H2, k=3)
    _report("criterion 4", "conjugated (l=2) eigenvalue relative error",
            float(np.max(np.abs(vals2 - exact / 4) / (exact / 4))), 1e-3)


def test_criterion_5_pullback_calculus():
    ell = 1.5
    errs, spacings = [], []
    for cells in (32, 64, 128, 256):
        grid = ReferenceGrid.interval(cells)
        fam = interval_family(lambda t: 1 + (ell - 1) * t, lambda t: ell - 1)
        y = grid.nodes[:, 0]
        g = GridFunction(grid, np.sin(np.pi * y))
        lap = pulled_laplacian(fam, 1.0, g)
        mid = (y >= 0.25) & (y <= 0.75)
        expected = -(np.pi / ell) ** 2 * np.sin(np.pi * y)
        errs.append(np.max(np.abs(lap.values[mid] - expected[mid])))
        spacings.append(grid.min_spacing)
    order = float(np.polyfit(np.log(spacings), np.log(errs), 1)[0])
    _report("criterion 5", "pulled Laplacian interior order", order, 1.9,
            larger_ok=True)

    fam2 = warped_2d_family()
    pts = np.array([[0.3, 0.4], [0.7, 0.2], [0.15, 0.85], [0.5, 0.5]])
    t, dt = 0.4, 1e-4
    trace_val = jacobian_log_derivative(fam2, t, pts)
    det_p = np.linalg.det(fam2.jacobian_matrix(t + dt, pts))
    det_m = np.linalg.det(fam2.jacobian_matrix(t - dt, pts))
    oracle = (np.log(det_p) - np.log(det_m)) / (2 * dt)
    _report("criterion 5", "Jacobi formula vs FD-of-log-det",
            float(np.max(np.abs(trace_val - oracle))), 1e-6)


def test_criterion_6_moser_residuals():
    # volume normalization of a non-volume-preserving planar family
    grid = ReferenceGrid.rectangle(64)
    tilde = normalize_diffeo(stretch_warp_family(), grid, [0.0, 1.0])
    det = np.linalg.det(tilde.jacobian_matrix(1.0, grid.nodes))
    target = tilde.volume_ratio(1.0)
    _report("criterion 6", "normalize_diffeo relative det residual",
            float(np.max(np.abs(det - target)) / target), 1e-3)

    # fixed point at the contraction bound
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    f = 1.0 + 0.1 * np.sin(2 * np.pi * y1) * np.sin(2 * np.pi * y2)
    mm = moser_fixed_point(f, grid, tol=1e-10, max_iter=30)
    _report("criterion 6", "fixed-point iterations", mm.iterations, 30)
    _report("criterion 6", "fixed-point det residual", mm.det_residual, 1e-3)

    # 1D constructions against the antiderivative oracle
    g1 = ReferenceGrid.interval(1024)
    y = g1.nodes[:, 0]
    f1 = 1.0 + 0.05 * np.sin(2 * np.pi * y)
    mm1 = moser_fixed_point(f1, g1, tol=1e-12)
    oracle = y + 0.05 * (1.0 - np.cos(2 * np.pi * y)) / (2 * np.pi)
    _report("criterion 6", "1D map vs antiderivative oracle",
            float(np.max(np.abs(mm1.values[:, 0] - oracle))), 1e-6)


def test_criterion_7_gauge_equivalence():
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    rep_t = gauge_equivalence_check(translation_scenario(), cfg, cells=200)
    _report("criterion 7", "translation twin fidelity", rep_t["fidelity"],
            1 - 1e-6, larger_ok=True)
    rep_h = gauge_equivalence_check(homothety_scenario(), cfg, cells=200)
    _report("criterion 7", "homothety twin fidelity", rep_h["fidelity"],
            1 - 1e-5, larger_ok=True)


def test_criterion_8_rotation_identity():
    rep = rotation_scenario(1.0).self_test(cells=64)
    _report("criterion 8", "transport vs magnetic assembly difference",
            rep["matrix_identity"], 1e-12)


def test_criterion_9_adiabatic_limit():
    scen = moving_interval_scenario(1.0, 1.5, smooth=True)
    grid = ReferenceGrid.interval(200)
    run = adiabatic_experiment(scen.family, free_coefficients(1), 0,
                               [0.2, 0.1, 0.05, 0.02, 0.01], grid, dt=1e-3)
    devs = run.deviations()
    _report("criterion 9", "final overlap at eps=0.01",
            float(run.overlaps[-1]), 0.99, larger_ok=True)
    _report("criterion 9", "deviation(0.01) - deviation(0.2)",
            float(devs[-1] - devs[0]), 1e-12)


def test_criterion_10_temporal_convergence():
    scen = moving_interval_scenario(1.0, 1.5, smooth=True)
    grid = scen.grid(200)
    v0 = scen.build_initial(grid, 0.0)

    def final(dt):
        cfg = PropagatorConfig(dt=dt, t_start=0.0, t_end=1.0)
        return evolve(scen.family, scen.coeffs, scen.bc, v0, cfg,
                      grid).final_state.values

    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    errs = [float(np.linalg.norm(final(dt) - final(dt / 4))) for dt in dts]
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    print(f"    ladder errors: {[f'{e:.2e}' for e in errs]}")
    assert order == pytest.approx(2.0, abs=0.3), f"fitted order {order:.2f}"
    print(f"[PASS] criterion 10: fitted temporal order = {order:.2f} "
          f"(required 2.0 +/- 0.3)")
