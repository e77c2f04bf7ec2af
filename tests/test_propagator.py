import numpy as np
import pytest
import scipy.sparse as sp

from schrodeform.errors import SnapshotMissingError, SolverDivergenceError
from schrodeform.geometry import GridFunction, ReferenceGrid, identity_family
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    DiscreteHamiltonian,
    assemble_hamiltonian,
    eigenpairs,
    free_coefficients,
)
from schrodeform.propagator import (
    EvolutionTrace,
    PropagatorConfig,
    evolve,
    neumann_drift_diagnostic,
    step,
    steps_per_pass,
    transport_solution,
)
from schrodeform.scenarios.families import diagonal_family, interval_family


@pytest.fixture(scope="module")
def flat_setup():
    grid = ReferenceGrid.interval(128)
    fam = identity_family(1)
    coeffs = free_coefficients(1)
    H = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    return grid, fam, coeffs, H


def test_step_zero_hamiltonian_is_identity(flat_setup):
    grid, fam, coeffs, H = flat_setup
    zero = H.matrix * 0.0
    Hz = type(H)(matrix=zero.tocsr(), bc=H.bc, t=0.0, grid=grid, dofs=H.dofs)
    v = np.linspace(0, 1, H.n_dofs).astype(complex)
    assert np.allclose(step(v, Hz, 0.1), v, atol=1e-14)


def test_step_matches_scalar_cayley_oracle(flat_setup):
    grid, fam, coeffs, H = flat_setup
    vals, vecs = eigenpairs(H, k=2)
    lam, v = vals[0], vecs[:, 0].astype(complex)
    dt = 1e-3
    out = step(v, H, dt)
    cayley = (1 - 0.5j * dt * lam) / (1 + 0.5j * dt * lam)
    assert np.max(np.abs(out - cayley * v)) <= 1e-11
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-13
    # phase error vs exp(-i lam dt) is O(dt^3)
    assert abs(cayley - np.exp(-1j * lam * dt)) <= (dt * lam) ** 3


def test_step_preserves_norm_for_random_state(flat_setup):
    grid, fam, coeffs, H = flat_setup
    rng = np.random.default_rng(0)
    v = rng.standard_normal(H.n_dofs) + 1j * rng.standard_normal(H.n_dofs)
    out = step(v, H, 2e-3)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-11


def test_step_time_reversal(flat_setup):
    grid, fam, coeffs, H = flat_setup
    rng = np.random.default_rng(1)
    v = rng.standard_normal(H.n_dofs) + 1j * rng.standard_normal(H.n_dofs)
    back = step(step(v, H, 1e-3), H, -1e-3)
    assert np.linalg.norm(back - v) <= 1e-11 * np.linalg.norm(v)


def test_evolve_static_ground_state(flat_setup):
    grid, fam, coeffs, H = flat_setup
    vals, vecs = eigenpairs(H, k=1)
    v0 = H.from_dofs(vecs[:, 0])
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    assert tr.norm_drift() <= 1e-10
    assert np.max(np.abs(tr.energies - tr.energies[0])) <= 1e-8 * abs(tr.energies[0])


def test_evolve_moving_interval_unitary():
    grid = ReferenceGrid.interval(200)
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    coeffs = free_coefficients(1)
    H0 = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    v0 = H0.from_dofs(eigenpairs(H0, k=1)[1][:, 0])
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    assert tr.norm_drift() <= 1e-10


def test_evolve_zero_span_records_initial_state_only():
    grid = ReferenceGrid.interval(32)
    fam = identity_family(1)
    v0 = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    cfg = PropagatorConfig(dt=1e-2, t_start=0.3, t_end=0.3)
    tr = evolve(fam, free_coefficients(1), DIRICHLET, v0, cfg)
    assert len(tr.times) == 1
    assert tr.snapshot_times == [0.3]


def test_evolve_records_overlaps():
    grid = ReferenceGrid.interval(64)
    fam = identity_family(1)
    coeffs = free_coefficients(1)
    H = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    vals, vecs = eigenpairs(H, k=2)
    v0 = H.from_dofs(vecs[:, 0])
    ref = [H.from_dofs(vecs[:, 0]), H.from_dofs(vecs[:, 1])]
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=0.05, observables=ref)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    assert tr.overlaps.shape[1] == 2
    assert np.allclose(tr.overlaps[:, 0], 1.0, atol=1e-10)
    assert np.max(tr.overlaps[:, 1]) <= 1e-20


def test_temporal_convergence_second_order():
    # C^2 ramp: the motion is switched on smoothly, so the eigenstate
    # initial data is compatible with the generator and the implicit
    # midpoint scheme shows its clean second order
    from schrodeform.scenarios.families import ramp_interval_family
    grid = ReferenceGrid.interval(100)
    fam = ramp_interval_family(1.0, 1.3)
    coeffs = free_coefficients(1)
    H0 = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    v0 = H0.from_dofs(eigenpairs(H0, k=1)[1][:, 0])

    def final_state(dt):
        cfg = PropagatorConfig(dt=dt, t_start=0.0, t_end=0.25)
        return evolve(fam, coeffs, DIRICHLET, v0, cfg).final_state.values

    dts = [4e-3, 2e-3, 1e-3]
    errs = []
    for dt in dts:
        ref = final_state(dt / 4)
        errs.append(np.linalg.norm(final_state(dt) - ref))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.3)


def test_transport_identity_family(flat_setup):
    grid, fam, coeffs, H = flat_setup
    v0 = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=0.0)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    u = transport_solution(tr, fam)
    x = np.array([[0.3], [0.6]])
    # off-node evaluation carries the spline interpolation error O(dy^4)
    assert np.max(np.abs(u(0.0, x) - np.sin(np.pi * x[:, 0]))) <= 1e-8


def test_transport_stretched_interval():
    grid = ReferenceGrid.interval(128)
    fam = interval_family(lambda t: 1 + 1.0 * t, lambda t: 1.0)
    coeffs = free_coefficients(1)
    v0 = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    cfg = PropagatorConfig(dt=1e-3, t_start=1.0, t_end=1.0)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    u = transport_solution(tr, fam)
    x = np.array([[0.4], [1.3], [1.9]])
    expected = np.sin(np.pi * x[:, 0] / 2.0) / np.sqrt(2.0)
    assert np.max(np.abs(u(1.0, x) - expected)) <= 1e-8
    with pytest.raises(SnapshotMissingError):
        tr.snapshot_at(0.123)


def test_transport_norm_consistency_2d():
    from schrodeform.geometry import moving_norm_squared
    from schrodeform.scenarios.families import diagonal_family
    grid = ReferenceGrid.rectangle(24)
    fam = diagonal_family((lambda t: 1 + 0.3 * t, lambda t: 1 - 0.2 * t),
                          (lambda t: 0.3, lambda t: -0.2))
    coeffs = free_coefficients(2)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    v0 = GridFunction(grid, (np.sin(np.pi * y1) * np.sin(np.pi * y2)).astype(complex))
    cfg = PropagatorConfig(dt=5e-3, t_start=0.0, t_end=0.1)
    tr = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    v_final = tr.final_state
    # the moving-side norm of the transported state equals the grid norm
    g = GridFunction(grid, v_final.values / np.sqrt(np.linalg.det(
        fam.jacobian_matrix(0.1, grid.nodes))))
    assert moving_norm_squared(fam, 0.1, g) == pytest.approx(
        v_final.norm() ** 2, rel=1e-12)


def test_neumann_drift_diagnostic_static_agrees():
    grid = ReferenceGrid.interval(64)
    fam = identity_family(1)
    coeffs = free_coefficients(1)
    v0 = GridFunction.constant(grid, 1.0)
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=0.2)
    naive, mag = neumann_drift_diagnostic(fam, coeffs, v0, cfg)
    assert naive.norm_drift() <= 1e-10
    assert mag.norm_drift() <= 1e-10
    assert np.max(np.abs(naive.norms - mag.norms)) <= 1e-10


def test_neumann_counterexample_growing_interval():
    grid = ReferenceGrid.interval(100)
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    coeffs = free_coefficients(1)
    v0 = GridFunction.constant(grid, 1.0)
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0)
    naive, mag = neumann_drift_diagnostic(fam, coeffs, v0, cfg)
    ell = 1 + 0.5 * naive.times
    assert np.max(np.abs(naive.norms ** 2 - ell) / ell) <= 1e-2
    assert mag.norm_drift() <= 1e-8


def test_trace_invariants():
    grid = ReferenceGrid.interval(40)
    fam = identity_family(1)
    v0 = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.2)
    tr = evolve(fam, free_coefficients(1), DIRICHLET, v0, cfg)
    assert np.all(np.diff(tr.times) > 0)
    assert np.all(tr.norms > 0)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=-1.0, t_start=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=1e-2, t_start=1.0, t_end=0.0)


def test_non_finite_velocity_raises_typed_error_1d():
    # a NaN velocity used to escape the banded solve as a raw ValueError
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: np.nan)
    grid = ReferenceGrid.interval(32)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]).astype(complex))
    config = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.05)
    with pytest.raises(SolverDivergenceError):
        evolve(fam, free_coefficients(1), DIRICHLET, v0, config)


def test_non_finite_velocity_raises_typed_error_2d():
    # ... and the sparse LU as a raw "Factor is exactly singular" RuntimeError
    fam = diagonal_family((lambda t: 1 + 0.5 * t, lambda t: 1.0),
                          (lambda t: np.nan, lambda t: 0.0))
    grid = ReferenceGrid.rectangle(8)
    v0 = GridFunction.constant(grid, 1.0 + 0j)
    config = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.05)
    with pytest.raises(SolverDivergenceError):
        evolve(fam, free_coefficients(2), MAGNETIC_NEUMANN, v0, config)


def test_singular_cayley_factor_raises_typed_error():
    # 1 + (i dt / 2) (4i) = 0 for dt = 0.5: the Cayley matrix is exactly zero
    grid = ReferenceGrid.rectangle(4)
    n = grid.n_nodes
    H = DiscreteHamiltonian(matrix=sp.identity(n, format="csr") * 4j,
                            bc=MAGNETIC_NEUMANN, t=0.0, grid=grid,
                            dofs=np.arange(n))
    with pytest.raises(SolverDivergenceError):
        step(np.ones(n, dtype=complex), H, 0.5)


def _stepped_reference(family, coeffs, bc, v0, config, grid):
    """The trace evolve must reproduce, one assembly and one step() per step."""
    H0 = assemble_hamiltonian(family, coeffs, config.t_start, grid, bc)
    v = H0.to_dofs(v0)
    obs = [H0.to_dofs(o) for o in config.observables]
    dt, n = config.dt_effective, config.n_steps
    norms, energies = [np.linalg.norm(v)], [np.vdot(v, H0.matrix @ v).real]
    overlaps = [[abs(np.vdot(o, v)) ** 2 for o in obs]]
    snaps = {config.t_start: H0.from_dofs(v).values}
    for k in range(n):
        H = assemble_hamiltonian(family, coeffs, config.t_start + (k + 0.5) * dt,
                                 grid, bc)
        v = step(v, H, dt, config.solver_tol)
        norms.append(np.linalg.norm(v))
        energies.append(np.vdot(v, H.matrix @ v).real)
        overlaps.append([abs(np.vdot(o, v)) ** 2 for o in obs])
        stride = config.snapshot_stride
        if k + 1 == n or (stride and (k + 1) % stride == 0):
            snaps[config.t_start + (k + 1) * dt] = H0.from_dofs(v).values
    return np.array(norms), np.array(energies), np.array(overlaps), snaps


def _assert_matches_reference(trace, reference):
    norms, energies, overlaps, snaps = reference
    assert np.max(np.abs(trace.norms - norms)) <= 1e-12 * np.max(norms)
    assert np.max(np.abs(trace.energies - energies)) <= 1e-12 * np.max(np.abs(energies))
    assert trace.overlaps.shape == overlaps.shape
    if overlaps.size:
        assert np.max(np.abs(trace.overlaps - overlaps)) <= 1e-12
    assert trace.snapshot_times == list(snaps)
    for snap, ref in zip(trace.snapshots, snaps.values()):
        assert np.max(np.abs(snap.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN])
def test_evolve_matches_stepped_assembly_1d(bc):
    from schrodeform.scenarios.families import ramp_interval_family
    grid = ReferenceGrid.interval(200)
    assert steps_per_pass(grid) == 40
    fam = ramp_interval_family(1.0, 1.5)
    coeffs = free_coefficients(1)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]) + 0.3j * grid.nodes[:, 0])
    cfg = PropagatorConfig(dt=2e-3, t_start=0.1, t_end=0.3)
    assert cfg.n_steps > 2 * steps_per_pass(grid)
    trace = evolve(fam, coeffs, bc, v0, cfg)
    _assert_matches_reference(trace, _stepped_reference(fam, coeffs, bc, v0, cfg, grid))


def test_evolve_matches_stepped_assembly_2d():
    from schrodeform.scenarios.families import warped_2d_family
    grid = ReferenceGrid.rectangle(12)
    assert steps_per_pass(grid) > 1
    fam = warped_2d_family()
    coeffs = free_coefficients(2)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    v0 = GridFunction(grid, np.cos(np.pi * y1) + 1j * y2 ** 2)
    cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.5)
    assert cfg.n_steps > steps_per_pass(grid)
    trace = evolve(fam, coeffs, MAGNETIC_NEUMANN, v0, cfg)
    _assert_matches_reference(
        trace, _stepped_reference(fam, coeffs, MAGNETIC_NEUMANN, v0, cfg, grid))


@pytest.mark.parametrize("steps", ["0", "1", "K-1", "K+1"])
def test_evolve_chunk_edges(steps):
    # K midpoints per assembly pass; a stride of 7 puts snapshots mid-chunk
    grid = ReferenceGrid.interval(200)
    K = steps_per_pass(grid)
    n = {"0": 0, "1": 1, "K-1": K - 1, "K+1": K + 1}[steps]
    fam = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    coeffs = free_coefficients(1)
    H0 = assemble_hamiltonian(fam, coeffs, 0.0, grid, DIRICHLET)
    vecs = eigenpairs(H0, k=2)[1]
    v0 = H0.from_dofs(vecs[:, 0] + 0.5 * vecs[:, 1])
    dt = 1e-3
    cfg = PropagatorConfig(dt=dt, t_start=0.0, t_end=n * dt, snapshot_stride=7,
                           observables=[H0.from_dofs(vecs[:, j]) for j in (0, 1)])
    assert cfg.n_steps == n
    trace = evolve(fam, coeffs, DIRICHLET, v0, cfg)
    assert len(trace.times) == n + 1 and trace.overlaps.shape == (n + 1, 2)
    _assert_matches_reference(trace, _stepped_reference(fam, coeffs, DIRICHLET,
                                                        v0, cfg, grid))


def test_degenerate_jacobian_in_a_chunk_names_its_time():
    from schrodeform.errors import DegenerateJacobianError
    # the length reaches zero at t = 0.5, well inside the first chunk
    fam = interval_family(lambda t: 1 - 2 * t, lambda t: -2.0)
    grid = ReferenceGrid.interval(32)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]).astype(complex))
    config = PropagatorConfig(dt=0.1, t_start=0.0, t_end=1.0)
    with pytest.raises(DegenerateJacobianError, match="t=0.55"):
        evolve(fam, free_coefficients(1), DIRICHLET, v0, config)
