import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from schrodeform.errors import (InvalidInputError, SnapshotMissingError,
                                SolverDivergenceError)
from schrodeform.geometry import GridFunction, ReferenceGrid, identity_family
from schrodeform import operators, parallel, propagator, sparse_lu
from schrodeform.operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    NAIVE_NEUMANN,
    DiscreteHamiltonian,
    assemble_hamiltonian,
    eigenpairs,
    form_pattern,
    free_coefficients,
    hamiltonian_data,
)
from schrodeform.propagator import (
    CayleyStepper,
    EvolutionTrace,
    PropagatorConfig,
    evolve,
    nested_dissection,
    neumann_drift_diagnostic,
    step,
    steps_per_pass,
)
from schrodeform.geometry.calculus import transport_solution
from schrodeform.scenarios.families import (diagonal_family, interval_family,
                                            warped_2d_family)


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
    from schrodeform.geometry.calculus import moving_norm_squared
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


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-12, np.inf])
def test_config_rejects_a_solver_tol_that_is_not_finite_and_positive(tol):
    # a NaN tolerance used to fail step 1 with a message blaming the solver
    with pytest.raises(InvalidInputError, match="solver_tol"):
        PropagatorConfig(dt=1e-2, t_start=0.0, t_end=1.0, solver_tol=tol)


@pytest.mark.parametrize("t_end", [1e300, np.inf, 1e7 + 1])
def test_config_rejects_more_steps_than_the_bound(t_end, deadline):
    # t_end = 1e300 used to be accepted, and evolve built chunks until memory ran out
    with pytest.raises(InvalidInputError, match=r"dt=1 takes more than 1e\+07 steps"):
        PropagatorConfig(dt=1.0, t_start=0.0, t_end=t_end)
    assert PropagatorConfig(dt=1.0, t_start=0.0, t_end=1e7).n_steps == propagator._MAX_STEPS


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


def _chunked_reference(family, coeffs, bc, v0, config, grid):
    """evolve's norms, energies, overlaps and final state from a plain loop
    of CayleyStepper.advance, one call per assembly pass, in the same
    arithmetic (overlaps by einsum, as evolve takes them)."""
    H0 = assemble_hamiltonian(family, coeffs, config.t_start, grid, bc)
    v = H0.to_dofs(v0)
    obs = np.array([H0.to_dofs(o) for o in config.observables],
                   dtype=complex).reshape(-1, H0.n_dofs).conj().T
    pattern = form_pattern(grid, bc)
    stepper = CayleyStepper(pattern.indptr, pattern.indices, grid, bc,
                            config.dt_effective, config.solver_tol)
    n, K = config.n_steps, steps_per_pass(grid)
    norms = [np.linalg.norm(v[None], axis=1)]
    overlaps = [np.abs(np.einsum("kn,no->ko", v[None], obs)) ** 2]
    energies = [np.array([np.real(np.vdot(v, H0.matrix @ v))])]
    for k0 in range(0, n, K):
        done = np.arange(k0 + 1, min(k0 + K, n) + 1)
        mids = config.t_start + (done - 0.5) * config.dt_effective
        states, chunk_energies = stepper.advance(
            v, hamiltonian_data(family, coeffs, mids, grid, bc))
        norms.append(np.linalg.norm(states, axis=1))
        overlaps.append(np.abs(np.einsum("kn,no->ko", states, obs)) ** 2)
        energies.append(chunk_energies)
        v = states[-1]
    return (np.concatenate(norms), np.concatenate(energies),
            np.concatenate(overlaps), H0.from_dofs(v).values)


@pytest.mark.parametrize("dim", [1, 2])
def test_evolve_in_process_equals_a_chunked_advance_loop_bitwise(monkeypatch, dim):
    # the band path (1D) and the sparse-LU path (2D) over several chunks; the
    # norms see the memory layout of the states evolve reads back
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    if dim == 1:
        grid = ReferenceGrid.interval(200)
        fam, bc = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5), DIRICHLET
    else:
        grid = ReferenceGrid.rectangle(12)
        fam, bc = warped_2d_family(), MAGNETIC_NEUMANN
    y = grid.nodes
    v0 = GridFunction(grid, np.cos(np.pi * y[:, 0]) * (1 + 0.5j * y[:, -1]))
    obs = [GridFunction(grid, np.sin(np.pi * y[:, -1]) + 0j)]
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=0.3, observables=obs)
    assert cfg.n_steps > 2 * steps_per_pass(grid)
    coeffs = free_coefficients(dim)
    trace = evolve(fam, coeffs, bc, v0, cfg)
    norms, energies, overlaps, final = _chunked_reference(fam, coeffs, bc, v0,
                                                          cfg, grid)
    assert np.array_equal(trace.norms, norms)
    assert np.array_equal(trace.energies, energies)
    assert np.array_equal(trace.overlaps, overlaps)
    assert np.array_equal(trace.final_state.values, final)


def test_degenerate_jacobian_in_a_chunk_names_its_time():
    from schrodeform.errors import DegenerateJacobianError
    # the length reaches zero at t = 0.5, well inside the first chunk
    fam = interval_family(lambda t: 1 - 2 * t, lambda t: -2.0)
    grid = ReferenceGrid.interval(32)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]).astype(complex))
    config = PropagatorConfig(dt=0.1, t_start=0.0, t_end=1.0)
    with pytest.raises(DegenerateJacobianError, match="t=0.55"):
        evolve(fam, free_coefficients(1), DIRICHLET, v0, config)


@pytest.mark.parametrize("grid", [ReferenceGrid.interval(50),
                                  ReferenceGrid.rectangle(12)])
def test_infinite_jacobian_is_degenerate_before_any_warning(grid):
    from schrodeform.errors import DegenerateJacobianError

    def scale(t):
        return np.where(np.asarray(t) > 0.5, np.inf, 1.0)

    def zero(t):
        return np.zeros(np.shape(t))

    fam = diagonal_family((scale,) * grid.dim, (zero,) * grid.dim)
    v0 = GridFunction(grid, np.prod(np.sin(np.pi * grid.nodes), axis=-1)
                      .astype(complex))
    config = PropagatorConfig(dt=0.01, t_start=0.0, t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateJacobianError, match=r"= inf .*t=0\.505,"):
            evolve(fam, free_coefficients(grid.dim), DIRICHLET, v0, config)


# -- the nested-dissection LU ----------------------------------------------------

@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN])
def test_lu_steps_match_dense_cayley_solves(bc):
    grid = ReferenceGrid.rectangle((12, 9))
    family, coeffs = warped_2d_family(), free_coefficients(2)
    dt, times = 0.02, np.array([0.11, 0.37, 0.93])
    pattern = form_pattern(grid, bc)
    rows = hamiltonian_data(family, coeffs, times, grid, bc)
    n = pattern.dofs.size
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    stepper = CayleyStepper(pattern.indptr, pattern.indices, grid, bc, dt)
    states, energies = stepper.advance(v0, rows)
    v, z = v0, 0.5j * dt
    for k, t in enumerate(times):
        H = sp.csr_matrix((rows[k], pattern.indices, pattern.indptr),
                          shape=(n, n)).toarray()
        v = np.linalg.solve(np.eye(n) + z * H, (np.eye(n) - z * H) @ v)
        assert np.linalg.norm(states[k] - v) <= 1e-13 * np.linalg.norm(v)
        assert energies[k] == pytest.approx(np.vdot(v, H @ v).real, rel=1e-13)
        one = step(states[k - 1] if k else v0,
                   assemble_hamiltonian(family, coeffs, t, grid, bc), dt)
        assert np.linalg.norm(one - v) <= 1e-13 * np.linalg.norm(v)


def test_lu_step_fills_in_missing_diagonal_entries(monkeypatch):
    # a generator whose pattern has no diagonal: I + zH still needs one; the
    # grid-row offsets make it more than tridiagonal, so the LU scatter runs
    grid = ReferenceGrid.rectangle(4)
    n, row = grid.n_nodes, grid.shape[1]
    off = sp.diags([np.ones(n - row), np.ones(n - 1), np.ones(n - 1), np.ones(n - row)],
                   [-row, -1, 1, row], format="csr")
    H = DiscreteHamiltonian(matrix=off * (1 + 0.5j), bc=MAGNETIC_NEUMANN,
                            t=0.0, grid=grid, dofs=np.arange(n))
    splu = _FailingCall(sparse_lu.spla, "splu", 0, None)    # counts, spoils none
    monkeypatch.setattr(sparse_lu, "spla", splu)
    v = np.linspace(0.0, 1.0, n).astype(complex)
    dense, z = H.matrix.toarray(), 0.05j
    want = np.linalg.solve(np.eye(n) + z * dense, (np.eye(n) - z * dense) @ v)
    assert np.linalg.norm(step(v, H, 0.1) - want) <= 1e-13 * np.linalg.norm(want)
    assert splu.calls == 1


@pytest.mark.parametrize("cells, bc", [(16, MAGNETIC_NEUMANN), ((12, 9), NAIVE_NEUMANN),
                                       ((5, 23), MAGNETIC_NEUMANN), ((17, 10), DIRICHLET)])
def test_dissection_order_is_a_permutation_of_the_dofs(cells, bc):
    grid = ReferenceGrid.rectangle(cells)
    order = nested_dissection(grid, bc)
    assert np.array_equal(np.sort(order), np.arange(form_pattern(grid, bc).dofs.size))


def _count_dissections(monkeypatch):
    calls = []
    real = operators._nested_dissection

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "_nested_dissection", counted)
    return calls


def test_dissection_order_is_built_once_per_grid_and_bc(monkeypatch):
    calls = _count_dissections(monkeypatch)
    grid = ReferenceGrid.rectangle((10, 8))
    family, coeffs = warped_2d_family(), free_coefficients(2)
    H = assemble_hamiltonian(family, coeffs, 0.5, grid, MAGNETIC_NEUMANN)
    assert not calls                    # assembly never orders
    v = H.to_dofs(GridFunction.constant(grid, 1.0))
    step(step(v, H, 0.01), H, 0.01)
    order = nested_dissection(grid, MAGNETIC_NEUMANN)
    evolve(family, coeffs, MAGNETIC_NEUMANN, H.from_dofs(v),
           PropagatorConfig(dt=0.1, t_start=0.0, t_end=0.2))
    assert len(calls) == 1
    assert nested_dissection(grid, MAGNETIC_NEUMANN) is order


def test_banded_evolution_builds_no_dissection_order(monkeypatch):
    calls = _count_dissections(monkeypatch)
    grid = ReferenceGrid.interval(32)
    v0 = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y[:, 0]))
    evolve(interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5),
           free_coefficients(1), DIRICHLET, v0,
           PropagatorConfig(dt=0.05, t_start=0.0, t_end=0.2))
    assert not calls


def test_dissection_fill_at_64_squared_beats_minimum_degree(monkeypatch):
    # MMD_AT_PLUS_A fills 238,138 entries on this pattern (64^2, magnetic Neumann)
    fills = []
    real = sparse_lu.spla

    class Recording:
        @staticmethod
        def splu(*args, **kwargs):
            lu = real.splu(*args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

    monkeypatch.setattr(sparse_lu, "spla", Recording)
    grid = ReferenceGrid.rectangle(64)
    H = assemble_hamiltonian(warped_2d_family(), free_coefficients(2), 0.5, grid,
                             MAGNETIC_NEUMANN)
    step(H.to_dofs(GridFunction.constant(grid, 1.0)), H, 1e-2)
    assert fills and fills[0] <= 238138


# -- the banded stepper ----------------------------------------------------------

@pytest.mark.parametrize("bc", [DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN])
def test_band_steps_match_dense_cayley_solves(bc):
    from schrodeform.scenarios.families import ramp_interval_family
    grid = ReferenceGrid.interval(40)
    family, coeffs = ramp_interval_family(1.0, 1.5), free_coefficients(1)
    dt, times = 0.02, np.array([0.11, 0.37, 0.93])
    pattern = form_pattern(grid, bc)
    data = hamiltonian_data(family, coeffs, times, grid, bc)
    n = pattern.dofs.size
    rng = np.random.default_rng(4)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    stepper = CayleyStepper(pattern.indptr, pattern.indices, grid, bc, dt)
    states, energies = stepper.advance(v0, data)
    v, z = v0, 0.5j * dt
    for k, t in enumerate(times):
        H = sp.csr_matrix((data[k], pattern.indices, pattern.indptr),
                          shape=(n, n)).toarray()
        v = np.linalg.solve(np.eye(n) + z * H, (np.eye(n) - z * H) @ v)
        assert np.linalg.norm(states[k] - v) <= 1e-13 * np.linalg.norm(v)
        assert energies[k] == pytest.approx(np.vdot(v, H @ v).real, rel=1e-13)
        one = step(states[k - 1] if k else v0,
                   assemble_hamiltonian(family, coeffs, t, grid, bc), dt)
        assert np.linalg.norm(one - v) <= 1e-13 * np.linalg.norm(v)


def test_banded_hermitian_evolution_keeps_its_norm_over_8000_steps():
    from schrodeform.scenarios.families import ramp_interval_family
    grid = ReferenceGrid.interval(100)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]) + 0.3j * grid.nodes[:, 0])
    cfg = PropagatorConfig(dt=1.25e-4, t_start=0.0, t_end=1.0)
    assert cfg.n_steps == 8000
    trace = evolve(ramp_interval_family(1.0, 1.5), free_coefficients(1),
                   MAGNETIC_NEUMANN, v0, cfg)
    assert trace.norm_drift() <= 1e-13


# -- failures name their step ------------------------------------------------------

class _FailingCall:
    """Wraps ``real`` so that call number ``at`` (from 1) of ``name`` goes wrong:
    ``spoil`` gets and returns that call's result."""

    def __init__(self, real, name, at, spoil):
        self.real, self.name, self.at, self.spoil = real, name, at, spoil
        self.calls = 0

    def __getattr__(self, attr):
        fn = getattr(self.real, attr)
        if attr != self.name:
            return fn

        def counted(*args, **kwargs):
            self.calls += 1
            out = fn(*args, **kwargs)
            return self.spoil(out) if self.calls == self.at else out

        return counted


def _perturb_w(out):
    *head, w, info = out
    return (*head, w + 1e-3, info)


def _singular_info(out):
    return (*out[:-1], 7)


def _interval_run(n_steps):
    grid = ReferenceGrid.interval(200)
    v0 = GridFunction(grid, np.sin(np.pi * grid.nodes[:, 0]).astype(complex))
    cfg = PropagatorConfig(dt=1e-3, t_start=0.0, t_end=n_steps * 1e-3)
    return (interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5),
            free_coefficients(1), DIRICHLET, v0, cfg)


@pytest.mark.parametrize("spoil, message", [
    (_perturb_w, r"step 45 \(t=0\.0445\): linear solve residual .* exceeds tolerance"),
    (_singular_info, r"step 45 \(t=0\.0445\): Cayley factorization failed: zgtsv info 7"),
])
def test_banded_failure_in_a_chunk_names_its_global_step(monkeypatch, spoil, message):
    # K = 40 on 200 cells: step 45 is the fifth of the second chunk
    monkeypatch.setattr(propagator, "lapack",
                        _FailingCall(propagator.lapack, "zgtsv", 45, spoil))
    with pytest.raises(SolverDivergenceError, match=message) as err:
        evolve(*_interval_run(60))
    assert err.value.step == 45


class _SpoiledLU:
    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs) * (1 + 1e-4)


def test_lu_failure_in_a_chunk_names_its_global_step(monkeypatch):
    grid = ReferenceGrid.rectangle(8)
    K = steps_per_pass(grid)
    monkeypatch.setattr(sparse_lu, "spla",
                        _FailingCall(sparse_lu.spla, "splu", K + 3, _SpoiledLU))
    v0 = GridFunction(grid, np.cos(np.pi * grid.nodes[:, 0]) + 0j)
    cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=(K + 8) * 1e-2)
    t_mid = (K + 2.5) * 1e-2
    with pytest.raises(SolverDivergenceError,
                       match=rf"step {K + 3} \(t={t_mid:.12g}\): linear solve residual"):
        evolve(warped_2d_family(), free_coefficients(2), MAGNETIC_NEUMANN, v0, cfg)


def test_singular_factor_in_evolve_names_its_step(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sparse_lu, "spla",
                        _FailingCall(sparse_lu.spla, "splu", 2, lambda lu: singular()))
    grid = ReferenceGrid.rectangle(6)
    v0 = GridFunction.constant(grid, 1.0 + 0j)
    cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.05)
    with pytest.raises(SolverDivergenceError, match=r"step 2 \(t=0\.015\): Cayley "
                                                    r"factorization failed"):
        evolve(warped_2d_family(), free_coefficients(2), MAGNETIC_NEUMANN, v0, cfg)


# -- non-finite initial states -------------------------------------------------------

def test_non_finite_initial_state_raises_in_1d_evolve():
    family, coeffs, bc, v0, cfg = _interval_run(5)
    v0.values[17] = np.nan
    with pytest.raises(SolverDivergenceError, match=r"step 1 .*non-finite"):
        evolve(family, coeffs, bc, v0, cfg)


def test_non_finite_initial_state_raises_in_2d_evolve():
    grid = ReferenceGrid.rectangle(8)
    values = np.ones(grid.n_nodes, dtype=complex)
    values[5] = np.nan
    cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.05)
    with pytest.raises(SolverDivergenceError, match=r"step 1 .*non-finite"):
        evolve(warped_2d_family(), free_coefficients(2), MAGNETIC_NEUMANN,
               GridFunction(grid, values), cfg)


@pytest.mark.parametrize("size", [1e300, np.inf], ids=["huge", "inf"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_huge_or_infinite_initial_state_raises_before_any_warning(size, dim):
    # 1e300 used to return inf norms after overflow warnings; inf raised only
    # after two warnings in to_dofs / from_dofs
    if dim == 1:
        family, coeffs, bc, v0, cfg = _interval_run(5)
    else:
        grid = ReferenceGrid.rectangle(8)
        family, coeffs, bc = warped_2d_family(), free_coefficients(2), MAGNETIC_NEUMANN
        v0 = GridFunction.constant(grid, 1.0 + 0j)
        cfg = PropagatorConfig(dt=1e-2, t_start=0.0, t_end=0.05)
    v0.values[:] = size
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverDivergenceError, match=r"step 1 .*initial state") as info:
            evolve(family, coeffs, bc, v0, cfg)
    assert info.value.step == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("size", [1e300, np.inf, np.nan], ids=["huge", "inf", "nan"])
def test_a_huge_or_non_finite_observable_raises_before_any_warning(size):
    # inf used to give all-NaN overlaps after two RuntimeWarnings, in to_dofs
    # and in the initial overlap, and 1e300 inf overlaps after an overflow
    family, coeffs, bc, v0, cfg = _interval_run(5)
    grid = v0.grid
    values = np.ones(grid.n_nodes, dtype=complex)
    values[7] = size
    cfg.observables = [GridFunction.constant(grid, 1.0 + 0j), GridFunction(grid, values)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match=r"observable 1: entry .* non-finite or above"):
            evolve(family, coeffs, bc, v0, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("grid", [ReferenceGrid.interval(32), ReferenceGrid.rectangle(6)],
                         ids=["banded", "lu"])
def test_non_finite_state_raises_in_step(grid):
    family = interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5) if grid.dim == 1 \
        else warped_2d_family()
    H = assemble_hamiltonian(family, free_coefficients(grid.dim), 0.3, grid,
                             MAGNETIC_NEUMANN)
    stepper = CayleyStepper(H.matrix.indptr, H.matrix.indices, grid, H.bc, 1e-2)
    assert stepper._kernels.__name__ == ("_band_kernels" if grid.dim == 1
                                         else "_lu_kernels")
    v = np.ones(H.n_dofs, dtype=complex)
    v[3] = np.nan
    with pytest.raises(SolverDivergenceError, match="non-finite"):
        step(v, H, 1e-2)
