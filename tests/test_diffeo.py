import numpy as np
import pytest

from schrodeform.errors import DegenerateJacobianError
from schrodeform.geometry import (
    DiffeoFamily,
    ReferenceGrid,
    identity_family,
    jacobian_at,
    jacobian_field,
    jacobian_log_derivative,
)
from schrodeform.geometry.diffeo import validate_family
from schrodeform.scenarios.families import (
    diagonal_family,
    interval_family,
    rotation_family,
    translation_family,
    warped_2d_family,
)


def test_jacobian_identity():
    data = jacobian_at(identity_family(2), 0.3, np.array([0.4, 0.7]))
    assert np.allclose(data.matrix, np.eye(2))
    assert data.det == pytest.approx(1.0)
    pts = np.array([[0.4, 0.7], [0.1, 0.2]])
    assert np.array_equal(identity_family(2).jacobian_matrix_dt(0.3, pts),
                          np.zeros((2, 2, 2)))


def test_jacobian_translation_is_identity():
    fam = translation_family(lambda t: [t ** 2 / 2, -t],
                             lambda t: [t, -1.0], dim=2)
    data = jacobian_at(fam, 0.8, np.array([0.2, 0.9]))
    assert np.allclose(data.matrix, np.eye(2))


def test_jacobian_diagonal_det_is_product():
    fam = diagonal_family((lambda t: 2.0, lambda t: 3.0),
                          (lambda t: 0.0, lambda t: 0.0))
    data = jacobian_at(fam, 0.5, np.array([0.3, 0.3]))
    assert data.det == pytest.approx(6.0)
    assert np.allclose(data.matrix @ data.inv, np.eye(2), atol=1e-12)
    assert np.allclose(data.inv_t, data.inv.T)


def test_degenerate_jacobian_raises():
    fam = DiffeoFamily(
        map=lambda t, y: np.asarray(y) * (1.0 - 2.0 * t),
        window=(0.0, 1.0),
    )
    with pytest.raises(DegenerateJacobianError):
        jacobian_at(fam, 0.6, np.array([0.5]))


def test_fd_jacobian_matches_analytic():
    analytic = warped_2d_family()
    fd = DiffeoFamily(map=analytic.map, window=analytic.window, fd_step=1e-6)
    pts = np.array([[0.3, 0.4], [0.8, 0.1], [0.5, 0.9]])
    J_an = analytic.jacobian_matrix(0.7, pts)
    J_fd = fd.jacobian_matrix(0.7, pts)
    assert np.max(np.abs(J_an - J_fd)) <= 1e-8


def test_window_enforced():
    fam = identity_family(1, window=(0.0, 2.0))
    with pytest.raises(ValueError):
        jacobian_at(fam, 2.5, np.array([0.5]))


def test_log_derivative_rigid_motion_vanishes():
    rot = rotation_family(1.3)
    pts = np.array([[0.2, 0.6], [0.9, 0.1]])
    vals = jacobian_log_derivative(rot, 0.4, pts)
    assert np.max(np.abs(vals)) <= 1e-12

    tr = translation_family(lambda t: [t, t ** 2], lambda t: [1.0, 2 * t], dim=2)
    vals = jacobian_log_derivative(tr, 0.4, pts)
    assert np.max(np.abs(vals)) <= 1e-12


def test_log_derivative_interval():
    fam = interval_family(lambda t: 1.0 + 0.5 * t, lambda t: 0.5)
    val = jacobian_log_derivative(fam, 0.6, np.array([0.3]))
    assert val == pytest.approx(0.5 / 1.3, rel=1e-12)


def test_log_derivative_matches_fd_oracle():
    # Jacobi-formula check: trace expression against a centered difference
    # of log det J in time with step 1e-4.
    fam = warped_2d_family()
    pts = np.array([[0.25, 0.5], [0.7, 0.3], [0.45, 0.85], [0.1, 0.1]])
    t, dt = 0.5, 1e-4
    trace_val = jacobian_log_derivative(fam, t, pts)
    det_p = np.linalg.det(fam.jacobian_matrix(t + dt, pts))
    det_m = np.linalg.det(fam.jacobian_matrix(t - dt, pts))
    oracle = (np.log(det_p) - np.log(det_m)) / (2 * dt)
    assert np.max(np.abs(trace_val - oracle)) <= 1e-6


def test_validate_family_inverse_roundtrip():
    grid = ReferenceGrid.rectangle(8)
    validate_family(warped_2d_family(), grid, times=[0.0, 0.5, 1.0])
    validate_family(rotation_family(2.0), grid, times=[0.0, 0.7])

    bad = DiffeoFamily(
        map=lambda t, y: np.asarray(y, dtype=float),
        inverse=lambda t, x: np.asarray(x, dtype=float) + 1e-5,
        window=(0.0, 1.0),
    )
    with pytest.raises(ValueError):
        validate_family(bad, grid, times=[0.5])


def test_frozen_family_is_static():
    fam = warped_2d_family()
    frozen = fam.frozen(0.6)
    pts = np.array([[0.3, 0.7]])
    assert np.allclose(frozen.map(0.1, pts), fam.map(0.6, pts))
    assert np.allclose(frozen.velocity(0.9, pts), 0.0)
    assert np.allclose(frozen.jacobian_matrix_dt(0.2, pts), 0.0)


def test_nan_determinant_raises():
    # an interval of length NaN used to pass the det J > 0 guard
    fam = interval_family(lambda t: np.nan, lambda t: 0.0)
    with pytest.raises(DegenerateJacobianError):
        jacobian_at(fam, 0.5, np.array([0.3]))


def test_time_array_errors_name_a_scalar_time():
    fam = interval_family(lambda t: 1.0 - t, lambda t: -1.0, window=(0.0, 2.0))
    t = np.array([[0.2], [1.5], [1.7]])
    pts = np.broadcast_to(np.array([[0.1], [0.6]]), (3, 2, 1))
    with pytest.raises(DegenerateJacobianError, match=r"t=1\.5,") as info:
        jacobian_field(fam, t, pts)
    assert info.value.t == 1.5
    with pytest.raises(ValueError, match=r"t=2\.5 outside"):
        fam.check_time(np.array([0.5, 2.5, 3.0]))
