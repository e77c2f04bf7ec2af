import numpy as np
import pytest

from schrodeform.geometry import (
    GridFunction,
    ReferenceGrid,
    identity_family,
    jacobian_field,
)
from schrodeform.geometry.calculus import (
    moving_norm_squared,
    pullback,
    pullback_sharp,
    pulled_divergence,
    pulled_gradient,
    pulled_laplacian,
    pushforward,
    pushforward_sharp,
)
from schrodeform.errors import EvaluationOutsideDomainError
from schrodeform.scenarios.families import (
    diagonal_family,
    interval_family,
    rotation_family,
)


def _interval_at(ell, cells=64):
    fam = interval_family(lambda t: 1.0 + (ell - 1.0) * t, lambda t: ell - 1.0)
    return fam, ReferenceGrid.interval(cells)


# -- pullback / pushforward -------------------------------------------------

def test_pullback_constant():
    fam, grid = _interval_at(1.5)
    g = pullback(fam, 1.0, lambda x: np.full(x.shape[0], 2.3 + 1j), grid)
    assert np.allclose(g.values, 2.3 + 1j)


def test_pullback_stretched_sine():
    ell = 1.5
    fam, grid = _interval_at(ell)
    g = pullback(fam, 1.0, lambda x: np.sin(np.pi * x[:, 0] / ell), grid)
    assert np.allclose(g.values, np.sin(np.pi * grid.nodes[:, 0]), atol=1e-14)


def test_pullback_rotation_against_direct_oracle():
    omega, t = 0.9, 0.8
    fam = rotation_family(omega)
    grid = ReferenceGrid.rectangle(12, ((-0.5, 0.5), (-0.5, 0.5)))
    g = pullback(fam, t, lambda x: x[:, 0], grid)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    oracle = np.cos(omega * t) * y1 - np.sin(omega * t) * y2
    assert np.max(np.abs(g.values - oracle)) <= 1e-14


def test_pullback_bad_field_raises():
    fam, grid = _interval_at(1.5)
    with pytest.raises(EvaluationOutsideDomainError):
        pullback(fam, 1.0, lambda x: np.full(x.shape[0], np.nan), grid)


def test_pushforward_zero_and_roundtrip():
    fam, grid = _interval_at(2.0, cells=32)
    zero = GridFunction.constant(grid, 0.0)
    assert np.allclose(pushforward(fam, 1.0, zero)(np.array([[0.7]])), 0.0)

    rng = np.random.default_rng(3)
    g = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    field = pushforward(fam, 1.0, g)
    back = pullback(fam, 1.0, field, grid)
    assert np.max(np.abs(back.values - g.values)) <= 1e-10


def test_pushforward_linear_profile():
    ell = 2.0
    fam, grid = _interval_at(ell, cells=32)
    g = GridFunction(grid, grid.nodes[:, 0].astype(complex))
    field = pushforward(fam, 1.0, g)
    x = np.array([[0.3], [1.1], [1.9]])
    assert np.max(np.abs(field(x) - x[:, 0] / ell)) <= 1e-12


# -- sharp operators --------------------------------------------------------

def test_sharp_equals_star_for_identity():
    fam = identity_family(1)
    grid = ReferenceGrid.interval(20)
    field = lambda x: np.exp(1j * x[:, 0])
    assert np.allclose(pullback_sharp(fam, 0.5, field, grid).values,
                       pullback(fam, 0.5, field, grid).values)


def test_sharp_constant_interval():
    ell = 1.5
    fam, grid = _interval_at(ell)
    v = pullback_sharp(fam, 1.0, lambda x: np.ones(x.shape[0]), grid)
    assert np.allclose(v.values, np.sqrt(ell))
    assert v.norm() ** 2 == pytest.approx(ell, rel=1e-12)


def test_sharp_norm_identity_quadrature_order():
    # |  ||h# phi||^2  -  ||phi||^2_Omega(t) | = O(spacing^2) on a 2D
    # diagonal family; the moving-side norm comes from a fine midpoint rule.
    f1, f2 = 1.3, 0.8
    fam = diagonal_family((lambda t: 1 + (f1 - 1) * t, lambda t: 1 + (f2 - 1) * t),
                          (lambda t: f1 - 1, lambda t: f2 - 1))
    phi = lambda x: np.exp(np.sin(2.1 * x[:, 0])) * np.cos(1.7 * x[:, 1])

    m = 800
    xs = (np.arange(m) + 0.5) * f1 / m
    ys = (np.arange(m) + 0.5) * f2 / m
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=-1)
    oracle = np.sum(np.abs(phi(pts)) ** 2) * (f1 / m) * (f2 / m)

    errs, spacings = [], []
    for cells in (8, 16, 32):
        grid = ReferenceGrid.rectangle(cells)
        v = pullback_sharp(fam, 1.0, phi, grid)
        errs.append(abs(v.norm() ** 2 - oracle))
        spacings.append(grid.min_spacing)
    order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    assert order >= 2.0 - 0.15
    # constant bounded by the trapezoid-error scale of |phi|^2 (|D^2| ~ 20)
    assert errs[-1] <= 5.0 * spacings[-1] ** 2


def test_sharp_roundtrip_identity_at_nodes():
    fam = diagonal_family((lambda t: 1.4, lambda t: 0.7),
                          (lambda t: 0.0, lambda t: 0.0))
    grid = ReferenceGrid.rectangle(10)
    rng = np.random.default_rng(11)
    v = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    field = pushforward_sharp(fam, 0.5, v)
    back = pullback_sharp(fam, 0.5, field, grid)
    assert np.max(np.abs(back.values - v.values)) <= 1e-12


# -- pulled differential operators ------------------------------------------

def test_pulled_gradient_identity_is_plain_gradient():
    fam = identity_family(1)
    grid = ReferenceGrid.interval(40)
    g = GridFunction(grid, np.sin(2 * np.pi * grid.nodes[:, 0]))
    grad = pulled_gradient(fam, 0.2, g)
    expected = 2 * np.pi * np.cos(2 * np.pi * grid.nodes[:, 0])
    # worst row is the one-sided end: |error| <= (dy^2 / 3) max|g'''|
    bound = grid.min_spacing ** 2 / 3 * (2 * np.pi) ** 3 * 1.1
    assert np.max(np.abs(grad.values[:, 0] - expected)) <= bound


def test_pulled_gradient_interval_linear():
    ell = 1.5
    fam, grid = _interval_at(ell)
    g = GridFunction(grid, grid.nodes[:, 0].astype(complex))
    grad = pulled_gradient(fam, 1.0, g)
    assert np.max(np.abs(grad.values[:, 0] - 1.0 / ell)) <= 1e-13


def test_pulled_gradient_rotation_oracle():
    # g(y) = y1 pushed to the moving frame is x . R e1, whose gradient is the
    # constant vector R e1; the pullback keeps that value at every node.
    omega, t = 1.1, 0.6
    fam = rotation_family(omega)
    grid = ReferenceGrid.rectangle(14, ((-0.5, 0.5), (-0.5, 0.5)))
    g = GridFunction(grid, grid.nodes[:, 0].astype(complex))
    grad = pulled_gradient(fam, t, g)
    oracle = np.array([np.cos(omega * t), np.sin(omega * t)])
    assert np.max(np.abs(grad.values - oracle)) <= 1e-12


def test_pulled_divergence_constant_identity():
    fam = identity_family(2)
    grid = ReferenceGrid.rectangle(9)
    A = GridFunction(grid, np.tile(np.array([1.0, -2.0]), (grid.n_nodes, 1)))
    div = pulled_divergence(fam, 0.1, A)
    assert np.max(np.abs(div.values)) <= 1e-12


def test_pulled_divergence_interval_linear_flux():
    ell = 1.5
    fam, grid = _interval_at(ell)
    A = GridFunction(grid, grid.nodes[:, 0].astype(complex)[:, None])
    div = pulled_divergence(fam, 1.0, A)
    assert np.max(np.abs(div.values - 1.0 / ell)) <= 1e-12


def test_duality_residual_decays_with_spacing():
    # Summation-by-parts residual of the grad/div pair against the
    # det-weighted inner product, for g with zero boundary trace.
    fam = diagonal_family((lambda t: 1.2, lambda t: 0.9),
                          (lambda t: 0.2, lambda t: -0.1))
    residuals, spacings = [], []
    for cells in (16, 32, 64):
        grid = ReferenceGrid.rectangle(cells)
        y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
        g = GridFunction(grid, (np.sin(np.pi * y1) * np.sin(2 * np.pi * y2)
                                ).astype(complex))
        A = GridFunction(grid, np.stack([
            np.cos(2.3 * y1) * (1 + y2), np.sin(1.7 * y2) + y1 ** 2], axis=-1
        ).astype(complex))
        div = pulled_divergence(fam, 0.5, A)
        grad = pulled_gradient(fam, 0.5, g)
        _, detw, _ = jacobian_field(fam, 0.5, grid.nodes)
        pair = np.sum(grid.weights * detw * np.conj(div.values) * g.values) \
            + np.sum(grid.weights * detw
                     * np.sum(np.conj(A.values) * grad.values, axis=1))
        residuals.append(abs(pair))
        spacings.append(grid.min_spacing)
    assert residuals[-1] <= 2.0 * spacings[-1]
    assert residuals[-1] <= 0.75 * residuals[0]


def test_pulled_laplacian_flat_interior():
    fam = identity_family(1)
    grid = ReferenceGrid.interval(128)
    y = grid.nodes[:, 0]
    g = GridFunction(grid, np.sin(np.pi * y))
    lap = pulled_laplacian(fam, 0.0, g)
    mid = (y >= 0.25) & (y <= 0.75)
    err = np.max(np.abs(lap.values[mid] + np.pi ** 2 * np.sin(np.pi * y[mid])))
    assert err <= 2.0 * np.pi ** 4 / 3 * grid.min_spacing ** 2


def test_pulled_laplacian_interval_convergence_order():
    ell = 1.5
    errs, spacings = [], []
    for cells in (32, 64, 128):
        fam, grid = _interval_at(ell, cells)
        y = grid.nodes[:, 0]
        g = GridFunction(grid, np.sin(np.pi * y))
        lap = pulled_laplacian(fam, 1.0, g)
        mid = (y >= 0.25) & (y <= 0.75)
        expected = -(np.pi / ell) ** 2 * np.sin(np.pi * y)
        errs.append(np.max(np.abs(lap.values[mid] - expected[mid])))
        spacings.append(grid.min_spacing)
    order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    assert order >= 1.9


def test_pulled_laplacian_is_exact_composition():
    fam = diagonal_family((lambda t: 1.1, lambda t: 0.8),
                          (lambda t: 0.0, lambda t: 0.0))
    grid = ReferenceGrid.rectangle(12)
    rng = np.random.default_rng(5)
    g = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    lap = pulled_laplacian(fam, 0.3, g)
    composed = pulled_divergence(fam, 0.3, pulled_gradient(fam, 0.3, g))
    assert np.array_equal(lap.values, composed.values)


def test_moving_norm_matches_reference_norm():
    fam, grid = _interval_at(1.5, cells=64)
    rng = np.random.default_rng(9)
    v = GridFunction(grid, rng.standard_normal(grid.n_nodes).astype(complex))
    g = GridFunction(grid, v.values / np.sqrt(
        np.linalg.det(fam.jacobian_matrix(1.0, grid.nodes))))
    assert moving_norm_squared(fam, 1.0, g) == pytest.approx(
        v.norm() ** 2, rel=1e-12)
