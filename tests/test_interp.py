import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline, make_interp_spline

from schrodeform.errors import InvalidInputError
from schrodeform.geometry import ReferenceGrid
from schrodeform.geometry.interp import nodal_spline

GRIDS = {
    "interval40": ReferenceGrid.interval(40),
    "square40": ReferenceGrid.rectangle(40),
    "rect3x7": ReferenceGrid.rectangle((3, 7), ((0.0, 1.0), (-0.5, 2.0))),
}
CHANNELS = [(), (2,), (2, 2)]


def _samples(grid, channels, dtype, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.n_nodes,) + channels
    values = rng.standard_normal(shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(shape)
    return values


def _random_points(grid, n=500, seed=1):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in grid.bounds])
    hi = np.array([b[1] for b in grid.bounds])
    return lo + (hi - lo) * rng.random((n, grid.dim))


def _reference(grid, values, pts):
    """Per-channel scipy interpolant of real nodal data at pts."""
    flat = values.reshape(grid.n_nodes, -1)
    cols = []
    for c in range(flat.shape[1]):
        shaped = grid.reshape(flat[:, c])
        if grid.dim == 1:
            cols.append(CubicSpline(grid.axes[0], shaped)(pts[:, 0]))
        else:
            kx, ky = (min(3, n - 1) for n in grid.shape)
            spline = RectBivariateSpline(*grid.axes, shaped, kx=kx, ky=ky, s=0)
            cols.append(spline.ev(pts[:, 0], pts[:, 1]))
    return np.stack(cols, axis=-1).reshape((len(pts),) + values.shape[1:])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("channels", CHANNELS, ids=str)
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_nodal_spline_matches_scipy_references(name, channels, dtype):
    grid = GRIDS[name]
    values = _samples(grid, channels, dtype)
    scale = np.max(np.abs(values))
    spline = nodal_spline(grid, values)

    at_nodes = spline(grid.nodes)
    assert at_nodes.shape == values.shape
    assert np.max(np.abs(at_nodes - values)) <= 1e-14 * scale

    pts = _random_points(grid)
    got = spline(pts)
    want = _reference(grid, values.real, pts)
    if dtype is complex:
        want = want + 1j * _reference(grid, values.imag, pts)
    assert got.shape == (len(pts),) + channels
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("dtype", [float, complex])
def test_two_cell_interval_is_quadratic(dtype):
    grid = ReferenceGrid.interval(2)
    values = _samples(grid, (2,), dtype)
    spline = nodal_spline(grid, values)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(spline(grid.nodes) - values)) <= 1e-14 * scale
    pts = _random_points(grid)
    want = make_interp_spline(grid.axes[0], values, k=2)(pts[:, 0])
    assert np.max(np.abs(spline(pts) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(10,), (80, 2), (2, 81), ()], ids=str)
def test_nodal_spline_rejects_wrong_node_count(shape):
    # 81 nodes: a raw reshape error before, now a typed one
    grid = ReferenceGrid.rectangle(8)
    with pytest.raises(InvalidInputError, match="81 node samples"):
        nodal_spline(grid, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)],
                         ids=["nan", "inf", "-inf", "complex-nan"])
def test_nodal_spline_rejects_non_finite_samples(bad):
    # a NaN node used to give a spline that is NaN everywhere
    grid = ReferenceGrid.rectangle(8)
    values = _samples(grid, (2,), complex if isinstance(bad, complex) else float)
    values[40, 1] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        nodal_spline(grid, values)
