import numpy as np
import pytest

from schrodeform.errors import InvalidInputError
from schrodeform.geometry import GridFunction, ReferenceGrid
from schrodeform.geometry import grid as grid_module


def test_interval_weights_sum_to_measure():
    grid = ReferenceGrid.interval(17, 0.0, 2.5)
    assert abs(grid.weights.sum() - 2.5) <= 1e-12 * 2.5


def test_rectangle_weights_sum_to_measure():
    grid = ReferenceGrid.rectangle((12, 9), ((0.0, 2.0), (-1.0, 1.0)))
    assert abs(grid.weights.sum() - 4.0) <= 1e-12 * 4.0


def test_boundary_normals_are_unit():
    grid = ReferenceGrid.rectangle(6)
    norms = np.linalg.norm(grid.boundary_normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_boundary_weights_sum_to_perimeter():
    grid = ReferenceGrid.rectangle((10, 20), ((0.0, 3.0), (0.0, 1.0)))
    assert abs(grid.boundary_weights.sum() - 8.0) <= 1e-12 * 8.0


def test_interval_boundary_is_two_endpoints():
    grid = ReferenceGrid.interval(8)
    assert grid.boundary_indices.tolist() == [0, 8]
    assert grid.boundary_normals[0, 0] == -1.0
    assert grid.boundary_normals[1, 0] == 1.0
    assert np.allclose(grid.boundary_weights, 1.0)


def test_interior_plus_boundary_partition_nodes():
    grid = ReferenceGrid.rectangle(5)
    joined = np.sort(np.concatenate([grid.interior_indices, grid.boundary_indices]))
    assert np.array_equal(joined, np.arange(grid.n_nodes))


def test_refined_keeps_bounds():
    grid = ReferenceGrid.interval(10, 0.0, 3.0).refined(4)
    assert grid.cells == (40,)
    assert grid.bounds == ((0.0, 3.0),)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        ReferenceGrid.interval(1)
    with pytest.raises(ValueError):
        ReferenceGrid((4, 4, 4), ((0, 1),) * 3)
    with pytest.raises(ValueError):
        ReferenceGrid.interval(4, 1.0, 0.0)


def test_inner_product_conjugate_symmetry():
    grid = ReferenceGrid.interval(13)
    rng = np.random.default_rng(7)
    f = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    g = GridFunction(grid, rng.standard_normal(grid.n_nodes)
                     + 1j * rng.standard_normal(grid.n_nodes))
    assert f.inner(g) == pytest.approx(np.conj(g.inner(f)), abs=1e-14)


def test_gridfunction_shape_checks():
    grid = ReferenceGrid.interval(5)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros((grid.n_nodes, 3)))


def test_inner_product_sesquilinearity_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    grid = ReferenceGrid.interval(8)
    base = np.linspace(0.3, 1.0, grid.n_nodes)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def check(ar, ai, br, bi):
        f = GridFunction(grid, base + 0j)
        g = GridFunction(grid, np.flip(base) + 0.5j * base)
        a, b = complex(ar, ai), complex(br, bi)
        lhs = GridFunction(grid, a * f.values + b * g.values)
        h = GridFunction(grid, base ** 2 + 0j)
        # linear in the second slot, conjugate-linear in the first
        assert h.inner(lhs) == pytest.approx(
            a * h.inner(f) + b * h.inner(g), abs=1e-12)
        assert lhs.inner(h) == pytest.approx(
            np.conj(a) * f.inner(h) + np.conj(b) * g.inner(h), abs=1e-12)

    check()


def test_grid_rejects_non_finite_bounds():
    # a NaN bound passes a `hi <= lo` guard, and an infinite one gives inf spacing
    with pytest.raises(InvalidInputError):
        ReferenceGrid.rectangle(4, bounds=((0.0, np.nan), (0.0, 1.0)))
    with pytest.raises(InvalidInputError):
        ReferenceGrid.interval(4, 0.0, np.inf)
    with pytest.raises(InvalidInputError):
        ReferenceGrid.interval(4, -np.inf, 0.0)


@pytest.mark.parametrize("make", [lambda: ReferenceGrid.interval(10 ** 9),
                                  lambda: ReferenceGrid.rectangle(3000),
                                  lambda: ReferenceGrid.rectangle((10 ** 9, 10 ** 9))],
                         ids=["interval", "rectangle", "huge_rectangle"])
def test_grid_rejects_more_nodes_than_its_bound_before_allocating(make, deadline):
    # 10^9 cells used to end in a raw _ArrayMemoryError, or to start allocating
    with pytest.raises(InvalidInputError, match="a grid may hold"):
        make()


def test_grid_bound_counts_nodes_not_cells(monkeypatch):
    monkeypatch.setattr(grid_module, "_MAX_NODES", 9)
    assert ReferenceGrid.rectangle(2).n_nodes == 9
    with pytest.raises(InvalidInputError, match="10 nodes exceed the 9"):
        ReferenceGrid.interval(9)
