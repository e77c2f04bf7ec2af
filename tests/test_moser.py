import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodeform.errors import (
    ContractionBoundExceededError,
    FlowLeftDomainError,
    NonPositiveDensityError,
    PipelineFailedError,
)
from schrodeform.geometry import ReferenceGrid
from schrodeform.moser import (
    DensityFamily,
    moser_combined,
    moser_fixed_point,
    moser_flow,
    nodal_determinant,
    normalize_diffeo,
    q_residual,
)
from schrodeform.moser.pipeline import _volume_density
from schrodeform.scenarios.families import diagonal_family, stretch_warp_family


def _sine_density_2d(amplitude):
    def f(t, p):
        return 1.0 + amplitude * t * np.sin(2 * np.pi * p[..., 0]) \
            * np.sin(2 * np.pi * p[..., 1])

    def df(t, p):
        return amplitude * np.sin(2 * np.pi * p[..., 0]) \
            * np.sin(2 * np.pi * p[..., 1])

    return DensityFamily(f, df)


# -- Q remainder --------------------------------------------------------------

def test_q_zero_matrix():
    assert q_residual(np.zeros((2, 2))) == 0.0


def test_q_2x2_diagonal():
    assert q_residual(np.diag([0.3, -0.2])) == pytest.approx(0.3 * -0.2, abs=1e-15)


def _det3_sarrus(A):
    return (A[0, 0] * A[1, 1] * A[2, 2] + A[0, 1] * A[1, 2] * A[2, 0]
            + A[0, 2] * A[1, 0] * A[2, 1] - A[0, 2] * A[1, 1] * A[2, 0]
            - A[0, 0] * A[1, 2] * A[2, 1] - A[0, 1] * A[1, 0] * A[2, 2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-0.5, 0.5), min_size=9, max_size=9))
def test_q_3x3_matches_direct_determinant(entries):
    M = np.array(entries).reshape(3, 3)
    oracle = _det3_sarrus(np.eye(3) + M) - 1.0 - np.trace(M)
    assert q_residual(M) == pytest.approx(oracle, abs=1e-14)


# -- fixed point --------------------------------------------------------------

def test_fixed_point_trivial_density():
    grid = ReferenceGrid.rectangle(16)
    mm = moser_fixed_point(np.ones(grid.n_nodes), grid)
    assert mm.iterations == 1
    assert np.max(np.abs(mm.values - grid.nodes)) == 0.0


def test_fixed_point_1d_antiderivative_oracle():
    grid = ReferenceGrid.interval(1024)
    y = grid.nodes[:, 0]
    f = 1.0 + 0.05 * np.sin(2 * np.pi * y)
    mm = moser_fixed_point(f, grid, tol=1e-12)
    oracle = y + 0.05 * (1.0 - np.cos(2 * np.pi * y)) / (2 * np.pi)
    assert np.max(np.abs(mm.values[:, 0] - oracle)) <= 1e-6


def test_fixed_point_2d_converges_with_geometric_deltas():
    grid = ReferenceGrid.rectangle(32)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    f = 1.0 + 0.05 * np.sin(2 * np.pi * y1) * np.sin(2 * np.pi * y2)
    mm = moser_fixed_point(f, grid, tol=1e-10)
    assert mm.iterations <= 30
    assert mm.det_residual <= 1e-3
    ratios = [b / a for a, b in zip(mm.step_deltas, mm.step_deltas[1:])
              if a > 1e-14]
    assert all(r <= 0.9 for r in ratios)


def test_fixed_point_respects_contraction_bound():
    grid = ReferenceGrid.interval(32)
    f = 1.0 + 0.5 * np.sin(2 * np.pi * grid.nodes[:, 0])
    with pytest.raises(ContractionBoundExceededError):
        moser_fixed_point(f, grid)


def test_moser_map_invariants():
    grid = ReferenceGrid.rectangle(24)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    f = 1.0 + 0.08 * np.sin(2 * np.pi * y1) * np.sin(4 * np.pi * y2)
    mm = moser_fixed_point(f, grid)
    mm.check()  # boundary identity + positive determinant
    roundtrip = mm(mm.inverse(grid.nodes))
    assert np.max(np.abs(roundtrip - grid.nodes)) <= 1e-8


# -- flow ---------------------------------------------------------------------

def test_flow_constant_density_is_identity():
    grid = ReferenceGrid.rectangle(12)
    dens = DensityFamily(lambda t, p: np.ones(p.shape[:-1]),
                         lambda t, p: np.zeros(p.shape[:-1]))
    maps = moser_flow(dens, grid, [0.0, 0.4, 1.0])
    for mm in maps:
        assert np.max(np.abs(mm.values - grid.nodes)) <= 1e-13


def test_flow_1d_linear_interpolation_matches_antiderivative():
    # time-independent target reached through the linear density path
    grid = ReferenceGrid.interval(1024)
    y = grid.nodes[:, 0]
    target = 1.0 + 0.2 * np.sin(2 * np.pi * y)

    def f(t, p):
        return 1.0 + t * 0.2 * np.sin(2 * np.pi * p[..., 0])

    def df(t, p):
        return 0.2 * np.sin(2 * np.pi * p[..., 0])

    maps = moser_flow(DensityFamily(f, df), grid, [0.0, 1.0])
    oracle = y + 0.2 * (1.0 - np.cos(2 * np.pi * y)) / (2 * np.pi)
    assert np.max(np.abs(maps[-1].values[:, 0] - oracle)) <= 1e-6
    assert maps[-1].det_residual <= 1e-6


def test_flow_2d_determinant_residual():
    grid = ReferenceGrid.rectangle(32)
    maps = moser_flow(_sine_density_2d(0.1), grid, [0.0, 1.0])
    assert maps[-1].det_residual <= 1e-3
    assert maps[-1].flow_consistency <= 1e-3


def test_flow_requires_anchor_for_nontrivial_start():
    grid = ReferenceGrid.interval(16)
    dens = DensityFamily(
        lambda t, p: 1.0 + 0.05 * np.sin(2 * np.pi * p[..., 0]),
        lambda t, p: np.zeros(p.shape[:-1]))
    with pytest.raises(ValueError):
        moser_flow(dens, grid, [0.0, 1.0])


def test_flow_rejects_negative_density():
    grid = ReferenceGrid.interval(16)
    dens = DensityFamily(
        lambda t, p: 1.0 - 2.0 * t * p[..., 0],
        lambda t, p: -2.0 * p[..., 0])
    with pytest.raises(NonPositiveDensityError):
        moser_flow(dens, grid, [0.0, 1.0])


# -- combined pipeline --------------------------------------------------------

def test_combined_trivial_density():
    grid = ReferenceGrid.rectangle(12)
    dens = DensityFamily(lambda t, p: np.ones(p.shape[:-1]),
                         lambda t, p: np.zeros(p.shape[:-1]))
    maps = moser_combined(dens, grid, [0.0, 1.0])
    assert np.max(np.abs(maps[-1].values - grid.nodes)) <= 1e-12


def test_combined_agrees_with_fixed_point_on_small_density():
    # solutions are non-unique; compare determinant residuals, not maps
    grid = ReferenceGrid.rectangle(32)
    dens = _sine_density_2d(0.05)
    maps = moser_combined(dens, grid, [0.0, 1.0])
    direct = moser_fixed_point(dens(1.0, grid.nodes), grid)
    assert maps[-1].det_residual <= max(2 * direct.det_residual, 1e-3)


def test_combined_rough_density():
    grid = ReferenceGrid.rectangle(32)

    def f(t, p):
        return 1.0 + 0.5 * np.sin(2 * np.pi * p[..., 0]) \
            * np.sin(2 * np.pi * p[..., 1])

    maps = moser_combined(DensityFamily(f, lambda t, p: np.zeros(p.shape[:-1])),
                          grid, [0.0])
    assert maps[0].det_residual <= 5e-3


def test_combined_reports_pipeline_failure():
    grid = ReferenceGrid.rectangle(8)
    with pytest.raises(PipelineFailedError):
        moser_combined(_sine_density_2d(0.5), grid, [0.0, 1.0],
                       contraction_bound=1e-9, retries=1)


# -- volume normalization -----------------------------------------------------

def test_volume_density_rate_matches_fd_oracle():
    # rate built from d/dt log det J and the cached volume rate, against a
    # centered difference of the density itself in time with step 1e-4
    grid = ReferenceGrid.rectangle(12)
    density, _ = _volume_density(stretch_warp_family(), grid)
    t, dt = 0.5, 1e-4
    oracle = (density(t + dt, grid.nodes) - density(t - dt, grid.nodes)) / (2 * dt)
    assert np.max(np.abs(density.rate(t, grid.nodes) - oracle)) <= 1e-6


def test_normalize_constant_determinant_family_is_untouched():
    grid = ReferenceGrid.rectangle(16)
    fam = diagonal_family((lambda t: 1 + 0.5 * t, lambda t: 1.0),
                          (lambda t: 0.5, lambda t: 0.0))
    tilde = normalize_diffeo(fam, grid, [0.0, 1.0])
    err = np.max(np.abs(tilde.map(1.0, grid.nodes) - fam.map(1.0, grid.nodes)))
    assert err <= 1e-10


def test_normalize_1d_matches_affine_oracle():
    # in 1D the volume-normalized map is the affine map onto (h(0), h(1))
    grid = ReferenceGrid.interval(256)

    def fmap(t, y):
        y = np.asarray(y, dtype=float)
        return y + 0.4 * t * y ** 2

    from schrodeform.geometry import DiffeoFamily
    fam = DiffeoFamily(
        map=fmap,
        dmap_dt=lambda t, y: 0.4 * np.asarray(y, dtype=float) ** 2,
        jacobian=lambda t, y: (1 + 0.8 * t * np.asarray(y, dtype=float))[..., None],
        jacobian_dt=lambda t, y: (0.8 * np.asarray(y, dtype=float))[..., None],
    )
    tilde = normalize_diffeo(fam, grid, [0.0, 0.5, 1.0])
    for t in (0.5, 1.0):
        length = 1.0 + 0.4 * t
        oracle = length * grid.nodes[:, 0]
        got = tilde.map(t, grid.nodes)[:, 0]
        assert np.max(np.abs(got - oracle)) <= 1e-5


def test_normalize_2d_relative_residual():
    grid = ReferenceGrid.rectangle(32)
    tilde = normalize_diffeo(stretch_warp_family(), grid, [0.0, 1.0])
    # the construction data are declared fields of the returned family
    declared = {f.name for f in dataclasses.fields(tilde)}
    assert {"moser_maps", "base_family", "volume_ratio"} <= declared
    det = np.linalg.det(tilde.jacobian_matrix(1.0, grid.nodes))
    target = tilde.volume_ratio(1.0)
    assert np.max(np.abs(det - target)) / target <= 1e-3
    # boundary images preserved (phi = id on the boundary)
    b = grid.boundary_indices
    fam = tilde.base_family
    assert np.max(np.abs(tilde.map(1.0, grid.nodes[b])
                         - fam.map(1.0, grid.nodes[b]))) <= 1e-12


def test_flow_guard_detects_escaping_trajectories():
    from schrodeform.moser.flow import _rk4_span
    grid = ReferenceGrid.interval(16)

    def outward(t, pts):
        return np.ones_like(pts)  # constant drift through the right wall

    with pytest.raises(FlowLeftDomainError):
        _rk4_span(outward, grid.nodes, 0.0, 1.0, 50, grid)


def test_normalize_from_nontrivial_anchor_time():
    # first sample where det J already varies in space: exercises the static
    # anchor solve plus the re-anchored flow composition
    grid = ReferenceGrid.rectangle(32)
    tilde = normalize_diffeo(stretch_warp_family(), grid, [0.5, 1.0])
    for t in (0.5, 1.0):
        det = np.linalg.det(tilde.jacobian_matrix(t, grid.nodes))
        target = tilde.volume_ratio(t)
        assert np.max(np.abs(det - target)) / target <= 1e-3
