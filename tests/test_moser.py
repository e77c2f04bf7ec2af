import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from schrodeform import parallel
from schrodeform.errors import (
    ContractionBoundExceededError,
    FlowLeftDomainError,
    InvalidInputError,
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
from schrodeform.geometry.interp import nodal_spline
from schrodeform.moser import flow as flow_module
from schrodeform.moser.maps import build_moser_map
from schrodeform.moser.pipeline import (_RETRIES, _SmoothedDensity, _static_flow,
                                        _volume_density)
from schrodeform.moser.right_inverse import (DivergenceRightInverse,
                                             build_divergence_right_inverse)
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


@pytest.mark.parametrize("nan_rate, name", [(True, "rate"), (False, "density")])
def test_flow_names_a_non_finite_stage_density(nan_rate, name):
    # finite at both samples, so validate passes; NaN at the stages between
    grid = ReferenceGrid.rectangle(8)
    base = _sine_density_2d(0.1)

    def gap(t):
        return np.nan if 0.4 < t < 0.6 else 1.0

    dens = DensityFamily(lambda t, p: gap(t) * base(t, p),
                         lambda t, p: (gap(t) if nan_rate else 1.0) * base.rate(t, p))
    with pytest.raises(InvalidInputError, match=rf"the {name} is not finite at t=0\.4025"):
        moser_flow(dens, grid, [0.0, 1.0])


@pytest.mark.parametrize("construct", [moser_flow, moser_combined])
def test_no_time_samples_is_invalid_input(construct):
    # an empty sample list used to end in a raw IndexError
    with pytest.raises(InvalidInputError, match="time sample"):
        construct(_sine_density_2d(0.1), ReferenceGrid.rectangle(8), [])


def test_flow_stage_table_reads_each_stage_time_once(monkeypatch):
    grid = ReferenceGrid.rectangle(8)
    base = _sine_density_2d(0.1)
    calls = {"density": 0, "rate": 0, "apply": 0, "backward": 0}

    def f(t, p):
        calls["density"] += 1
        return base(t, p)

    def df(t, p):
        calls["rate"] += 1
        return base.rate(t, p)

    apply = DivergenceRightInverse.apply

    def counted_apply(self, v):
        calls["apply"] += 1
        return apply(self, v)

    backward = flow_module._integrate_backward

    def watched_backward(*args):
        before = calls["density"] + calls["rate"]
        out = backward(*args)
        calls["backward"] += calls["density"] + calls["rate"] - before
        return out

    monkeypatch.setattr(DivergenceRightInverse, "apply", counted_apply)
    monkeypatch.setattr(flow_module, "_integrate_backward", watched_backward)
    # one CPU: the counts cannot see forked workers
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    moser_flow(DensityFamily(f, df), grid, [0.0, 1.0])
    # 200 RK4 steps have 401 distinct stage times
    assert calls["rate"] == 401
    assert calls["apply"] == 401
    assert calls["backward"] == 0
    # one nodal read per stage time, plus validate (2 samples), the
    # f(t0) == 1 check, the field's f(t0) and the two maps' targets
    assert calls["density"] == 401 + 6

    # a third sample, and a repeated one (a zero-step span): the two spans of
    # 100 steps share their end point, so there are again 401 stage times
    for samples in ([0.0, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0]):
        calls.update(density=0, rate=0, apply=0, backward=0)
        moser_flow(DensityFamily(f, df), grid, samples)
        assert calls["rate"] == 401
        assert calls["apply"] == 401
        assert calls["backward"] == 0
        # validate and the maps' targets read each sample once
        assert calls["density"] == 401 + 2 + 2 * len(samples)


def _spline_density(grid, amplitude):
    shape = nodal_spline(grid, np.sin(2 * np.pi * grid.nodes[:, 0])
                         * np.sin(2 * np.pi * grid.nodes[:, 1]))
    return DensityFamily(lambda t, p: 1.0 + amplitude * t * shape(p),
                         lambda t, p: amplitude * shape(p))


@pytest.mark.parametrize("t0", [0.0, 0.5], ids=["identity", "static_flow"])
def test_flow_field_matches_separate_splines(t0):
    grid = ReferenceGrid.rectangle(12)
    density = _spline_density(grid, 0.2)
    anchor = None if t0 == 0.0 else _static_flow(
        density(t0, grid.nodes), grid, t0)
    field = flow_module._FlowField(density, grid, t0, anchor)
    pts = np.random.default_rng(3).uniform(0.05, 0.95, size=(50, 2))
    pull = (lambda x: x) if anchor is None else nodal_spline(
        grid, anchor.inverse_values)
    rinv = build_divergence_right_inverse(grid)
    for t in (t0, 0.73):
        u = rinv.apply(density.rate(t, pull(grid.nodes))
                       / density(t0, pull(grid.nodes)))
        q = pull(pts)
        expected = -u(pts) * (density(t0, q) / density(t, q))[:, None]
        scale = np.max(np.abs(expected))
        assert scale > 0.0
        stage = nodal_spline(grid, field.samples(t))
        assert np.max(np.abs(field.velocity(stage, pts) - expected)) <= 1e-13 * scale


# -- combined pipeline --------------------------------------------------------

@pytest.mark.parametrize("grid", [
    ReferenceGrid.interval(200), ReferenceGrid.interval(4), ReferenceGrid.rectangle(40),
    ReferenceGrid.rectangle((64, 24), ((0.0, 1.0), (0.0, 2.0)))],
    ids=["201", "5", "41x41", "65x25"])
def test_smoothing_equals_gaussian_filter(grid):
    # every width a pipeline attempt takes; on 5 nodes the kernel outgrows the grid
    f = 0.5 + np.random.default_rng(3).random(grid.n_nodes)
    for attempt in range(_RETRIES + 1):
        width = 2.0 * grid.min_spacing * 0.5 ** attempt
        smoothed = _SmoothedDensity(None, grid, width)._smooth(f)
        expected = gaussian_filter(grid.reshape(f), [width / h for h in grid.spacing],
                                   mode="nearest").reshape(-1)
        assert np.max(np.abs(smoothed - expected)) <= 1e-14 * np.max(np.abs(expected))


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
    # a density of four bumps a side, which 8 cells cannot resolve: every
    # smoothing width leaves f / f1 o phi1^-1 outside the contraction bound
    grid = ReferenceGrid.rectangle(8)

    def bumps(p):
        return np.sin(4 * np.pi * p[..., 0]) * np.sin(4 * np.pi * p[..., 1])

    density = DensityFamily(lambda t, p: 1.0 + 0.9 * t * bumps(p),
                            lambda t, p: 0.9 * bumps(p))
    with pytest.raises(PipelineFailedError, match="after 4 attempts"):
        moser_combined(density, grid, [0.0, 1.0])


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


def test_map_check_fails_on_nan():
    grid = ReferenceGrid.rectangle(6)
    mm = build_moser_map(grid, 0.0, grid.nodes, grid.nodes, np.ones(grid.n_nodes),
                         method="identity")
    mm.check()
    values = mm.values.copy()
    values[grid.boundary_indices[0]] = np.nan
    with pytest.raises(AssertionError):
        dataclasses.replace(mm, values=values).check()
    det = mm.det_values.copy()
    det[grid.interior_indices[0]] = np.nan
    with pytest.raises(AssertionError):
        dataclasses.replace(mm, det_values=det).check()


def test_fixed_point_rejects_nan_density():
    grid = ReferenceGrid.rectangle(6)
    f = np.ones(grid.n_nodes)
    f[grid.interior_indices[0]] = np.nan
    with pytest.raises(ContractionBoundExceededError):
        moser_fixed_point(f, grid)


def test_flow_domain_guard_fails_on_nan():
    grid = ReferenceGrid.rectangle(6)
    pts = grid.nodes.copy()
    pts[7] = np.nan
    with pytest.raises(FlowLeftDomainError):
        flow_module._enforce_domain(pts, grid, grid.min_spacing / 100.0, 0.0)
