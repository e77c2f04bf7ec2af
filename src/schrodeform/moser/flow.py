"""Flow construction of maps with prescribed Jacobian determinant.

Transports the identity along the ODE ``d psi/dt = U(t, psi)`` with
``U = -(1/f) L^{-1}(df/dt)``; the resulting flow satisfies
``det(D psi(t)) f(t, psi(t)) = f(t0)`` and its inverse (obtained by
integrating the same ODE backward) has determinant ``f`` when the density
is 1 at the anchor time.  A general anchor map is composed in through the
re-anchored density ratio.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FlowLeftDomainError, InvalidInputError
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import nodal_spline
from .maps import DensityFamily, MoserMap, build_moser_map, nodal_determinant
from .right_inverse import build_divergence_right_inverse

# the fewest RK4 steps a flow takes over its whole span
_MIN_STEPS = 200


class _FlowField:
    """Velocity U = -(1/g) L^{-1}(df/dt / f(t0)) of the re-anchored density.

    Here g = f(t) / f(t0) is read at the anchor's pull-back q of each point.
    ``stage(t)`` builds the field at one time with one right-inverse solve:
    a single nodal spline whose channels are the velocity u(t) and the
    density's nodal samples f(t, .) and f(t0, .).  With the identity anchor
    (None) one evaluation at the stage points gives u and g together; with
    an anchor map, u is read at the points and g at q.  `moser_flow` builds
    one such stage per time of its stage schedule and reads them by index.
    """

    def __init__(self, density: DensityFamily, grid: ReferenceGrid, t0: float,
                 anchor: MoserMap | None):
        self.density = density
        self.grid = grid
        self.rinv = build_divergence_right_inverse(grid)
        self._f0_nodes = density(t0, grid.nodes)
        if anchor is None:
            self._pull = None
            self._pull_nodes = grid.nodes
            self._f0_pulled = self._f0_nodes
        else:
            # interpolated anchor inverse is accurate enough inside RK4 stages
            self._pull = nodal_spline(grid, anchor.inverse_values)
            self._pull_nodes = self._pull(grid.nodes)
            self._f0_pulled = density(t0, self._pull_nodes)

    def stage(self, t: float):
        rate = self.density.rate(t, self._pull_nodes)
        f = self.density(t, self.grid.nodes)
        for name, vals in (("rate", rate), ("density", f)):
            if not np.isfinite(vals).all():
                raise InvalidInputError(f"the {name} is not finite at t={t}")
        u = self.rinv.apply(rate / self._f0_pulled).node_values.real
        return nodal_spline(self.grid, np.column_stack([u, f, self._f0_nodes]))

    def ratio(self, stage, pts: np.ndarray) -> np.ndarray:
        """g = f(t) / f(t0) at the pull-back of `pts`, from a built stage."""
        q = pts if self._pull is None else self._pull(pts)
        f = stage(q)
        return f[:, -2] / f[:, -1]

    def velocity(self, stage, pts: np.ndarray) -> np.ndarray:
        vals = stage(pts)
        f = vals if self._pull is None else stage(self._pull(pts))
        return -vals[:, :-2] / (f[:, -2] / f[:, -1])[:, None]

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        """U(t, pts) through a stage built for this call."""
        return self.velocity(self.stage(t), pts)


def _rk4_span(velocity, pts: np.ndarray, ta: float, tb: float, n_steps: int,
              grid: ReferenceGrid) -> np.ndarray:
    """Integrate all points from ta to tb (either direction) with RK4.

    ``velocity(i, pts)`` reads stage i: step k reads 2k, 2k + 1 and 2k + 2."""
    pts = np.array(pts, dtype=float)
    h = (tb - ta) / n_steps
    band = grid.min_spacing / 100.0
    for k in range(n_steps):
        k1 = velocity(2 * k, pts)
        k2 = velocity(2 * k + 1, pts + (h / 2) * k1)
        k3 = velocity(2 * k + 1, pts + (h / 2) * k2)
        k4 = velocity(2 * k + 2, pts + h * k3)
        pts = pts + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        _enforce_domain(pts, grid, band, ta + k * h)
    return pts


def _enforce_domain(pts: np.ndarray, grid: ReferenceGrid, band: float, t: float):
    for a, (lo, hi) in enumerate(grid.bounds):
        # NaN coordinates make the first term NaN, and the guard fails on it
        worst = max(float(np.max(pts[:, a] - hi)), float(np.max(lo - pts[:, a])), 0.0)
        if not worst <= band:
            raise FlowLeftDomainError(
                f"trajectory left the domain by {worst:.3e} (> spacing/100) near t={t}")
        np.clip(pts[:, a], lo, hi, out=pts[:, a])


def _substeps(span: float, total_span: float, samples: int) -> int:
    if span == 0.0:
        return 0
    target = total_span / max(_MIN_STEPS, 4 * samples)
    return max(1, math.ceil(abs(span) / target))


def moser_flow(density: DensityFamily, grid: ReferenceGrid, time_samples,
               anchor: MoserMap | None = None):
    """Maps with det D phi(t) = f(t) at each sample, by the flow method.

    With no anchor the flow starts from the identity, and the density must
    be identically 1 at the first sample time; otherwise the anchor is a map
    with determinant f(t0).
    """
    time_samples = [float(t) for t in time_samples]
    if sorted(time_samples) != time_samples:
        raise InvalidInputError("time samples must be ascending")
    density.validate(grid, time_samples)
    t0 = time_samples[0]

    if anchor is None:
        if np.max(np.abs(density(t0, grid.nodes) - 1.0)) > 1e-10:
            raise InvalidInputError(
                "moser_flow needs f(t0) == 1 or an explicit anchor map")
        start, start_inverse = grid.nodes, grid.nodes
    else:
        start, start_inverse = anchor.values, anchor.inverse_values

    field = _FlowField(density, grid, t0, anchor)
    total = time_samples[-1] - t0
    spans = list(zip(time_samples[:-1], time_samples[1:]))
    counts = [_substeps(tb - ta, total, len(time_samples)) for ta, tb in spans]
    # the stage schedule: t0 (unless t0 is the only sample), then each RK4
    # step's t + h/2 and t + h as `_rk4_span` computes them.  A step's start
    # t is its predecessor's end, the float reached first; sample k's time
    # is stage ends[k].
    times = [t0] if spans else []
    for (ta, tb), n in zip(spans, counts):
        h = (tb - ta) / n if n else 0.0
        times += [ta + k * h + dh for k in range(n) for dh in (h / 2, h)]
    table = [field.stage(t) for t in times]
    ends = np.cumsum([0] + counts) * 2

    # forward pass: psi(t_k) for the inverse maps
    forward = [grid.nodes.copy()]
    pos = grid.nodes.copy()
    for j, ((ta, tb), n) in enumerate(zip(spans, counts)):
        if n:
            pos = _rk4_span(lambda i, p: field.velocity(table[ends[j] + i], p),
                            pos, ta, tb, n, grid)
        forward.append(pos.copy())

    maps = []
    for k, tk in enumerate(time_samples):
        if k == 0:
            maps.append(build_moser_map(
                grid, tk, start, start_inverse, density(tk, grid.nodes),
                method="flow", flow_consistency=0.0))
            continue
        # phi-tilde(t_k) composed with the anchor: integrate backward from the
        # anchor image points, so the composition needs no interpolation.
        back = _integrate_backward(field, table, ends, start,
                                   spans, counts, k, grid)
        inverse = forward[k] if anchor is None else anchor.inverse(forward[k])
        ratio = field.ratio(table[ends[k]], forward[k])
        maps.append(build_moser_map(
            grid, tk, back, inverse, density(tk, grid.nodes), method="flow",
            flow_consistency=float(np.max(np.abs(
                nodal_determinant(grid, forward[k]) * ratio - 1.0)))))
    return maps


def _integrate_backward(field, table, ends, start_pts, spans, counts, k, grid):
    """Carry points from sample k to the first, each span's stages reversed."""
    pos = np.array(start_pts, dtype=float)
    for j in range(k - 1, -1, -1):
        (ta, tb), n = spans[j], counts[j]
        if n:
            pos = _rk4_span(lambda i, p: field.velocity(table[ends[j + 1] - i], p),
                            pos, tb, ta, n, grid)
    return pos
