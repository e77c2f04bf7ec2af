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
from dataclasses import replace

import numpy as np

from ..errors import FlowLeftDomainError
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import vector_interpolator
from .maps import (
    DensityFamily,
    MoserMap,
    build_moser_map,
    identity_moser_map,
    nodal_determinant,
)
from .right_inverse import build_divergence_right_inverse


class _FlowField:
    """Velocity field of the re-anchored density.

    One right-inverse solve per distinct stage time; the resulting fields are
    cached so the backward passes (and the repeated midpoint stage of RK4)
    reuse them.
    """

    def __init__(self, density: DensityFamily, grid: ReferenceGrid, t0: float,
                 anchor: MoserMap | None):
        self.density = density
        self.grid = grid
        self.t0 = t0
        self.rinv = build_divergence_right_inverse(grid)
        if anchor is None or anchor.method == "identity":
            self._pull = None
            self._pull_nodes = grid.nodes
        else:
            # interpolated anchor inverse is accurate enough inside RK4 stages
            self._pull = vector_interpolator(grid, anchor.inverse_values)
            self._pull_nodes = self._pull(grid.nodes)
        self._f0_nodes = density(t0, self._pull_nodes)
        self._fields: dict = {}

    def _pulled(self, pts):
        if self._pull is None:
            return pts
        return self._pull(pts)

    def ratio(self, t: float, pts: np.ndarray, pulled=None) -> np.ndarray:
        q = self._pulled(pts) if pulled is None else pulled
        return self.density(t, q) / self.density(self.t0, q)

    def _field_at(self, t: float):
        key = round(float(t), 12)
        if key not in self._fields:
            rate_nodes = self.density.rate(t, self._pull_nodes) / self._f0_nodes
            self._fields[key] = self.rinv.apply(rate_nodes)
        return self._fields[key]

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        field = self._field_at(t)
        q = self._pulled(pts)
        g = self.density(t, q) / self.density(self.t0, q)
        return -field(pts).real / g[:, None]


def _rk4_span(velocity, pts: np.ndarray, ta: float, tb: float, n_steps: int,
              grid: ReferenceGrid) -> np.ndarray:
    """Integrate all points from ta to tb (either direction) with RK4."""
    pts = np.array(pts, dtype=float)
    h = (tb - ta) / n_steps
    band = grid.min_spacing / 100.0
    for k in range(n_steps):
        t = ta + k * h
        k1 = velocity(t, pts)
        k2 = velocity(t + h / 2, pts + (h / 2) * k1)
        k3 = velocity(t + h / 2, pts + (h / 2) * k2)
        k4 = velocity(t + h, pts + h * k3)
        pts = pts + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        _enforce_domain(pts, grid, band, t)
    return pts


def _enforce_domain(pts: np.ndarray, grid: ReferenceGrid, band: float, t: float):
    for a, (lo, hi) in enumerate(grid.bounds):
        worst = max(float(np.max(pts[:, a] - hi)), float(np.max(lo - pts[:, a])), 0.0)
        if worst > band:
            raise FlowLeftDomainError(
                f"trajectory left the domain by {worst:.3e} (> spacing/100) near t={t}")
        np.clip(pts[:, a], lo, hi, out=pts[:, a])


def _substeps(span: float, total_span: float, samples: int, min_steps: int = 200) -> int:
    if span == 0.0:
        return 0
    target = total_span / max(min_steps, 4 * samples)
    return max(1, math.ceil(abs(span) / target))


def moser_flow(density: DensityFamily, grid: ReferenceGrid, time_samples,
               anchor: MoserMap | None = None, min_steps: int = 200,
               validate: bool = True):
    """Maps with det D phi(t) = f(t) at each sample, by the flow method.

    The density must be identically 1 at the first sample time, or an anchor
    map with determinant f(t0) must be supplied.
    """
    time_samples = [float(t) for t in time_samples]
    if sorted(time_samples) != time_samples:
        raise ValueError("time samples must be ascending")
    if validate:
        density.validate(grid, time_samples)
    t0 = time_samples[0]

    f0 = density(t0, grid.nodes)
    if anchor is None:
        if np.max(np.abs(f0 - 1.0)) > 1e-10:
            raise ValueError(
                "moser_flow needs f(t0) == 1 or an explicit anchor map")
        anchor = identity_moser_map(grid, t0)

    velocity = _FlowField(density, grid, t0, anchor)
    total = time_samples[-1] - t0
    counts = [_substeps(tb - ta, total, len(time_samples), min_steps)
              for ta, tb in zip(time_samples[:-1], time_samples[1:])]

    # forward pass: psi(t_k) for the inverse maps
    forward = [grid.nodes.copy()]
    pos = grid.nodes.copy()
    for (ta, tb), n in zip(zip(time_samples[:-1], time_samples[1:]), counts):
        if n:
            pos = _rk4_span(velocity, pos, ta, tb, n, grid)
        forward.append(pos.copy())

    maps = []
    for k, tk in enumerate(time_samples):
        if k == 0:
            maps.append(replace(build_moser_map(
                grid, tk, anchor.values, anchor.inverse_values,
                density(tk, grid.nodes), method="flow"), flow_consistency=0.0))
            continue
        # phi-tilde(t_k) composed with the anchor: integrate backward from the
        # anchor image points, so the composition needs no interpolation.
        back = _integrate_backward(velocity, anchor.values, time_samples, counts, k, grid)
        inverse = anchor.inverse(forward[k]) if anchor.method != "identity" \
            else forward[k]
        mm = build_moser_map(grid, tk, back, inverse,
                             density(tk, grid.nodes), method="flow")
        ratio = velocity.ratio(tk, forward[k])
        maps.append(replace(mm, flow_consistency=float(np.max(np.abs(
            nodal_determinant(grid, forward[k]) * ratio - 1.0)))))
    return maps


def _integrate_backward(velocity, start_pts, time_samples, counts, k, grid):
    pos = np.array(start_pts, dtype=float)
    for j in range(k, 0, -1):
        ta, tb = time_samples[j], time_samples[j - 1]
        n = counts[j - 1]
        if n:
            pos = _rk4_span(velocity, pos, ta, tb, n, grid)
    return pos
