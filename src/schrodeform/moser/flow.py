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
import mmap

import numpy as np

from ..errors import FlowLeftDomainError, InvalidInputError
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import (coefficient_spline, nodal_spline,
                               spline_coefficients)
from ..parallel import map_jobs
from .maps import DensityFamily, MoserMap, build_moser_map, nodal_determinant
from .right_inverse import build_divergence_right_inverse

# the fewest RK4 steps a flow takes over its whole span
_MIN_STEPS = 200
# the most stage times one stage-table job builds: small blocks let a worker
# that runs ahead take more of the table (on 2 CPUs one block per CPU made a
# 40^2 and a 64^2 flow 4-10% slower)
_STAGE_BLOCK = 25
# the fewest node-stages (grid nodes x stage times) a flow forks workers
# for: on 2 CPUs an 8^2 flow of 401 stages (32k) ran faster in-process, a
# 14^2 one (90k) forked; 1D flows of 64 to 256 cells ran as fast either way
_FORK_WORK = 90_000


class _FlowField:
    """Velocity U = -(1/g) L^{-1}(df/dt / f(t0)) of the re-anchored density.

    Here g = f(t) / f(t0) is read at the anchor's pull-back q of each point.
    ``samples(t)`` builds the field at one time with one right-inverse
    solve: the nodal samples of the velocity u(t) and of the density
    f(t, .) and f(t0, .), the channels of one nodal spline, the stage.
    With the identity anchor (None) one evaluation of a stage at the points
    gives u and g together; with an anchor map, u is read at the points and
    g at q.  `moser_flow` computes the samples of every time of its stage
    schedule on forked workers, fits their splines in the parent and reads
    them by index.
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

    def samples(self, t: float) -> np.ndarray:
        rate = self.density.rate(t, self._pull_nodes)
        f = self.density(t, self.grid.nodes)
        for name, vals in (("rate", rate), ("density", f)):
            if not np.isfinite(vals).all():
                raise InvalidInputError(f"the {name} is not finite at t={t}")
        u = self.rinv.apply(rate / self._f0_pulled).node_values.real
        return np.column_stack([u, f, self._f0_nodes])

    def ratio(self, stage, pts: np.ndarray) -> np.ndarray:
        """g = f(t) / f(t0) at the pull-back of `pts`, from a built stage."""
        q = pts if self._pull is None else self._pull(pts)
        f = stage(q)
        return f[:, -2] / f[:, -1]

    def velocity(self, stage, pts: np.ndarray) -> np.ndarray:
        vals = stage(pts)
        f = vals if self._pull is None else stage(self._pull(pts))
        return -vals[:, :-2] / (f[:, -2] / f[:, -1])[:, None]


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

    The work runs in two `map_jobs` calls, so on every usable CPU.  The
    first writes the nodal samples of the stage table, in contiguous blocks
    of the schedule, into an array in shared memory; the parent then
    replaces each row by its spline coefficients in place.  The second runs
    the forward pass (job 0) and the backward pass from each later sample k
    (job k) on workers that fork after the table is built and so inherit
    it.  A flow of fewer than ``_FORK_WORK`` node-stages runs both
    in-process.  The maps, and the error raised, are the same as a serial
    run's.
    """
    time_samples = [float(t) for t in time_samples]
    if not time_samples or sorted(time_samples) != time_samples:
        raise InvalidInputError("time samples must be one or more ascending times")
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
    work = grid.n_nodes * len(times)
    # the workers write their stages' samples into one shared mapping (at
    # least one byte: a one-sample flow has an empty schedule); pickled
    # back, their buffers would outlive the fits and raise peak memory.  The
    # parent fits each row's spline in place: in a worker, the fits' matrix
    # products would spin BLAS threads on the other workers' CPUs
    channels = grid.dim + 2
    shape = (len(times), grid.n_nodes, channels)
    samples = np.ndarray(shape, float,
                         buffer=mmap.mmap(-1, max(math.prod(shape) * 8, 1)))

    def fill(block):
        for i in block:
            samples[i] = field.samples(times[i])

    map_jobs(fill, [range(i, min(i + _STAGE_BLOCK, len(times)))
                    for i in range(0, len(times), _STAGE_BLOCK)], cost=len,
             work=work, fork_work=_FORK_WORK)
    table = []
    for row in samples:
        row[...] = spline_coefficients(grid, row).reshape(row.shape)
        table.append(coefficient_spline(grid, row.reshape(grid.shape + (channels,))))
    steps = np.cumsum([0] + counts)
    ends = 2 * steps

    def forward():
        """psi(t_k) at every sample, for the inverse maps."""
        pos = grid.nodes.copy()
        out = [pos.copy()]
        for j, ((ta, tb), n) in enumerate(zip(spans, counts)):
            if n:
                pos = _rk4_span(lambda i, p: field.velocity(table[ends[j] + i], p),
                                pos, ta, tb, n, grid)
            out.append(pos.copy())
        return out

    def trajectory(k):
        # phi-tilde(t_k) composed with the anchor: integrate backward from
        # the anchor image points, so the composition needs no interpolation
        if k == 0:
            return forward()
        return _integrate_backward(field, table, ends, start, spans, counts, k, grid)

    # job 0 is the forward pass, job k the backward pass from sample k, each
    # costing its RK4 steps; their workers fork now and inherit the table
    passes = map_jobs(trajectory, range(len(time_samples)),
                      cost=lambda k: int(steps[k or -1]), work=work,
                      fork_work=_FORK_WORK)
    forward_pts = passes[0]
    maps = [build_moser_map(grid, t0, start, start_inverse, density(t0, grid.nodes),
                            method="flow", flow_consistency=0.0)]
    for k in range(1, len(time_samples)):
        tk, pts = time_samples[k], forward_pts[k]
        inverse = pts if anchor is None else anchor.inverse(pts)
        ratio = field.ratio(table[ends[k]], pts)
        maps.append(build_moser_map(
            grid, tk, passes[k], inverse, density(tk, grid.nodes), method="flow",
            flow_consistency=float(np.max(np.abs(
                nodal_determinant(grid, pts) * ratio - 1.0)))))
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
