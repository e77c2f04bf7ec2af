"""Combined construction: smoothed flow plus fixed-point polish.

For a general positive density family the pipeline (i) Gaussian-smooths the
density into ``f1`` (renormalized to unit average), (ii) transports the
identity along the flow of ``f1`` starting from a static anchor at the first
sample time, and (iii) corrects each sample with a fixed-point map for the
remaining ratio ``f / f1`` composed through the flow inverse.  If the ratio
exceeds the contraction bound the smoothing width is halved and the
pipeline retries.

The static anchor itself is a flow along the linear pseudo-time
interpolation between the uniform density and the target snapshot, which is
also what a single-sample combined call reduces to.

Retries *halve* the smoothing width: the fixed-point input is the ratio
f / f1, which approaches 1 only as the smoothed density resolves f, so
widening the kernel can only move the ratio away from the contraction
bound for grid-resolvable densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (ContractionBoundExceededError, InvalidInputError,
                      PipelineFailedError)
from ..geometry import smallmat
from ..geometry.diffeo import (DiffeoFamily, box_fd_jacobian,
                               det_and_log_derivative)
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import nodal_spline
from .fixed_point import CONTRACTION_BOUND, moser_fixed_point
from .flow import moser_flow
from .maps import DensityFamily, MoserMap, build_moser_map


# smoothing attempts after the first, each at half the previous width
_RETRIES = 3


def _static_flow(f_nodal: np.ndarray, grid: ReferenceGrid, t: float) -> MoserMap:
    """Single-snapshot map via the flow of the linear interpolation 1 -> f."""
    interp = nodal_spline(grid, f_nodal)

    def f_s(s, pts):
        return 1.0 + s * (interp(pts) - 1.0)

    def df_s(s, pts):
        return interp(pts) - 1.0

    density = DensityFamily(f_s, df_s)
    mm = moser_flow(density, grid, [0.0, 1.0])[-1]
    return build_moser_map(grid, t, mm.values, mm.inverse_values, f_nodal,
                           method="static_flow")


def _gaussian_matrix(n: int, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter1d(mode="nearest")`` as an n x n matrix:
    the sampled Gaussian (Lindeberg, *Scale-Space Theory*, 1994), cut at 4 sigma."""
    offsets = np.arange(-int(4.0 * sigma + 0.5), int(4.0 * sigma + 0.5) + 1)
    weights = np.exp(-0.5 / sigma ** 2 * offsets ** 2)
    G, rows = np.zeros((n, n)), np.arange(n)[:, None]
    np.add.at(G, (rows, np.clip(rows + offsets, 0, n - 1)), weights / weights.sum())
    return G


class _SmoothedDensity:
    """Gaussian-smoothed, average-normalized view of a density family.

    It keeps the nodal f1 and df1 of the latest time read only: the flow
    reads both at each stage time back to back, in schedule order.
    """

    def __init__(self, density: DensityFamily, grid: ReferenceGrid, width: float):
        self.density = density
        self.grid = grid
        self._gauss = [_gaussian_matrix(n, width / s)
                       for n, s in zip(grid.shape, grid.spacing)]
        self._t = None
        self._latest = None

    def _smooth(self, nodal: np.ndarray) -> np.ndarray:
        out = self.grid.reshape(nodal)
        for a, G in enumerate(self._gauss):
            out = np.moveaxis(np.tensordot(G, out, axes=(1, a)), 0, a)
        return out.reshape(-1)

    def _entry(self, t: float):
        if t != self._t:
            w, meas = self.grid.weights, self.grid.measure
            s = self._smooth(self.density(t, self.grid.nodes))
            ds = self._smooth(self.density.rate(t, self.grid.nodes))
            total, dtotal = float(np.sum(w * s)), float(np.sum(w * ds))
            c = meas / total
            dc = -meas * dtotal / total ** 2
            f1 = c * s
            df1 = dc * s + c * ds
            self._t, self._latest = t, [f1, df1, None]
        return self._latest

    def _read(self, t: float, pts, channel: int) -> np.ndarray:
        """f1 (channel 0) or df1 (channel 1) at `pts`.

        A read at the grid's own node array returns the nodal samples; the
        spline of both channels is built only for the first read elsewhere.
        """
        entry = self._entry(t)
        if pts is self.grid.nodes:
            return entry[channel]
        if entry[2] is None:
            entry[2] = nodal_spline(self.grid, np.stack(entry[:2], axis=-1))
        return entry[2](pts)[:, channel]

    def family(self) -> DensityFamily:
        return DensityFamily(lambda t, pts: self._read(t, pts, 0),
                             lambda t, pts: self._read(t, pts, 1))


def moser_combined(density: DensityFamily, grid: ReferenceGrid, time_samples):
    """Maps with det D phi(t) = f(t) for densities of any admissible size.

    The first smoothing width is two grid spacings.
    """
    time_samples = [float(t) for t in time_samples]
    if not time_samples:
        raise InvalidInputError("moser_combined needs at least one time sample")
    density.validate(grid, time_samples)
    t0 = time_samples[0]

    last_failure = "no attempt"
    for attempt in range(_RETRIES + 1):
        width = 2.0 * grid.min_spacing * 0.5 ** attempt
        f1 = _SmoothedDensity(density, grid, width).family()
        f1_t0 = f1(t0, grid.nodes)
        anchor = (None if np.max(np.abs(f1_t0 - 1.0)) <= 1e-12
                  else _static_flow(f1_t0, grid, t0))
        flow_maps = moser_flow(f1, grid, time_samples, anchor=anchor)

        maps, ok = [], True
        for tk, mm1 in zip(time_samples, flow_maps):
            q = mm1.inverse(grid.nodes)
            f2 = density(tk, q) / f1(tk, q)
            f2 *= grid.measure / float(np.sum(grid.weights * f2))
            dev = float(np.max(np.abs(f2 - 1.0)))
            if dev > CONTRACTION_BOUND:
                last_failure = (f"||f/f1 o phi1^-1 - 1|| = {dev:.3g} at t={tk} "
                                f"(width {width:.3g})")
                ok = False
                break
            try:
                mm2 = moser_fixed_point(f2, grid, t=tk)
            except ContractionBoundExceededError as exc:
                last_failure = str(exc)
                ok = False
                break
            values = mm2(mm1.values)
            inverse_values = mm1.inverse(mm2.inverse_values)
            maps.append(build_moser_map(
                grid, tk, values, inverse_values, density(tk, grid.nodes),
                method="combined", iterations=mm2.iterations))
        if ok:
            return maps
    raise PipelineFailedError(
        f"combined pipeline failed after {_RETRIES + 1} attempts: {last_failure}")


@dataclass(frozen=True, kw_only=True)
class NormalizedFamily(DiffeoFamily):
    """Volume-normalized family, with the data it was built from.

    ``moser_maps`` are the correction maps at the sample times,
    ``base_family`` is the family h that was normalized, and
    ``volume_ratio(t)`` is meas(Omega(t)) / meas(Omega0).
    """

    moser_maps: list
    base_family: DiffeoFamily
    volume_ratio: Callable


def _volume_density(family: DiffeoFamily, grid: ReferenceGrid):
    """The density f = meas0 det J(t, .) / vol(t) of a family, and vol.

    With L = d/dt log det J, the rate of f is f (L - dvol/vol).  vol and
    dvol are node quadratures of det J and det J L.  The nodal (det J, L)
    and the quadratures of the latest time read are kept: the smoothed
    density reads f and its rate at one time back to back, and a read at
    any other time recomputes them.
    """
    meas0 = grid.measure
    latest = [None, None]

    def arrays(t):
        if t != latest[0]:
            det, log_rate = det_and_log_derivative(family, t, grid.nodes)
            latest[:] = t, (det, log_rate,
                            float(np.sum(grid.weights * det)),
                            float(np.sum(grid.weights * det * log_rate)))
        return latest[1]

    def f_eval(t, pts):
        det, _, vol, _ = arrays(t)
        if pts is not grid.nodes:
            det = smallmat.det(family.jacobian_matrix(t, pts))
        return meas0 / vol * det

    def f_rate(t, pts):
        det, log_rate, vol, dvol = arrays(t)
        if pts is not grid.nodes:
            det, log_rate = det_and_log_derivative(family, t, pts)
        return meas0 / vol * det * (log_rate - dvol / vol)

    return DensityFamily(f_eval, f_rate), lambda t: arrays(t)[2]


def normalize_diffeo(family: DiffeoFamily, grid: ReferenceGrid,
                     time_samples) -> NormalizedFamily:
    """Reparametrize a family so its Jacobian determinant is constant in space.

    Returns h-tilde = h o phi^{-1} with det D h-tilde(t, .) equal to the
    volume ratio meas(Omega(t)) / meas(Omega0) up to the recorded residuals.
    The returned family is sampled at `time_samples` and interpolates the
    correction map piecewise-linearly in time between them.
    """
    time_samples = [float(t) for t in time_samples]
    density, volume = _volume_density(family, grid)
    maps = moser_combined(density, grid, time_samples)

    # one spline per direction; its channels are the sample maps
    inv_spline = nodal_spline(grid, np.stack([m.inverse_values for m in maps], -1))
    fwd_spline = nodal_spline(grid, np.stack([m.values for m in maps], -1))
    samples = np.asarray(time_samples)
    hats = np.eye(len(samples))

    def _blend(t, spline, pts):
        """The sample maps interpolated piecewise-linearly in time (a float
        or an array of times that broadcasts to the points)."""
        weights = np.stack([np.interp(t, samples, hat) for hat in hats], axis=-1)
        return np.sum(spline(pts) * np.expand_dims(weights, -2), axis=-1)

    def new_map(t, y):
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        out = family.map(t, _blend(t, inv_spline, pts))
        return out.reshape(np.asarray(y, dtype=float).shape)

    inverse = None
    if family.inverse is not None:
        def inverse(t, x):
            pts = np.atleast_2d(np.asarray(family.inverse(t, x), dtype=float))
            out = _blend(t, fwd_spline, pts)
            return out.reshape(np.asarray(x, dtype=float).shape)

    return NormalizedFamily(
        map=new_map,
        jacobian=box_fd_jacobian(new_map, grid.bounds, grid.min_spacing / 8.0),
        inverse=inverse,
        window=(samples[0], samples[-1]),
        name=f"{family.name}/volume-normalized",
        moser_maps=maps,
        base_family=family,
        volume_ratio=lambda t: volume(t) / grid.measure,
    )
