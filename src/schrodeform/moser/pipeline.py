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
from scipy.ndimage import gaussian_filter

from ..errors import ContractionBoundExceededError, PipelineFailedError
from ..geometry import smallmat
from ..geometry.diffeo import (DiffeoFamily, box_fd_jacobian,
                               det_and_log_derivative)
from ..geometry.grid import ReferenceGrid
from ..geometry.interp import nodal_spline
from .fixed_point import moser_fixed_point
from .flow import moser_flow
from .maps import DensityFamily, MoserMap, build_moser_map, identity_moser_map


def _static_flow(f_nodal: np.ndarray, grid: ReferenceGrid, t: float,
                 min_steps: int = 200) -> MoserMap:
    """Single-snapshot map via the flow of the linear interpolation 1 -> f."""
    interp = nodal_spline(grid, f_nodal)

    def f_s(s, pts):
        return 1.0 + s * (interp(pts) - 1.0)

    def df_s(s, pts):
        return interp(pts) - 1.0

    density = DensityFamily(f_s, df_s, window=(0.0, 1.0))
    mm = moser_flow(density, grid, [0.0, 1.0], min_steps=min_steps,
                    validate=False)[-1]
    return build_moser_map(grid, t, mm.values, mm.inverse_values, f_nodal,
                           method="static_flow")


class _SmoothedDensity:
    """Gaussian-smoothed, average-normalized view of a density family."""

    def __init__(self, density: DensityFamily, grid: ReferenceGrid, width: float):
        self.density = density
        self.grid = grid
        self.sigma = [width / s for s in grid.spacing]
        self._cache: dict = {}

    def _smooth(self, nodal: np.ndarray) -> np.ndarray:
        shaped = self.grid.reshape(nodal)
        return gaussian_filter(shaped, self.sigma, mode="nearest").reshape(-1)

    def _entry(self, t: float):
        key = round(float(t), 12)
        if key not in self._cache:
            w, meas = self.grid.weights, self.grid.measure
            s = self._smooth(self.density(t, self.grid.nodes))
            ds = self._smooth(self.density.rate(t, self.grid.nodes))
            total, dtotal = float(np.sum(w * s)), float(np.sum(w * ds))
            c = meas / total
            dc = -meas * dtotal / total ** 2
            f1 = c * s
            df1 = dc * s + c * ds
            # the bound holds peak memory down: keeping every stage entry
            # spares the flow's backward pass its rebuilds, but raised the
            # peak RSS of a 40x40 normalize_diffeo by 14% and saved little time
            if len(self._cache) > 64:
                self._cache.clear()
            # f1 and df1 are evaluated at different points, so two splines
            self._cache[key] = (f1, df1, nodal_spline(self.grid, f1),
                                nodal_spline(self.grid, df1))
        return self._cache[key]

    def nodal(self, t: float) -> np.ndarray:
        return self._entry(t)[0]

    def family(self) -> DensityFamily:
        def evaluator(t, pts):
            return self._entry(t)[2](np.atleast_2d(pts))

        def rate(t, pts):
            return self._entry(t)[3](np.atleast_2d(pts))

        return DensityFamily(evaluator, rate, window=self.density.window)


def moser_combined(density: DensityFamily, grid: ReferenceGrid, time_samples,
                   smoothing: float | None = None, tol: float = 1e-10,
                   max_iter: int = 60, contraction_bound: float = 0.1,
                   retries: int = 3, min_steps: int = 200,
                   validate: bool = True):
    """Maps with det D phi(t) = f(t) for densities of any admissible size."""
    time_samples = [float(t) for t in time_samples]
    if validate:
        density.validate(grid, time_samples)
    t0 = time_samples[0]
    width0 = smoothing if smoothing is not None else 2.0 * grid.min_spacing

    last_failure = "no attempt"
    for attempt in range(retries + 1):
        width = width0 * 0.5 ** attempt
        smooth = _SmoothedDensity(density, grid, width)
        f1_t0 = smooth.nodal(t0)
        if np.max(np.abs(f1_t0 - 1.0)) <= 1e-12:
            anchor = identity_moser_map(grid, t0)
        else:
            anchor = _static_flow(f1_t0, grid, t0, min_steps=min_steps)

        if len(time_samples) == 1:
            flow_maps = [anchor]
        else:
            flow_maps = moser_flow(smooth.family(), grid, time_samples,
                                   anchor=anchor, min_steps=min_steps,
                                   validate=False)

        maps, ok = [], True
        for tk, mm1 in zip(time_samples, flow_maps):
            q = mm1.inverse(grid.nodes)
            f2 = density(tk, q) / smooth.family()(tk, q)
            f2 *= grid.measure / float(np.sum(grid.weights * f2))
            dev = float(np.max(np.abs(f2 - 1.0)))
            if dev > contraction_bound:
                last_failure = (f"||f/f1 o phi1^-1 - 1|| = {dev:.3g} at t={tk} "
                                f"(width {width:.3g})")
                ok = False
                break
            try:
                mm2 = moser_fixed_point(f2, grid, tol=tol, max_iter=max_iter,
                                        contraction_bound=contraction_bound, t=tk)
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
        f"combined pipeline failed after {retries + 1} attempts: {last_failure}")


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
    dvol are node quadratures of det J and det J L, computed once per t.
    """
    meas0 = grid.measure
    cache: dict = {}

    def nodal(t):
        key = round(float(t), 12)
        if key not in cache:
            det, log_rate = det_and_log_derivative(family, t, grid.nodes)
            cache[key] = (float(np.sum(grid.weights * det)),
                          float(np.sum(grid.weights * det * log_rate)))
        return cache[key]

    def f_eval(t, pts):
        det = smallmat.det(family.jacobian_matrix(t, pts))
        return meas0 / nodal(t)[0] * det

    def f_rate(t, pts):
        det, log_rate = det_and_log_derivative(family, t, pts)
        vol, dvol = nodal(t)
        return meas0 / vol * det * (log_rate - dvol / vol)

    return (DensityFamily(f_eval, f_rate, window=family.window),
            lambda t: nodal(t)[0])


def normalize_diffeo(family: DiffeoFamily, grid: ReferenceGrid, time_samples,
                     **kwargs) -> NormalizedFamily:
    """Reparametrize a family so its Jacobian determinant is constant in space.

    Returns h-tilde = h o phi^{-1} with det D h-tilde(t, .) equal to the
    volume ratio meas(Omega(t)) / meas(Omega0) up to the recorded residuals.
    The returned family is sampled at `time_samples` and interpolates the
    correction map piecewise-linearly in time between them.
    """
    time_samples = [float(t) for t in time_samples]
    density, volume = _volume_density(family, grid)
    maps = moser_combined(density, grid, time_samples, **kwargs)

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
        fd_step=grid.min_spacing / 8.0,
        name=f"{family.name}/volume-normalized",
        moser_maps=maps,
        base_family=family,
        volume_ratio=lambda t: volume(t) / grid.measure,
    )
