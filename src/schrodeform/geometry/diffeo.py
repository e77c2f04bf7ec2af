"""Time-dependent diffeomorphism families and their Jacobian data.

A family is a map ``h(t, y)`` from the closed reference domain onto the
closed moving domain, together with its time derivative and spatial
Jacobian.  Evaluators are vectorized over points and times: ``y`` has shape
``(..., dim)`` and ``t`` is a float or an array that broadcasts to
``y.shape[:-1]`` (one time per point, so one call can evaluate several time
slices stacked along a leading axis).  The map returns the shape of ``y``;
the Jacobian returns ``(..., dim, dim)`` with ``J[..., i, j] = d h_i / d y_j``.

Analytic derivative evaluators are preferred; anything missing falls back
to central finite differences with a configurable step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import DegenerateJacobianError, InverseUnavailableError
from . import smallmat


@dataclass(frozen=True)
class JacobianData:
    """Jacobian matrix of a map at one point, with derived quantities."""

    matrix: np.ndarray
    det: float
    inv: np.ndarray
    inv_t: np.ndarray


@dataclass(frozen=True)
class DiffeoFamily:
    """Family of diffeomorphisms ``h(t, .)`` with derivative evaluators."""

    map: Callable
    dmap_dt: Optional[Callable] = None
    jacobian: Optional[Callable] = None
    jacobian_dt: Optional[Callable] = None
    inverse: Optional[Callable] = None
    window: Tuple[float, float] = (0.0, 1.0)
    fd_step: float = 1e-6
    fd_step_t: float = 1e-6
    name: str = "family"

    def check_time(self, t) -> None:
        """Raise ValueError naming the first time (scalar) outside the window."""
        lo, hi = self.window
        tol = 1e-12 * max(1.0, abs(hi - lo))
        t = np.asarray(t, dtype=float)
        # written so that a NaN time fails the guard
        inside = (lo - tol <= t) & (t <= hi + tol)
        if not inside.all():
            bad = float(t[~inside].flat[0])
            raise ValueError(f"t={bad} outside validity window {self.window}")

    def _fd_times(self, t):
        """Central-difference probe times, clipped to the window."""
        dt = self.fd_step_t
        lo, hi = self.window
        tp, tm = np.minimum(t + dt, hi), np.maximum(t - dt, lo)
        return tp, tm, np.asarray(tp - tm)

    def velocity(self, t, y: np.ndarray) -> np.ndarray:
        """Time derivative of the map at fixed reference points."""
        if self.dmap_dt is not None:
            return np.asarray(self.dmap_dt(t, y), dtype=float)
        tp, tm, span = self._fd_times(t)
        return ((np.asarray(self.map(tp, y)) - np.asarray(self.map(tm, y)))
                / span[..., None])

    def jacobian_matrix(self, t, y: np.ndarray) -> np.ndarray:
        """Spatial Jacobian, shape (..., dim, dim)."""
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, y), dtype=float)
        y = np.asarray(y, dtype=float)
        dim = y.shape[-1]
        cols = []
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = self.fd_step
            cols.append((np.asarray(self.map(t, y + e))
                         - np.asarray(self.map(t, y - e))) / (2 * self.fd_step))
        return np.stack(cols, axis=-1)

    def jacobian_matrix_dt(self, t, y: np.ndarray) -> np.ndarray:
        """Time derivative of the Jacobian, analytic or central FD."""
        if self.jacobian_dt is not None:
            return np.asarray(self.jacobian_dt(t, y), dtype=float)
        tp, tm, span = self._fd_times(t)
        return ((self.jacobian_matrix(tp, y) - self.jacobian_matrix(tm, y))
                / span[..., None, None])

    def inverse_map(self, t: float, x: np.ndarray,
                    seed: Optional[np.ndarray] = None,
                    tol: float = 1e-12, maxiter: int = 60) -> np.ndarray:
        """Evaluate h^{-1}(t, x), by evaluator or Newton iteration."""
        if self.inverse is not None:
            return np.asarray(self.inverse(t, x), dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = x.copy() if seed is None else np.atleast_2d(np.asarray(seed, float)).copy()
        for _ in range(maxiter):
            res = np.asarray(self.map(t, y)) - x
            if np.max(np.abs(res)) <= tol:
                break
            y -= smallmat.solve(self.jacobian_matrix(t, y), res)
        else:
            raise InverseUnavailableError(
                f"Newton inversion did not converge at t={t}")
        return y

    def frozen(self, t: float, name: Optional[str] = None) -> "DiffeoFamily":
        """Snapshot of the map at time t as a motionless family."""
        t0 = float(t)
        return DiffeoFamily(
            map=lambda s, y: self.map(t0, y),
            dmap_dt=lambda s, y: np.zeros_like(np.asarray(y, dtype=float)),
            jacobian=(None if self.jacobian is None
                      else (lambda s, y: self.jacobian(t0, y))),
            jacobian_dt=lambda s, y: _zero_matrix_like(y),
            inverse=(None if self.inverse is None
                     else (lambda s, x: self.inverse(t0, x))),
            window=(min(0.0, t0), max(1.0, t0)),
            fd_step=self.fd_step,
            name=name or f"{self.name}@t={t0:g}",
        )


def _zero_matrix_like(y):
    y = np.asarray(y, dtype=float)
    dim = y.shape[-1]
    return np.zeros(y.shape[:-1] + (dim, dim))


def box_fd_jacobian(map_func, bounds, step: float):
    """Finite-difference Jacobian evaluator for maps defined on a closed box.

    Centered second-order differences in the interior, switching to one-sided
    second-order stencils where a probe would leave the box (maps backed by
    interpolants are not evaluable outside the closure).  An array ``t`` is
    masked together with the points, so each probe keeps its own time.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    dim = len(bounds)

    def jac(t, y):
        y = np.asarray(y, dtype=float)
        shape = y.shape[:-1]
        y = y.reshape(-1, dim)
        t = np.broadcast_to(t, shape).reshape(-1) if np.ndim(t) else t

        def at(mask, pts):
            return np.asarray(map_func(t if np.ndim(t) == 0 else t[mask], pts))

        f0 = np.asarray(map_func(t, y), dtype=float)
        cols = []
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            can_m = y[:, j] - step >= lo[j] - 1e-14
            can_p = y[:, j] + step <= hi[j] + 1e-14
            col = np.empty_like(f0)
            mask_c = can_m & can_p
            if np.any(mask_c):
                pts = y[mask_c]
                col[mask_c] = (at(mask_c, pts + e) - at(mask_c, pts - e)) / (2 * step)
            mask_f = ~can_m
            if np.any(mask_f):
                pts = y[mask_f]
                col[mask_f] = (-3.0 * f0[mask_f] + 4.0 * at(mask_f, pts + e)
                               - at(mask_f, pts + 2 * e)) / (2 * step)
            mask_b = can_m & ~can_p
            if np.any(mask_b):
                pts = y[mask_b]
                col[mask_b] = (3.0 * f0[mask_b] - 4.0 * at(mask_b, pts - e)
                               + at(mask_b, pts - 2 * e)) / (2 * step)
            cols.append(col)
        return np.stack(cols, axis=-1).reshape(shape + (dim, dim))

    return jac


def identity_family(dim: int, window=(0.0, 1.0)) -> DiffeoFamily:
    def eye(t, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1] + (dim, dim))
        for i in range(dim):
            out[..., i, i] = 1.0
        return out

    return DiffeoFamily(
        map=lambda t, y: np.asarray(y, dtype=float).copy(),
        dmap_dt=lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
        jacobian=eye,
        jacobian_dt=lambda t, y: _zero_matrix_like(y),
        inverse=lambda t, x: np.asarray(x, dtype=float).copy(),
        window=window,
        name="identity",
    )


def jacobian_at(family: DiffeoFamily, t: float, y: np.ndarray) -> JacobianData:
    """Jacobian bundle at one point; raises on non-positive determinant."""
    J, det, inv = jacobian_field(family, t, np.asarray(y, dtype=float)[None])
    return JacobianData(J[0], float(det[0]), inv[0], inv[0].T.copy())


def jacobian_field(family: DiffeoFamily, t, pts: np.ndarray):
    """Vectorized (J, det, J^{-1}) over many points; det must stay positive.

    ``t`` is a float or an array of times that broadcasts to the points; the
    error names the scalar time and the point of the first entry, in
    row-major order (so the earliest row of a time stack), where det J fails.
    """
    family.check_time(t)
    J = family.jacobian_matrix(t, pts)
    det = smallmat.det(J)
    # written so that a NaN determinant fails the guard
    failed = ~(det > 0.0)
    if failed.any():
        k = int(np.argmax(failed))
        pts = np.asarray(pts, dtype=float)
        point = np.broadcast_to(pts, det.shape + pts.shape[-1:]).reshape(
            -1, pts.shape[-1])[k]
        raise DegenerateJacobianError(float(np.broadcast_to(t, det.shape).flat[k]),
                                      point, float(det.flat[k]))
    return J, det, smallmat.inv(J)


def validate_family(family: DiffeoFamily, grid, times, inverse_tol: float = 1e-8) -> None:
    """Check the family invariants on the grid nodes at the given times.

    Raises DegenerateJacobianError if det J is not positive everywhere, and
    ValueError if a supplied inverse fails the round-trip bound.
    """
    for t in times:
        jacobian_field(family, t, grid.nodes)
        if family.inverse is not None:
            x = np.asarray(family.map(t, grid.nodes), dtype=float)
            back = np.asarray(family.inverse(t, x), dtype=float)
            err = float(np.max(np.abs(back - grid.nodes)))
            if err > inverse_tol:
                raise ValueError(
                    f"inverse round-trip error {err:.3e} > {inverse_tol:g} at t={t}")


def jacobian_log_derivative(family: DiffeoFamily, t: float, y: np.ndarray):
    """d/dt log|det J| = Tr(J^{-1} dJ/dt), vectorized over points."""
    out = det_and_log_derivative(family, t, y)[1]
    return out if out.shape else float(out)


def det_and_log_derivative(family: DiffeoFamily, t: float, y: np.ndarray):
    """(det J, Tr(J^{-1} dJ/dt)) over points, from one Jacobian evaluation."""
    y = np.asarray(y, dtype=float)
    _, det, Jinv = jacobian_field(family, t, y)
    return det, np.einsum("...ij,...ji->...", Jinv,
                          family.jacobian_matrix_dt(t, y))
