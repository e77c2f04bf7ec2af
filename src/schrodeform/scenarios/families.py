"""Closed-form diffeomorphism families used by the built-in scenarios.

Every constructor returns a :class:`DiffeoFamily` with analytic map,
velocity, Jacobian, Jacobian time-derivative and inverse, so no
finite-difference fallbacks are exercised on the standard paths.  Like
every family evaluator, each takes ``t`` as a float or as an array that
broadcasts to the points' leading shape.
"""

from __future__ import annotations

import numpy as np

from ..geometry import smallmat
from ..geometry.diffeo import DiffeoFamily, identity_family


def _asfloat(y):
    return np.asarray(y, dtype=float)


def _path_values(path, t):
    """``path(t)`` as ``t.shape + (dim,)`` for a path written for scalar times."""
    if np.ndim(t) == 0:
        return np.atleast_1d(np.asarray(path(t), dtype=float))
    t = np.asarray(t, dtype=float)
    values = [np.atleast_1d(np.asarray(path(s), dtype=float)) for s in t.flat]
    return np.reshape(values, t.shape + values[0].shape)


def _time_values(funcs, t):
    """Scalar functions of t stacked on a last axis, ``t.shape + (len(funcs),)``."""
    return np.stack([np.broadcast_to(np.asarray(f(t), dtype=float), np.shape(t))
                     for f in funcs], axis=-1)


def translation_family(path, velocity, dim: int = 1,
                       window=(0.0, 1.0)) -> DiffeoFamily:
    """h(t, y) = y + D(t) for a smooth displacement path D.

    ``path`` and ``velocity`` take scalar times; an array of times is
    evaluated one time at a time.
    """
    rigid = identity_family(dim)
    return DiffeoFamily(
        map=lambda t, y: _asfloat(y) + _path_values(path, t),
        dmap_dt=lambda t, y: np.broadcast_to(_path_values(velocity, t),
                                             _asfloat(y).shape).copy(),
        jacobian=rigid.jacobian,
        jacobian_dt=rigid.jacobian_dt,
        inverse=lambda t, x: _asfloat(x) - _path_values(path, t),
        window=window,
        name="translation",
    )


def rotation_family(omega: float, window=(0.0, 1.0)) -> DiffeoFamily:
    """Rigid rotation of the plane with angular speed omega."""

    def matrix(rows, y):
        out = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
        return np.broadcast_to(out, _asfloat(y).shape[:-1] + (2, 2)).copy()

    def rot(t, y):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return matrix([[c, -s], [s, c]], y)

    def drot(t, y):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return omega * matrix([[-s, -c], [c, -s]], y)

    def apply(M, y):
        return smallmat.matmul(M, _asfloat(y)[..., None])[..., 0]

    return DiffeoFamily(
        map=lambda t, y: apply(rot(t, y), y),
        dmap_dt=lambda t, y: apply(drot(t, y), y),
        jacobian=rot,
        jacobian_dt=drot,
        inverse=lambda t, x: apply(np.swapaxes(rot(t, x), -1, -2), x),
        window=window,
        name="rotation",
    )


def diagonal_family(scales, dscales, window=(0.0, 1.0),
                    name: str = "diagonal") -> DiffeoFamily:
    """h(t, y) = (f_i(t) y_i) for positive scale functions f_i."""
    dim = len(scales)

    def diagonal(funcs):
        def evaluate(t, y):
            out = np.zeros(_asfloat(y).shape[:-1] + (dim, dim))
            f = _time_values(funcs, t)
            for i in range(dim):
                out[..., i, i] = f[..., i]
            return out
        return evaluate

    return DiffeoFamily(
        map=lambda t, y: _asfloat(y) * _time_values(scales, t),
        dmap_dt=lambda t, y: _asfloat(y) * _time_values(dscales, t),
        jacobian=diagonal(scales),
        jacobian_dt=diagonal(dscales),
        inverse=lambda t, x: _asfloat(x) / _time_values(scales, t),
        window=window,
        name=name,
    )


def interval_family(length, dlength, window=(0.0, 1.0)) -> DiffeoFamily:
    """Moving interval (0, l(t)) as the 1D diagonal family h = l(t) y."""
    return diagonal_family((length,), (dlength,), window=window,
                           name="moving_interval")


def homothety_family(scale, dscale, dim: int = 1,
                     window=(0.0, 1.0)) -> DiffeoFamily:
    """Equal scaling of every axis, h(t, y) = f(t) y."""
    return diagonal_family((scale,) * dim, (dscale,) * dim, window=window,
                           name="homothety")


def warped_2d_family(a: float = 0.2, b: float = 0.3, c: float = 0.1,
                     window=(0.0, 1.0)) -> DiffeoFamily:
    """Smooth non-volume-preserving planar family with varying det J.

    h(t, y) = (y1 + t [a y1(1-y1) + c sin(pi y1) y2 (1-y2)], (1+bt) y2)
    """

    def split(y):
        y = _asfloat(y)
        return y[..., 0], y[..., 1]

    def warp(t, y1, y2):
        return a * y1 * (1 - y1) + c * np.sin(np.pi * y1) * y2 * (1 - y2)

    def fmap(t, y):
        y1, y2 = split(y)
        return np.stack([y1 + t * warp(t, y1, y2), (1 + b * t) * y2], axis=-1)

    def vel(t, y):
        y1, y2 = split(y)
        return np.stack([warp(t, y1, y2), b * y2], axis=-1)

    def jac(t, y):
        y1, y2 = split(y)
        out = np.zeros(y1.shape + (2, 2))
        out[..., 0, 0] = 1 + t * (a * (1 - 2 * y1)
                                  + c * np.pi * np.cos(np.pi * y1) * y2 * (1 - y2))
        out[..., 0, 1] = t * c * np.sin(np.pi * y1) * (1 - 2 * y2)
        out[..., 1, 1] = 1 + b * t
        return out

    def djac(t, y):
        y1, y2 = split(y)
        out = np.zeros(y1.shape + (2, 2))
        out[..., 0, 0] = (a * (1 - 2 * y1)
                          + c * np.pi * np.cos(np.pi * y1) * y2 * (1 - y2))
        out[..., 0, 1] = c * np.sin(np.pi * y1) * (1 - 2 * y2)
        out[..., 1, 1] = b
        return out

    return DiffeoFamily(
        map=fmap,
        dmap_dt=vel,
        jacobian=jac,
        jacobian_dt=djac,
        window=window,
        name="warped2d",
    )


def stretch_warp_family(alpha: float = 0.3, b: float = 0.3,
                        window=(0.0, 1.0)) -> DiffeoFamily:
    """Non-volume-preserving planar family with spatially varying det J.

    h(t, y) = (y1 + t a P(y1) sin(2 pi y2), (1 + b t) y2) with
    P(y) = (1 - cos(2 pi y)) / (2 pi), so det J = (1+bt)(1 + t a s1 s2)
    equals its spatial average at the four corners (the corner compatibility
    that a square reference domain demands of prescribed determinants).
    """

    def parts(y):
        y = _asfloat(y)
        return y[..., 0], y[..., 1]

    def fmap(t, y):
        y1, y2 = parts(y)
        P = (1.0 - np.cos(2 * np.pi * y1)) / (2 * np.pi)
        return np.stack([y1 + t * alpha * P * np.sin(2 * np.pi * y2),
                         (1 + b * t) * y2], axis=-1)

    def vel(t, y):
        y1, y2 = parts(y)
        P = (1.0 - np.cos(2 * np.pi * y1)) / (2 * np.pi)
        return np.stack([alpha * P * np.sin(2 * np.pi * y2), b * y2], axis=-1)

    def jac(t, y):
        y1, y2 = parts(y)
        P = (1.0 - np.cos(2 * np.pi * y1)) / (2 * np.pi)
        out = np.zeros(y1.shape + (2, 2))
        out[..., 0, 0] = 1 + t * alpha * np.sin(2 * np.pi * y1) * np.sin(2 * np.pi * y2)
        out[..., 0, 1] = t * alpha * P * 2 * np.pi * np.cos(2 * np.pi * y2)
        out[..., 1, 1] = 1 + b * t
        return out

    def djac(t, y):
        y1, y2 = parts(y)
        P = (1.0 - np.cos(2 * np.pi * y1)) / (2 * np.pi)
        out = np.zeros(y1.shape + (2, 2))
        out[..., 0, 0] = alpha * np.sin(2 * np.pi * y1) * np.sin(2 * np.pi * y2)
        out[..., 0, 1] = alpha * P * 2 * np.pi * np.cos(2 * np.pi * y2)
        out[..., 1, 1] = b
        return out

    return DiffeoFamily(map=fmap, dmap_dt=vel, jacobian=jac, jacobian_dt=djac,
                        window=window, name="stretch_warp")


def smoothstep(x):
    """C^2 ramp: 0 -> 1 on [0, 1] with vanishing first derivatives at the ends."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)


def smoothstep_d(x):
    x = np.asarray(x, dtype=float)
    out = np.where((x > 0.0) & (x < 1.0), 30.0 * x ** 2 * (1.0 - x) ** 2, 0.0)
    return out if out.ndim else float(out)


def ramp_interval_family(l0: float, l1: float, window=(0.0, 1.0)) -> DiffeoFamily:
    """Interval length sweeping l0 -> l1 along a C^2 ramp over the window."""
    t0, t1 = window
    span = t1 - t0

    def length(t):
        return l0 + (l1 - l0) * smoothstep((t - t0) / span)

    def dlength(t):
        return (l1 - l0) * smoothstep_d((t - t0) / span) / span

    return interval_family(length, dlength, window=window)
