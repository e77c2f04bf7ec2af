"""Gauge transformations removing the motion-induced magnetic potential.

When the pushed-forward velocity field is a gradient, multiplying states by
a unimodular phase removes the magnetic term entirely and leaves a scalar
potential; evolving the gauged state under that reduced equation must then
reproduce the full magnetic evolution up to a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GaugeIncompatibleError
from ..geometry.diffeo import DiffeoFamily
from ..geometry.fields import GridFunction

# relative bound on the compatibility residual GaugeSpec.check accepts
_COMPAT_TOL = 1e-10


@dataclass
class GaugeSpec:
    """Scalar phase phi(t, x) with its spatial gradient, both vectorized
    over image points x of shape (..., dim)."""

    phase: Callable
    grad: Callable

    def compatibility_residual(self, family: DiffeoFamily, t: float,
                               pts: np.ndarray) -> float:
        """max |dh/dt - 2 grad phi(h(y))| over the given reference points."""
        vel = np.asarray(family.velocity(t, pts), dtype=float)
        x = np.asarray(family.map(t, pts), dtype=float)
        g = np.asarray(self.grad(t, x), dtype=float)
        return float(np.max(np.abs(vel - 2.0 * g)))

    def check(self, family: DiffeoFamily, t: float, pts: np.ndarray) -> None:
        res = self.compatibility_residual(family, t, pts)
        vel = np.asarray(family.velocity(t, pts), dtype=float)
        scale = max(1.0, float(np.max(np.abs(vel))))
        if not res <= _COMPAT_TOL * scale:      # a NaN residual fails too
            raise GaugeIncompatibleError(
                f"gauge does not rectify the motion field: residual {res:.3e}")


def apply_gauge(v: GridFunction, gauge: GaugeSpec, family: DiffeoFamily,
                t: float) -> GridFunction:
    """w = h# e^{-i phi} h#^{-1} v: multiply by the pulled unimodular phase."""
    grid = v.grid
    gauge.check(family, t, grid.nodes)
    x = np.asarray(family.map(t, grid.nodes), dtype=float)
    phases = np.exp(-1j * np.asarray(gauge.phase(t, x), dtype=complex))
    return GridFunction(grid, phases * v.values)


def fidelity(a: GridFunction, b: GridFunction) -> float:
    """|<a, b>| / (||a|| ||b||): phase-free state agreement."""
    return abs(a.inner(b)) / (a.norm() * b.norm())
