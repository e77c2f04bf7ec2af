"""Canonical moving-domain scenarios and their reduced twin formulations.

Each scenario bundles a diffeomorphism family with coefficients, a boundary
realization, an initial-state recipe, and (where the motion field is a
gradient) a gauge plus the gauge-reduced equation, so the full magnetic
evolution can be cross-validated against an independent formulation of the
same dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import NonMonotoneReparametrizationError
from ..geometry.diffeo import DiffeoFamily, identity_family
from ..geometry.grid import ReferenceGrid
from ..operators import (
    DIRICHLET,
    MAGNETIC_NEUMANN,
    CoefficientSet,
    assemble_form,
    assemble_hamiltonian,
    _conjugate_and_restrict,
    free_coefficients,
    isotropic_coefficients,
)
from ..geometry.stencils import face_coords, face_weights
from ..geometry.diffeo import jacobian_field
from ..propagator import PropagatorConfig, evolve
from .families import (
    _path_values,
    homothety_family,
    interval_family,
    ramp_interval_family,
    rotation_family,
    translation_family,
)
from .gauge import GaugeSpec, apply_gauge, fidelity
from .spectral import spectral_projector


@dataclass
class ReducedFormulation:
    """Gauge-simplified twin equation on the fixed domain.

    The reduced dynamics run in the clock ``tau = time_map(t)`` with the
    identity family and the given coefficients; ``phase_rate`` is the rate of
    the stripped space-independent phase (recorded, never applied: fidelity
    metrics are phase-free).
    """

    coeffs: CoefficientSet
    time_map: Callable = lambda t: t
    phase_rate: Optional[Callable] = None


@dataclass(frozen=True)
class ScenarioDef:
    """A runnable moving-domain configuration."""

    name: str
    dim: int
    family: DiffeoFamily
    coeffs: CoefficientSet
    bc: str
    make_grid: Callable
    initial_state: int | Callable = 0
    observables: tuple = (0,)
    gauge: Optional[GaugeSpec] = None
    reduced: Optional[ReducedFormulation] = None
    self_test: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def grid(self, cells: int) -> ReferenceGrid:
        return self.make_grid(cells)

    def build_initial(self, grid: ReferenceGrid, t: float | None = None):
        """Initial state: eigenstate index of the frozen generator, or samples."""
        t0 = self.family.window[0] if t is None else t
        if callable(self.initial_state):
            return self.initial_state(grid)
        frozen = self.family.frozen(t0)
        H = assemble_hamiltonian(frozen, free_coefficients(grid.dim), t0,
                                 grid, self.bc)
        branch = spectral_projector(H, int(self.initial_state))
        return branch.eigenvector

    def reference_states(self, grid: ReferenceGrid, t: float | None = None):
        t0 = self.family.window[0] if t is None else t
        frozen = self.family.frozen(t0)
        H = assemble_hamiltonian(frozen, free_coefficients(grid.dim), t0,
                                 grid, self.bc)
        return [spectral_projector(H, k).eigenvector for k in self.observables]


# -- scenario constructors ----------------------------------------------------

def moving_interval_scenario(l0: float = 1.0, l1: float = 1.5,
                             window=(0.0, 1.0), smooth: bool = False,
                             bc: str = DIRICHLET) -> ScenarioDef:
    """Interval (0, l(t)) with linear or C^2-ramped length sweep l0 -> l1."""
    if smooth:
        fam = ramp_interval_family(l0, l1, window)
    else:
        rate = (l1 - l0) / (window[1] - window[0])
        fam = interval_family(lambda t: l0 + rate * (t - window[0]),
                              lambda t: rate, window=window)
    return ScenarioDef(
        name="moving_interval", dim=1, family=fam,
        coeffs=free_coefficients(1), bc=bc,
        make_grid=ReferenceGrid.interval,
        metadata={"l0": l0, "l1": l1, "smooth": smooth},
    )


def translation_scenario(path=None, velocity=None, accel=None,
                         dim: int = 1, window=(0.0, 1.0)) -> ScenarioDef:
    """Translated domain h = y + D(t); default path D(t) = t^2/2 along axis 1.

    Gauge phi = (1/2) <D'(t) | x> (the compatibility identity
    2 grad phi = h_* dh/dt forces the derivative of the path here);
    reduced equation: -Lap + (1/2) <D''(t) | y>.
    """
    path_name = "t^2/2" if path is None else "custom"
    if path is None:
        path = lambda t: np.array([t ** 2 / 2] + [0.0] * (dim - 1))
        velocity = lambda t: np.array([t] + [0.0] * (dim - 1))
        accel = lambda t: np.array([1.0] + [0.0] * (dim - 1))
    if velocity is None or accel is None:
        raise ValueError("translation scenario needs velocity and accel paths")
    fam = translation_family(path, velocity, dim=dim, window=window)

    def vvec(t):
        return _path_values(velocity, t)

    def avec(t):
        return _path_values(accel, t)

    gauge = GaugeSpec(
        phase=lambda t, x: 0.5 * np.asarray(x) @ vvec(t),
        grad=lambda t, x: np.broadcast_to(0.5 * vvec(t),
                                          np.asarray(x).shape).copy(),
        d_dt=lambda t, x: 0.5 * np.asarray(x) @ avec(t),
    )
    reduced = ReducedFormulation(
        coeffs=isotropic_coefficients(
            dim, electric=lambda t, x: 0.5 * np.sum(np.asarray(x) * avec(t), axis=-1)),
        time_map=lambda t: t,
        phase_rate=lambda t: 0.5 * float(avec(t) @ np.atleast_1d(path(t)))
        + 0.25 * float(vvec(t) @ vvec(t)),
    )
    make_grid = (ReferenceGrid.interval if dim == 1
                 else lambda n: ReferenceGrid.rectangle(n))
    return ScenarioDef(
        name="translation", dim=dim, family=fam,
        coeffs=free_coefficients(dim), bc=DIRICHLET, make_grid=make_grid,
        gauge=gauge, reduced=reduced,
        metadata={"path": path_name},
    )


def rotation_magnetic_coefficients(omega: float) -> CoefficientSet:
    """Fixed-frame coefficients of the rotating domain, on the reference.

    The magnetic-square form -(grad - i w/2 y_perp)^2 - w^2 |y|^2 / 4:
    A = -(w/2) y_perp and V = -w^2 |y|^2 / 4 with the identity family.
    """

    def a_field(t, y):
        y = np.asarray(y, dtype=float)
        perp = np.stack([-y[..., 1], y[..., 0]], axis=-1)
        return -(omega / 2.0) * perp

    def v_field(t, y):
        y = np.asarray(y, dtype=float)
        return -(omega ** 2 / 4.0) * (y[..., 0] ** 2 + y[..., 1] ** 2)

    return isotropic_coefficients(2, electric=v_field, magnetic=a_field)


def rotation_scenario(omega: float = 1.0, window=(0.0, 1.0)) -> ScenarioDef:
    """Rotating planar domain (centered square reference).

    Its self-test compares two equivalent fixed-domain assemblies: the
    transport form (-Lap + i w <y_perp | grad .>, symmetrized) and the
    magnetic-square form of :func:`rotation_magnetic_coefficients`; because
    the rotation generator is divergence-free the two matrices are identical.
    """
    fam = rotation_family(omega, window=window)
    magnetic_coeffs = rotation_magnetic_coefficients(omega)

    def make_grid(n):
        return ReferenceGrid.rectangle(n, ((-0.5, 0.5), (-0.5, 0.5)))

    def self_test(cells: int = 64, t: float = 0.0) -> dict:
        grid = make_grid(cells)
        fam_id = identity_family(2, window)
        Hm = assemble_hamiltonian(fam_id, magnetic_coeffs, t, grid, DIRICHLET)
        # transport form -div grad + (i w / 2)(b . grad - div(b .)) with
        # b = y_perp, through the same face machinery as the magnetic assembly
        diag_metric, cross_vector = [], []
        for a in range(2):
            pts = face_coords(grid, a)
            _, det_f, _ = jacobian_field(fam_id, t, pts)
            mu = face_weights(grid, a) * det_f
            diag_metric.append(mu * 1.0)
            cross_vector.append(mu * magnetic_coeffs.magnetic(t, pts)[..., a])
        _, det_n, _ = jacobian_field(fam_id, t, grid.nodes)
        F = assemble_form(grid, diag_metric, None, cross_vector,
                          np.zeros(grid.n_nodes))
        Ht = _conjugate_and_restrict(grid, F, det_n, DIRICHLET, t)
        diff = Hm.matrix - Ht.matrix
        resid = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
        return {"matrix_identity": resid,
                "hermiticity": Hm.hermiticity_residual()}

    return ScenarioDef(
        name="rotation", dim=2, family=fam, coeffs=free_coefficients(2),
        bc=DIRICHLET, make_grid=make_grid, self_test=self_test,
        metadata={"omega": omega},
    )


def _numeric_time_map(scale, window, samples: int = 4001):
    ts = np.linspace(window[0], window[1], samples)
    rates = 1.0 / np.array([scale(t) for t in ts]) ** 2
    if np.any(rates <= 0):
        raise NonMonotoneReparametrizationError("1/f^2 must stay positive")
    taus = np.concatenate([[0.0], np.cumsum(
        0.5 * (rates[1:] + rates[:-1]) * np.diff(ts))])

    def forward(t):
        return float(np.interp(t, ts, taus))

    def backward(tau):
        t = np.interp(tau, taus, ts)
        return t if np.ndim(t) else float(t)

    return forward, backward


def homothety_scenario(scale=None, dscale=None, ddscale=None, dim: int = 1,
                       window=(0.0, 1.0)) -> ScenarioDef:
    """Uniform dilation h = f(t) y; default f(t) = 1 + t/2.

    Gauge phi = (f'/f) |x|^2 / 4; the reduced equation runs in the
    reparametrized clock tau = int 1/f^2 and reads
    i dw/dtau = -Lap w + (1/4) f^3 f'' |y|^2 w  (= (U' - 4 U^2)|y|^2 with
    U = f' f / 4).
    """
    if scale is None:
        scale = lambda t: 1.0 + 0.5 * t
        dscale = lambda t: 0.5
        ddscale = lambda t: 0.0
    if dscale is None:
        raise ValueError("homothety scenario needs the scale derivative")
    fam = homothety_family(scale, dscale, dim=dim, window=window)

    def rate(t):
        return dscale(t) / scale(t)

    gauge = GaugeSpec(
        phase=lambda t, x: 0.25 * rate(t) * np.sum(
            np.asarray(x, dtype=float) ** 2, axis=-1),
        grad=lambda t, x: 0.5 * rate(t) * np.asarray(x, dtype=float),
        d_dt=(None if ddscale is None else (
            lambda t, x: 0.25 * (ddscale(t) / scale(t) - rate(t) ** 2)
            * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))),
    )

    tau_of_t, t_of_tau = _numeric_time_map(scale, window)
    reduced = None
    if ddscale is not None:
        def reduced_potential(tau, y):
            t = t_of_tau(tau)
            f = scale(t)
            return 0.25 * f ** 3 * ddscale(t) * np.sum(
                np.asarray(y, dtype=float) ** 2, axis=-1)

        reduced = ReducedFormulation(
            coeffs=isotropic_coefficients(dim, electric=reduced_potential),
            time_map=tau_of_t,
        )

    make_grid = (ReferenceGrid.interval if dim == 1
                 else lambda n: ReferenceGrid.rectangle(n))
    return ScenarioDef(
        name="homothety", dim=dim, family=fam, coeffs=free_coefficients(dim),
        bc=DIRICHLET, make_grid=make_grid, gauge=gauge, reduced=reduced,
        metadata={"tau_end": tau_of_t(window[1])},
    )


def cylinder_scenario(length=None, dlength=None, window=(0.0, 1.0)) -> ScenarioDef:
    """Axially stretched cylinder, reduced to its axis (0, l(t)).

    Transverse modes decouple; the axial problem carries the magnetic
    Neumann condition at the moving end (coefficient -(i/2) l'(t)) and the
    plain homogeneous Neumann condition at the fixed end.
    """
    if length is None:
        length = lambda t: 1.0 + 0.3 * t
        dlength = lambda t: 0.3
    fam = interval_family(length, dlength, window=window)
    return ScenarioDef(
        name="cylinder", dim=1, family=fam, coeffs=free_coefficients(1),
        bc=MAGNETIC_NEUMANN, make_grid=ReferenceGrid.interval,
        initial_state=1,  # the constant (index 0) is preserved; track a mode
        metadata={"reduction": "axial"},
    )


# -- twin-evolution cross validation -------------------------------------------

def gauge_equivalence_check(scenario: ScenarioDef, config: PropagatorConfig,
                            cells: int) -> dict:
    """Evolve the full magnetic and the gauge-reduced formulations.

    Returns a report with the final fidelity between the gauged full state
    and the reduced state (global phases cancel in the fidelity).
    """
    if scenario.gauge is None or scenario.reduced is None:
        raise ValueError(f"scenario {scenario.name} has no reduced formulation")
    grid = scenario.grid(cells)
    v0 = scenario.build_initial(grid, config.t_start)

    full = evolve(scenario.family, scenario.coeffs, scenario.bc, v0, config)
    v_final = full.final_state

    w0 = apply_gauge(v0, scenario.gauge, scenario.family, config.t_start)
    tmap = scenario.reduced.time_map
    tau0, tau1 = tmap(config.t_start), tmap(config.t_end)
    red_cfg = PropagatorConfig(
        dt=max((tau1 - tau0) / max(config.n_steps, 1), 1e-300),
        t_start=tau0, t_end=tau1, solver_tol=config.solver_tol)
    reduced = evolve(identity_family(grid.dim, (tau0, tau1)),
                     scenario.reduced.coeffs, scenario.bc, w0, red_cfg)
    w_reduced = reduced.final_state

    w_full = apply_gauge(v_final, scenario.gauge, scenario.family, config.t_end)
    fid = fidelity(w_full, w_reduced)
    return {
        "scenario": scenario.name,
        "fidelity": fid,
        "full_norm_drift": full.norm_drift(),
        "reduced_norm_drift": reduced.norm_drift(),
        "steps": config.n_steps,
        "cells": cells,
    }
