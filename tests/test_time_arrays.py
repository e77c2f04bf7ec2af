"""Evaluator contract: ``t`` may be an array that broadcasts to the points.

Every family and coefficient set of the library, evaluated once at a
``(K, P)`` array of times over a ``(K, P, dim)`` stack of points, must agree
with a loop that evaluates each point at its own scalar time.
"""

import numpy as np
import pytest

from schrodeform.geometry import DiffeoFamily, identity_family
from schrodeform.geometry.diffeo import box_fd_jacobian
from schrodeform.scenarios import (
    cylinder_scenario,
    diagonal_family,
    homothety_family,
    homothety_scenario,
    interval_family,
    moving_interval_scenario,
    ramp_interval_family,
    rotation_family,
    rotation_magnetic_coefficients,
    rotation_scenario,
    slowed_family,
    stretch_warp_family,
    translation_family,
    translation_scenario,
    warped_2d_family,
)

K, P = 3, 4


def _stack(window, dim, seed):
    """(K, P) times inside the window and (K, P, dim) points, some on the
    boundary of the unit box so one-sided differences are exercised."""
    rng = np.random.default_rng(seed)
    lo, hi = window
    t = lo + (hi - lo) * rng.uniform(size=(K, P))
    y = rng.uniform(size=(K, P, dim))
    y[0, 0] = 0.0
    y[1, 1] = 1.0
    return t, y


def _per_t(evaluate, t, y):
    rows = [np.asarray(evaluate(float(tk), yk[None]), dtype=float)[0]
            for tk, yk in zip(t.reshape(-1), y.reshape(-1, y.shape[-1]))]
    return np.reshape(rows, t.shape + rows[0].shape)


def _assert_conforms(evaluate, t, y, label):
    batched = np.asarray(evaluate(t, y), dtype=float)
    looped = _per_t(evaluate, t, y)
    assert batched.shape == looped.shape, label
    scale = max(float(np.max(np.abs(looped))), 1e-300)
    assert np.max(np.abs(batched - looped)) <= 1e-15 * scale, label


def _fd_fallback(family):
    """The family's map alone: velocity and both Jacobians by differences."""
    return DiffeoFamily(map=family.map, window=family.window, name="fd")


def _box_fd(family):
    return DiffeoFamily(map=family.map,
                        jacobian=box_fd_jacobian(family.map, ((0, 1), (0, 1)), 1e-3),
                        window=family.window, name="box-fd")


ramp = ramp_interval_family(1.0, 1.5)
SCENARIOS = {"moving_interval": moving_interval_scenario(),
             "moving_interval_smooth": moving_interval_scenario(smooth=True),
             "translation_1d": translation_scenario(),
             "translation_2d": translation_scenario(dim=2),
             "rotation": rotation_scenario(), "homothety": homothety_scenario(),
             "cylinder": cylinder_scenario()}
# name -> (family, dimension)
FAMILIES = {
    "interval": (interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5), 1),
    "ramp_interval": (ramp, 1),
    "homothety_2d": (homothety_family(lambda t: 1 + 0.5 * t, lambda t: 0.5,
                                      dim=2), 2),
    "diagonal": (diagonal_family(
        (lambda t: 1 + 0.3 * t, lambda t: 1 - 0.2 * t ** 2),
        (lambda t: 0.3, lambda t: -0.4 * t)), 2),
    "translation": (translation_family(lambda t: [t ** 2 / 2, -t],
                                       lambda t: [t, -1.0], dim=2), 2),
    "rotation": (rotation_family(1.3), 2),
    "warped_2d": (warped_2d_family(), 2),
    "stretch_warp": (stretch_warp_family(), 2),
    "identity": (identity_family(2), 2),
    "slowed": (slowed_family(ramp, 0.1), 1),
    "frozen": (warped_2d_family().frozen(0.6), 2),
    "fd_fallback_1d": (_fd_fallback(ramp), 1),
    "fd_fallback_2d": (_fd_fallback(warped_2d_family()), 2),
    "box_fd": (_box_fd(stretch_warp_family()), 2),
}
FAMILIES.update({f"scenario:{label}": (s.family, s.dim)
                 for label, s in SCENARIOS.items()})


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_evaluators_take_time_arrays(name):
    family, dim = FAMILIES[name]
    t, y = _stack(family.window, dim, seed=len(name))
    evaluators = {"map": family.map, "velocity": family.velocity,
                  "jacobian": family.jacobian_matrix,
                  "jacobian_dt": family.jacobian_matrix_dt}
    if family.inverse is not None:
        evaluators["inverse"] = family.inverse
    for label, evaluate in evaluators.items():
        _assert_conforms(evaluate, t, y, f"{name}.{label}")


# name -> (coefficient set, dimension)
COEFFICIENTS = {label: (s.coeffs, s.dim) for label, s in SCENARIOS.items()}
COEFFICIENTS.update({f"{label} reduced": (s.reduced.coeffs, s.dim)
                     for label, s in SCENARIOS.items() if s.reduced is not None})
COEFFICIENTS["rotation magnetic"] = (rotation_magnetic_coefficients(1.3), 2)


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_coefficient_evaluators_take_time_arrays(name):
    coeffs, dim = COEFFICIENTS[name]
    t, x = _stack((0.0, 1.0), dim, seed=len(name))
    for label in ("diffusion", "magnetic", "electric"):
        _assert_conforms(getattr(coeffs, label), t, x, f"{name}.{label}")


def test_normalized_family_takes_time_arrays():
    from schrodeform.geometry import ReferenceGrid
    from schrodeform.moser import normalize_diffeo
    family = normalize_diffeo(warped_2d_family(), ReferenceGrid.rectangle(12),
                              [0.0, 0.5, 1.0])
    t, y = _stack(family.window, 2, seed=7)
    for label in ("map", "velocity", "jacobian_matrix"):
        _assert_conforms(getattr(family, label), t, y, f"normalized.{label}")
