"""Canonical scenarios, gauge machinery, spectral tools, adiabatic sweeps."""

from .adiabatic import AdiabaticRun, adiabatic_experiment, check_branch_path, slowed_family
from .families import (
    diagonal_family,
    homothety_family,
    interval_family,
    ramp_interval_family,
    rotation_family,
    smoothstep,
    stretch_warp_family,
    translation_family,
    warped_2d_family,
)
from .gauge import GaugeSpec, apply_gauge, fidelity
from .library import (
    ReducedFormulation,
    ScenarioDef,
    cylinder_scenario,
    gauge_equivalence_check,
    homothety_scenario,
    moving_interval_scenario,
    rotation_magnetic_coefficients,
    rotation_scenario,
    translation_scenario,
)
from .spectral import SpectralBranch, spectral_projector

__all__ = [
    "AdiabaticRun",
    "GaugeSpec",
    "ReducedFormulation",
    "ScenarioDef",
    "SpectralBranch",
    "adiabatic_experiment",
    "apply_gauge",
    "check_branch_path",
    "cylinder_scenario",
    "diagonal_family",
    "fidelity",
    "gauge_equivalence_check",
    "homothety_family",
    "homothety_scenario",
    "interval_family",
    "moving_interval_scenario",
    "ramp_interval_family",
    "rotation_family",
    "rotation_magnetic_coefficients",
    "rotation_scenario",
    "slowed_family",
    "smoothstep",
    "spectral_projector",
    "stretch_warp_family",
    "translation_family",
    "translation_scenario",
    "warped_2d_family",
]
