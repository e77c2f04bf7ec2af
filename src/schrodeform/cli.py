"""Batch command-line front end.

Subcommands: ``run`` (scenario evolution), ``adiabatic`` (epsilon sweep),
``moser`` (prescribed-determinant construction), ``converge`` (refinement
ladders), ``list`` (available scenarios).  Runs read an optional JSON config
file, apply flag overrides, and write ``trace.csv``, optional
``snapshots/NNNN.csv``, ``manifest.json`` and ``report.json`` into the
output directory.  Exit codes: 0 success, 1 runtime error, 2 invariant
failure (the manifest is still written in both cases), 3 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NonPositiveDensityError, SchrodeformError
from .geometry import ReferenceGrid
from .moser import DensityFamily, moser_combined
from .operators import DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN, free_coefficients
from .propagator import PropagatorConfig, evolve, neumann_drift_diagnostic
from .scenarios import (
    adiabatic_experiment,
    cylinder_scenario,
    gauge_equivalence_check,
    homothety_scenario,
    moving_interval_scenario,
    rotation_scenario,
    translation_scenario,
)

_BCS = (DIRICHLET, MAGNETIC_NEUMANN, NAIVE_NEUMANN)


def _scenario_registry():
    return {
        "moving_interval": lambda p: moving_interval_scenario(
            l0=float(p.get("l0", 1.0)), l1=float(p.get("l1", 1.5)),
            smooth=bool(p.get("smooth", False))),
        "translation": lambda p: translation_scenario(),
        "rotation": lambda p: rotation_scenario(omega=float(p.get("omega", 1.0))),
        "homothety": lambda p: homothety_scenario(),
        "cylinder": lambda p: cylinder_scenario(),
    }


_DENSITIES = {
    "uniform": lambda amp: (
        lambda t, p: np.ones(p.shape[:-1]),
        lambda t, p: np.zeros(p.shape[:-1])),
    "sine2d": lambda amp: (
        lambda t, p: 1.0 + amp * t * np.sin(2 * np.pi * p[..., 0])
        * np.sin(2 * np.pi * p[..., 1]),
        lambda t, p: amp * np.sin(2 * np.pi * p[..., 0])
        * np.sin(2 * np.pi * p[..., 1])),
    "sine1d": lambda amp: (
        lambda t, p: 1.0 + amp * t * np.sin(2 * np.pi * p[..., 0]),
        lambda t, p: amp * np.sin(2 * np.pi * p[..., 0])),
}


# -- config -------------------------------------------------------------------

class RunConfig:
    """Merged file + flag configuration with validation."""

    DEFAULTS = {
        "scenario": "moving_interval",
        "params": {},
        "grid": 200,
        "dt": 1e-3,
        "bc": None,
        "epsilon": [0.2, 0.1, 0.05, 0.02, 0.01],
        "output": "runs/out",
        "snapshot_stride": 0,
        "seed": 0,
        "self_test": False,
        "t_start": 0.0,
        "t_end": 1.0,
        "solver_tol": 1e-12,
        "norm_drift_tol": 1e-8,
        "density": "sine2d",
        "amplitude": 0.1,
        "samples": [0.0, 1.0],
        "det_residual_tol": 1e-3,
        "mode": "temporal",
        "ladder": None,
    }

    def __init__(self, data: dict):
        merged = dict(self.DEFAULTS)
        unknown = set(data) - set(merged)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.given = frozenset(k for k, v in data.items() if v is not None)
        merged.update({k: data[k] for k in self.given})
        self.data = merged
        self._validate()

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        data = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                data.update(json.loads(path.read_text()))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        for key in ("scenario", "grid", "dt", "bc", "output", "seed",
                    "snapshot_stride", "self_test", "t_end", "density",
                    "amplitude", "mode"):
            val = getattr(args, key, None)
            if val is not None and val is not False:
                data[key] = val
        if getattr(args, "epsilon", None):
            data["epsilon"] = [float(x) for x in args.epsilon.split(",")]
        return cls(data)

    def _validate(self):
        d = self.data
        if int(d["grid"]) < 4:
            raise ConfigError("grid resolution must be at least 4 cells")
        for key in ("dt", "t_start", "t_end", "amplitude"):
            if not math.isfinite(float(d[key])):
                raise ConfigError(f"{key} must be finite, got {d[key]!r}")
        if not float(d["dt"]) > 0:
            raise ConfigError("dt must be positive")
        if d["bc"] is not None and d["bc"] not in _BCS:
            raise ConfigError(f"bc must be one of {_BCS}")
        if not isinstance(d["params"], dict):
            raise ConfigError("params must be a JSON object")
        for key, val in d["params"].items():
            if _is_non_finite_number(val):
                raise ConfigError(f"params.{key} must be finite, got {val!r}")
        if not all(0 < float(e) < math.inf for e in d["epsilon"]):
            raise ConfigError("epsilons must be positive and finite")
        if d["scenario"] not in _scenario_registry():
            raise ConfigError(
                f"unknown scenario {d['scenario']!r}; available: "
                f"{sorted(_scenario_registry())}")
        if d["density"] not in _DENSITIES:
            raise ConfigError(
                f"unknown density {d['density']!r}; available: "
                f"{sorted(_DENSITIES)}")

    def __getitem__(self, key):
        return self.data[key]


def _is_non_finite_number(value) -> bool:
    """True for NaN or infinite numbers, also when written as strings."""
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


# -- output helpers -----------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_trace_csv(path: Path, trace) -> None:
    n_obs = trace.overlaps.shape[1]
    header = ["t", "norm", "energy"] + [f"overlap_{k}" for k in range(n_obs)]
    rows = [
        [t, nr, en] + list(ov)
        for t, nr, en, ov in zip(trace.times, trace.norms, trace.energies,
                                 trace.overlaps)
    ]
    _write_csv(path, header, rows)


def _write_snapshots(outdir: Path, trace, grid: ReferenceGrid):
    files = []
    snapdir = outdir / "snapshots"
    for k, (t, snap) in enumerate(zip(trace.snapshot_times, trace.snapshots)):
        path = snapdir / f"{k:04d}.csv"
        coords = grid.nodes
        if grid.dim == 1:
            header = ["y", "re", "im", "abs2"]
            rows = [[coords[i, 0], snap.values[i].real, snap.values[i].imag,
                     abs(snap.values[i]) ** 2] for i in range(grid.n_nodes)]
        else:
            header = ["y1", "y2", "re", "im", "abs2"]
            rows = [[coords[i, 0], coords[i, 1], snap.values[i].real,
                     snap.values[i].imag, abs(snap.values[i]) ** 2]
                    for i in range(grid.n_nodes)]
        _write_csv(path, header, rows)
        files.append(str(path.relative_to(outdir)))
    return files


class Manifest:
    """Run record: config echo, emitted files, invariant summary."""

    def __init__(self, config: RunConfig, command: str):
        self.doc = {
            "command": command,
            "version": __version__,
            "config": config.data,
            "files": [],
            "summary": [],
        }

    def add_file(self, name: str):
        self.doc["files"].append(name)

    def check(self, name: str, value: float, tolerance: float,
              larger_ok: bool = False) -> bool:
        value = float(value)
        ok = bool(value >= tolerance if larger_ok else value <= tolerance)
        self.doc["summary"].append({
            "name": name, "value": value, "tolerance": tolerance,
            "passed": ok,
        })
        return ok

    def note(self, key: str, value):
        self.doc[key] = value

    def write(self, outdir: Path) -> int:
        self.doc["passed"] = ("error" not in self.doc
                              and all(e["passed"] for e in self.doc["summary"]))
        for entry in self.doc["summary"]:
            if not np.isfinite(entry["value"]):
                self.doc["passed"] = False
        path = outdir / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.doc["files"].append("manifest.json")
        path.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n")
        return 0 if self.doc["passed"] else 2


# -- subcommands ----------------------------------------------------------------

def _check_span(config: RunConfig, scenario) -> None:
    lo, hi = scenario.family.window
    t0, t1 = float(config["t_start"]), float(config["t_end"])
    if not lo <= t0 <= t1 <= hi:
        raise ConfigError(
            f"time span [{t0:g}, {t1:g}] is not an ordered span inside the "
            f"{scenario.name} window [{lo:g}, {hi:g}]")


def run_scenario(config: RunConfig) -> int:
    outdir = Path(config["output"])
    manifest = Manifest(config, "run")
    registry = _scenario_registry()
    scenario = registry[config["scenario"]](config["params"])
    _check_span(config, scenario)
    bc = config["bc"] or scenario.bc
    grid = scenario.grid(int(config["grid"]))
    v0 = scenario.build_initial(grid, float(config["t_start"]))
    refs = scenario.reference_states(grid, float(config["t_start"]))
    cfg = PropagatorConfig(
        dt=float(config["dt"]), t_start=float(config["t_start"]),
        t_end=float(config["t_end"]), solver_tol=float(config["solver_tol"]),
        snapshot_stride=int(config["snapshot_stride"]), observables=refs)

    if bc == NAIVE_NEUMANN:
        naive, magnetic = neumann_drift_diagnostic(
            scenario.family, scenario.coeffs, v0, cfg, grid)
        trace = naive
        _write_trace_csv(outdir / "magnetic_trace.csv", magnetic)
        manifest.add_file("magnetic_trace.csv")
        manifest.check("magnetic_norm_drift", magnetic.norm_drift(),
                       float(config["norm_drift_tol"]))
        manifest.note("naive_final_norm_sq", float(trace.norms[-1] ** 2))
    else:
        trace = evolve(scenario.family, scenario.coeffs, bc, v0, cfg, grid)
        manifest.check("norm_drift", trace.norm_drift(),
                       float(config["norm_drift_tol"]))

    _write_trace_csv(outdir / "trace.csv", trace)
    manifest.add_file("trace.csv")
    for f in _write_snapshots(outdir, trace, grid):
        manifest.add_file(f)

    if config["self_test"] and scenario.self_test is not None:
        report = scenario.self_test(cells=int(config["grid"]))
        for name, value in report.items():
            manifest.check(f"self_test/{name}", value, 1e-12)
    if config["self_test"] and scenario.reduced is not None:
        rep = gauge_equivalence_check(scenario, cfg, int(config["grid"]))
        manifest.check("gauge_fidelity", rep["fidelity"], 1 - 1e-5,
                       larger_ok=True)
    return manifest.write(outdir)


def run_adiabatic(config: RunConfig) -> int:
    if config.given & {"t_start", "t_end"}:
        raise ConfigError("adiabatic takes no t_start/t_end: each sweep spans "
                          "the scenario window scaled by 1/epsilon")
    outdir = Path(config["output"])
    manifest = Manifest(config, "adiabatic")
    scenario = _scenario_registry()[config["scenario"]](config["params"])
    if scenario.name == "moving_interval" and not scenario.metadata["smooth"]:
        scenario = moving_interval_scenario(
            l0=scenario.metadata["l0"], l1=scenario.metadata["l1"], smooth=True)
    grid = scenario.grid(int(config["grid"]))
    run = adiabatic_experiment(
        scenario.family, scenario.coeffs, 0,
        [float(e) for e in config["epsilon"]], grid, dt=float(config["dt"]),
        bc=config["bc"] or scenario.bc)

    rows = [[eps, ov, dev] for eps, ov, dev in
            zip(run.epsilons, run.overlaps, run.deviations())]
    _write_csv(outdir / "trace.csv", ["epsilon", "overlap", "deviation"], rows)
    manifest.add_file("trace.csv")
    report = {
        "initial_overlap": run.initial_overlap,
        "epsilons": run.epsilons,
        "overlaps": run.overlaps,
        "eigenvalue_path": run.eigenvalue_path,
    }
    (outdir / "report.json").parent.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    manifest.add_file("report.json")

    manifest.check("final_overlap", run.overlaps[-1], 0.99, larger_ok=True)
    devs = run.deviations()
    manifest.check("trend_smallest_vs_largest", float(devs[-1]),
                   float(devs[0]) + 1e-12)
    return manifest.write(outdir)


def run_moser(config: RunConfig) -> int:
    outdir = Path(config["output"])
    manifest = Manifest(config, "moser")
    n = int(config["grid"])
    density_name = config["density"]
    amp = float(config["amplitude"])
    if density_name == "sine1d":
        grid = ReferenceGrid.interval(n)
    else:
        grid = ReferenceGrid.rectangle(n)
    f, df = _DENSITIES[density_name](amp)
    density = DensityFamily(f, df)
    samples = [float(t) for t in config["samples"]]
    try:
        density.validate(grid, samples)
    except NonPositiveDensityError as exc:
        raise ConfigError(f"malformed density: {exc}") from exc

    maps = moser_combined(density, grid, samples)
    rows, files = [], []
    for k, mm in enumerate(maps):
        rows.append([mm.t, mm.det_residual, mm.iterations])
        path = outdir / "snapshots" / f"phi_{k:04d}.csv"
        if grid.dim == 1:
            header = ["y", "phi", "det"]
            data = [[grid.nodes[i, 0], mm.values[i, 0], mm.det_values[i]]
                    for i in range(grid.n_nodes)]
        else:
            header = ["y1", "y2", "phi1", "phi2", "det"]
            data = [[grid.nodes[i, 0], grid.nodes[i, 1], mm.values[i, 0],
                     mm.values[i, 1], mm.det_values[i]]
                    for i in range(grid.n_nodes)]
        _write_csv(path, header, data)
        files.append(str(path.relative_to(outdir)))
    _write_csv(outdir / "trace.csv", ["t", "det_residual", "iterations"], rows)
    manifest.add_file("trace.csv")
    for fpath in files:
        manifest.add_file(fpath)
    worst = max(mm.det_residual for mm in maps)
    manifest.check("det_residual", worst, float(config["det_residual_tol"]))
    report = {"samples": samples,
              "det_residuals": [mm.det_residual for mm in maps]}
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    manifest.add_file("report.json")
    return manifest.write(outdir)


def run_converge(config: RunConfig) -> int:
    outdir = Path(config["output"])
    manifest = Manifest(config, "converge")
    mode = config["mode"]
    if mode not in ("temporal", "spatial"):
        raise ConfigError("converge mode must be 'temporal' or 'spatial'")
    ladder = config["ladder"]
    if ladder is None:
        ladder = [4e-3, 2e-3, 1e-3, 5e-4] if mode == "temporal" \
            else [25, 50, 100, 200]
    if len(ladder) < 2:
        raise ConfigError("a refinement ladder needs at least two rungs")

    scenario = _scenario_registry()[config["scenario"]](config["params"])
    if scenario.name == "moving_interval" and not scenario.metadata["smooth"]:
        # order fits need motion-compatible initial data: a C^2 ramp starts
        # from rest, so the eigenstate initial data matches the generator
        scenario = moving_interval_scenario(
            l0=scenario.metadata["l0"], l1=scenario.metadata["l1"], smooth=True)
    _check_span(config, scenario)
    rows = []
    if mode == "temporal":
        grid = scenario.grid(int(config["grid"]))
        v0 = scenario.build_initial(grid, float(config["t_start"]))
        span = (float(config["t_start"]), float(config["t_end"]))

        def final(dt):
            cfg = PropagatorConfig(dt=dt, t_start=span[0], t_end=span[1])
            return evolve(scenario.family, scenario.coeffs, scenario.bc, v0,
                          cfg, grid).final_state.values

        errs = []
        for dt in ladder:
            ref = final(float(dt) / 4.0)
            err = float(np.linalg.norm(final(float(dt)) - ref))
            errs.append(err)
            rows.append([dt, err])
        xs = np.log([float(d) for d in ladder])
    else:
        from .operators import assemble_hamiltonian, eigenpairs
        errs = []
        t0 = float(config["t_start"])
        frozen = scenario.family.frozen(scenario.family.window[1])
        for n in ladder:
            grid = scenario.grid(int(n))
            H = assemble_hamiltonian(frozen, free_coefficients(grid.dim), t0,
                                     grid, scenario.bc)
            vals, _ = eigenpairs(H, k=1)
            fine = scenario.grid(4 * int(n))
            Hf = assemble_hamiltonian(frozen, free_coefficients(grid.dim), t0,
                                      fine, scenario.bc)
            ref, _ = eigenpairs(Hf, k=1)
            err = float(abs(vals[0] - ref[0]))
            errs.append(err)
            rows.append([int(n), err])
        xs = np.log([1.0 / float(n) for n in ladder])

    order = float(np.polyfit(xs, np.log(errs), 1)[0])
    _write_csv(outdir / "trace.csv",
               ["dt" if mode == "temporal" else "cells", "error"], rows)
    manifest.add_file("trace.csv")
    report = {"mode": mode, "ladder": list(ladder), "errors": errs,
              "fitted_order": order}
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    manifest.add_file("report.json")
    manifest.check("order_lower", order, 1.7, larger_ok=True)
    manifest.check("order_upper", order, 2.3)
    return manifest.write(outdir)


def list_scenarios(_config=None) -> int:
    for name in sorted(_scenario_registry()):
        print(name)
    return 0


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrodeform",
        description="moving-domain quantum dynamics on a fixed reference grid")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "evolve a scenario and write its trace"),
            ("adiabatic", "sweep slowness epsilons and record overlaps"),
            ("moser", "build prescribed-determinant maps for a density"),
            ("converge", "refinement-ladder order fits"),
            ("list", "list available scenarios")):
        p = sub.add_parser(name, help=help_text)
        if name == "list":
            continue
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--scenario", type=str, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--bc", type=str, default=None,
                       choices=list(_BCS))
        p.add_argument("--epsilon", type=str, default=None,
                       help="comma-separated slowness list")
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--self-test", dest="self_test", action="store_true",
                       default=False)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--density", type=str, default=None)
        p.add_argument("--amplitude", type=float, default=None)
        p.add_argument("--mode", type=str, default=None)
    return parser


_COMMANDS = {
    "run": run_scenario,
    "adiabatic": run_adiabatic,
    "moser": run_moser,
    "converge": run_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_scenarios()
    try:
        config = RunConfig.from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    np.random.seed(int(config["seed"]) % 2 ** 32)
    try:
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SchrodeformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest = Manifest(config, args.command)
        manifest.note("error", {"type": type(exc).__name__, "message": str(exc)})
        manifest.write(Path(config["output"]))
        return 1


if __name__ == "__main__":
    sys.exit(main())
