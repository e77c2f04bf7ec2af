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
from .operators import (_BCS, NAIVE_NEUMANN, assemble_hamiltonian, eigenpairs,
                        free_coefficients)
from .parallel import map_jobs
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


# scenario name -> (accepted params keys, builder from the params object)
_SCENARIOS = {
    "moving_interval": (("l0", "l1", "smooth"), lambda p: moving_interval_scenario(
        l0=float(p.get("l0", 1.0)), l1=float(p.get("l1", 1.5)),
        smooth=bool(p.get("smooth", False)))),
    "translation": ((), lambda p: translation_scenario()),
    "rotation": (("omega",), lambda p: rotation_scenario(
        omega=float(p.get("omega", 1.0)))),
    "homothety": ((), lambda p: homothety_scenario()),
    "cylinder": ((), lambda p: cylinder_scenario()),
}


def _build_scenario(config: RunConfig):
    return _SCENARIOS[config["scenario"]][1](config["params"])


def _build_smooth_scenario(config: RunConfig):
    """The configured scenario, with a moving interval on its C^2 ramp.

    Adiabatic sweeps and order fits need motion-compatible initial data: a
    C^2 ramp starts from rest, so the eigenstate initial data matches the
    generator.
    """
    params = config["params"]
    if config["scenario"] == "moving_interval":
        params = dict(params, smooth=True)
    return _SCENARIOS[config["scenario"]][1](params)


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
        for key in ("scenario", "grid", "dt", "bc", "output", "snapshot_stride",
                    "self_test", "t_end", "density", "amplitude", "mode"):
            val = getattr(args, key, None)
            if val is not None and val is not False:
                data[key] = val
        if getattr(args, "epsilon", None):
            try:
                data["epsilon"] = [float(x) for x in args.epsilon.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--epsilon takes comma-separated numbers: {exc}") from exc
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
        if d["scenario"] not in _SCENARIOS:
            raise ConfigError(
                f"unknown scenario {d['scenario']!r}; available: "
                f"{sorted(_SCENARIOS)}")
        accepted = _SCENARIOS[d["scenario"]][0]
        unknown = sorted(set(d["params"]) - set(accepted))
        if unknown:
            raise ConfigError(
                f"unknown params {unknown} for scenario {d['scenario']!r}; "
                f"accepted: {list(accepted)}")
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


def _labels(name: str, dim: int) -> list:
    """Column names of a vector's components: `name` in 1D, else name1, name2."""
    return [name] if dim == 1 else [f"{name}{a + 1}" for a in range(dim)]


def _write_nodal_csv(path: Path, grid: ReferenceGrid, header, columns):
    """One row per node: its coordinates y, then one entry of each column."""
    rows = [list(grid.nodes[i]) + [col[i] for col in columns]
            for i in range(grid.n_nodes)]
    _write_csv(path, _labels("y", grid.dim) + header, rows)


def _write_snapshots(outdir: Path, trace, grid: ReferenceGrid):
    files = []
    for k, snap in enumerate(trace.snapshots):
        path = outdir / "snapshots" / f"{k:04d}.csv"
        _write_nodal_csv(path, grid, ["re", "im", "abs2"],
                         [snap.values.real, snap.values.imag,
                          [abs(v) ** 2 for v in snap.values]])
        files.append(str(path.relative_to(outdir)))
    return files


def _write_report(outdir: Path, report: dict, manifest: Manifest) -> None:
    path = outdir / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    manifest.add_file("report.json")


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

# the most steps one evolution may take; its trace keeps a record per step
_MAX_STEPS = 10 ** 7


def _check_steps(span: float, dt: float) -> None:
    if not span / dt <= _MAX_STEPS:
        raise ConfigError(f"dt={dt:g} takes more than {_MAX_STEPS:g} steps "
                          f"over a span of {span:g}")


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
    scenario = _build_scenario(config)
    _check_span(config, scenario)
    _check_steps(float(config["t_end"]) - float(config["t_start"]), float(config["dt"]))
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
    scenario = _build_smooth_scenario(config)
    lo, hi = scenario.family.window
    eps, dt = [float(e) for e in config["epsilon"]], float(config["dt"])
    _check_steps((hi - lo) / min(eps), dt)
    if not (hi - lo) / max(eps) >= dt:
        raise ConfigError(f"epsilon={max(eps):g} sweeps the window in "
                          f"{(hi - lo) / max(eps):g}, less than one dt={dt:g}")
    grid = scenario.grid(int(config["grid"]))
    run = adiabatic_experiment(scenario.family, scenario.coeffs, 0, eps, grid,
                               dt=dt, bc=config["bc"] or scenario.bc)

    rows = [[eps, ov, dev] for eps, ov, dev in
            zip(run.epsilons, run.overlaps, run.deviations())]
    _write_csv(outdir / "trace.csv", ["epsilon", "overlap", "deviation"], rows)
    manifest.add_file("trace.csv")
    _write_report(outdir, {
        "initial_overlap": run.initial_overlap,
        "epsilons": run.epsilons,
        "overlaps": run.overlaps,
        "eigenvalue_path": run.eigenvalue_path,
    }, manifest)

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
        _write_nodal_csv(path, grid, _labels("phi", grid.dim) + ["det"],
                         list(mm.values.T) + [mm.det_values])
        files.append(str(path.relative_to(outdir)))
    _write_csv(outdir / "trace.csv", ["t", "det_residual", "iterations"], rows)
    manifest.add_file("trace.csv")
    for fpath in files:
        manifest.add_file(fpath)
    worst = max(mm.det_residual for mm in maps)
    manifest.check("det_residual", worst, float(config["det_residual_tol"]))
    _write_report(outdir, {"samples": samples,
                           "det_residuals": [mm.det_residual for mm in maps]},
                  manifest)
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

    scenario = _build_smooth_scenario(config)
    _check_span(config, scenario)
    bc = config["bc"] or scenario.bc
    rows = []
    if mode == "temporal":
        span = (float(config["t_start"]), float(config["t_end"]))
        if not span[1] - span[0] >= max(float(dt) for dt in ladder):
            raise ConfigError(f"time span [{span[0]:g}, {span[1]:g}] is shorter "
                              "than the ladder's coarsest dt")
        grid = scenario.grid(int(config["grid"]))
        v0 = scenario.build_initial(grid, float(config["t_start"]))

        def rung(dt):
            return PropagatorConfig(dt=dt, t_start=span[0], t_end=span[1])

        def final(dt):
            return evolve(scenario.family, scenario.coeffs, bc, v0,
                          rung(dt), grid).final_state.values

        # each rung against its dt/4 reference, each distinct dt evolved
        # once, on every usable CPU
        dts = list(dict.fromkeys(
            x for dt in ladder for x in (float(dt), float(dt) / 4.0)))
        finals = dict(zip(dts, map_jobs(final, dts,
                                        cost=lambda dt: rung(dt).n_steps)))
        errs = []
        for dt in ladder:
            err = float(np.linalg.norm(finals[float(dt)]
                                       - finals[float(dt) / 4.0]))
            errs.append(err)
            rows.append([dt, err])
        xs = np.log([float(d) for d in ladder])
    else:
        t0 = float(config["t_start"])
        frozen = scenario.family.frozen(scenario.family.window[1])

        def ground(n):
            grid = scenario.grid(n)
            H = assemble_hamiltonian(frozen, free_coefficients(grid.dim), t0,
                                     grid, bc)
            return eigenpairs(H, k=1)[0][0]

        # each rung against its 4n reference, each grid solved once
        cells = list(dict.fromkeys(
            x for n in ladder for x in (int(n), 4 * int(n))))
        lowest = dict(zip(cells, map(ground, cells)))
        errs = []
        for n in ladder:
            err = float(abs(lowest[int(n)] - lowest[4 * int(n)]))
            errs.append(err)
            rows.append([int(n), err])
        xs = np.log([1.0 / float(n) for n in ladder])

    order = float(np.polyfit(xs, np.log(errs), 1)[0])
    _write_csv(outdir / "trace.csv",
               ["dt" if mode == "temporal" else "cells", "error"], rows)
    manifest.add_file("trace.csv")
    _write_report(outdir, {"mode": mode, "ladder": list(ladder), "errors": errs,
                           "fitted_order": order}, manifest)
    manifest.check("order_lower", order, 1.7, larger_ok=True)
    manifest.check("order_upper", order, 2.3)
    return manifest.write(outdir)


def list_scenarios(_config=None) -> int:
    for name in sorted(_SCENARIOS):
        print(name)
    return 0


# -- entry point ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a configuration error (exit 3), not argparse's 2."""
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list":
            return list_scenarios()
        config = RunConfig.from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
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
