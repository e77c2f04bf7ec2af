"""One iteration of one benchmark workload, in a fresh process.

``run.py`` starts this script once per iteration, so every iteration pays
interpreter start-up, imports, grid construction and the lazy per-grid
factorizations the way a command-line user does:

    PYTHONPATH=src python3 perfbench/workload.py --workload warped_2d \\
        --param 0.3 --out perfbench/out/warped_2d --trace 0 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

The last line of standard output is one JSON object: set-up and wall time,
peak resident memory, the correctness gate's measured values, and, with
``--trace 1``, the per-layer metrics of ``spans.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

# entry: the timed call; steps: evolution steps it made (None if it makes
# none); gate: (measured values, passed) from the call's result
Workload = namedtuple("Workload", "entry steps gate")

ADIABATIC_EPSILONS = (0.2, 0.1)
WARPED_BC = "magnetic-neumann"

# span that wraps each workload's entry call in a traced run
ROOT_SPANS = {
    "adiabatic_1d": "cli",
    "warped_2d": "propagator.evolve",
    "moser_2d": "moser.normalize",
}


def adiabatic_1d(l1: float, out: Path) -> Workload:
    """CLI epsilon sweep on the smooth moving interval (0, 1) -> (0, l1)."""
    from schrodeform import cli
    from schrodeform.propagator import PropagatorConfig

    config = out / "config.json"
    config.write_text(json.dumps(
        {"scenario": "moving_interval", "params": {"l1": l1}}))
    argv = ["adiabatic", "--config", str(config), "--grid", "200",
            "--dt", "1e-3",
            "--epsilon", ",".join(str(e) for e in ADIABATIC_EPSILONS),
            "--output", str(out / "cli")]

    def steps(rc):
        return sum(PropagatorConfig(dt=1e-3, t_start=0.0, t_end=1.0 / eps).n_steps
                   for eps in ADIABATIC_EPSILONS)

    def gate(rc):
        manifest = json.loads((out / "cli" / "manifest.json").read_text())
        report = json.loads((out / "cli" / "report.json").read_text())
        overlap = float(report["overlaps"][-1])
        values = {"exit_code": rc, "manifest_passed": manifest["passed"],
                  "final_overlap": overlap}
        return values, rc == 0 and manifest["passed"] is True and overlap >= 0.99

    return Workload(lambda: cli.main(argv), steps, gate)


def warped_2d(b: float, out: Path) -> Workload:
    """64x64 magnetic-Neumann evolution from the first excited eigenstate."""
    from schrodeform import operators, propagator
    from schrodeform.geometry import ReferenceGrid
    from schrodeform.scenarios import warped_2d_family

    grid = ReferenceGrid.rectangle(64)
    family = warped_2d_family(b=b)
    coeffs = operators.free_coefficients(2)
    H0 = operators.assemble_hamiltonian(family, coeffs, 0.0, grid, WARPED_BC)
    _, vecs = operators.eigenpairs(H0, k=2)
    v0 = H0.from_dofs(vecs[:, 1])
    config = propagator.PropagatorConfig(dt=1e-2, t_start=0.0, t_end=1.0)

    def entry():
        return propagator.evolve(family, coeffs, WARPED_BC, v0, config, grid)

    def gate(trace):
        drift = trace.norm_drift()
        H1 = operators.assemble_hamiltonian(family, coeffs, config.t_end, grid,
                                            WARPED_BC)
        herm = H1.hermiticity_residual()
        values = {"norm_drift": drift, "hermiticity_residual": herm}
        return values, drift <= 1e-10 and herm <= 1e-12

    return Workload(entry, lambda trace: len(trace.times) - 1, gate)


def moser_2d(alpha: float, out: Path) -> Workload:
    """Volume normalization of the stretch-warp family on a 40x40 grid."""
    import numpy as np

    from schrodeform import moser
    from schrodeform.geometry import ReferenceGrid
    from schrodeform.scenarios import stretch_warp_family

    grid = ReferenceGrid.rectangle(40)
    family = stretch_warp_family(alpha=alpha)

    def entry():
        return moser.normalize_diffeo(family, grid, [0.0, 1.0])

    def gate(tilde):
        # acceptance criterion 6: relative det residual at the last sample
        det = np.linalg.det(tilde.jacobian_matrix(1.0, grid.nodes))
        target = tilde.volume_ratio(1.0)
        residual = float(np.max(np.abs(det - target)) / target)
        failures = []
        for mm in tilde.moser_maps:
            try:
                mm.check()
            except AssertionError as exc:
                failures.append(str(exc))
        values = {"det_residual_rel": residual,
                  "maps_checked": len(tilde.moser_maps),
                  "map_check_failures": failures}
        return values, residual <= 1e-3 and not failures

    return Workload(entry, lambda tilde: None, gate)


WORKLOADS = {"adiabatic_1d": adiabatic_1d, "warped_2d": warped_2d,
             "moser_2d": moser_2d}


def environment() -> dict:
    """Toolchain and thread caps; results from different ones don't compare."""
    import numpy
    import scipy

    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        return {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--param", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float,
                        required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = {"workload": args.workload, "param": args.param,
              "traced": bool(args.trace), "ok": False}

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(run_id=f"{args.workload}-{os.getpid()}")
        tracer.install()
    try:
        work = WORKLOADS[args.workload](args.param, out)
        result["setup_s"] = time.monotonic() - args.spawned_at
        t0 = time.perf_counter()
        value = work.entry()
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        result["steps"] = work.steps(value)
        result["checks"], result["ok"] = work.gate(value)
    except Exception as exc:  # a failed run is counted, never fatal
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.csv")
        result["layers"] = spans.layer_metrics(tracer.stats(),
                                               ROOT_SPANS[args.workload])
        result["absent"] = tracer.absent
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
