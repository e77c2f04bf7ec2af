"""Outside-in span tracer for the benchmark workloads.

The tracer replaces public names of the library *where each module looks
them up* (``schrodeform.propagator.step``, ``DiffeoFamily.jacobian_matrix``,
the ``spla`` module that ``schrodeform.propagator`` calls ``splu`` through)
with wrappers that record one span per call.  Nothing inside the library is
changed: a later refactor that moves work between these names shows up as a
shift between layers, and one that removes or renames a name shows up as an
absent target, never as a crash.

A span is (name, start, end, parent, run id).  Spans are kept in memory and
written out when the run ends; a span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap).  Work a wrapper does after a call, such as the step residual,
is recorded as a ``trace.note`` child so it never counts against the layer
that called the wrapped name.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
import types

import numpy as np

# (span name, module where the name is looked up, attribute path)
TARGETS = [
    ("cli", "schrodeform.cli", "main"),
    ("scenarios.spectral", "schrodeform.scenarios.adiabatic", "spectral_projector"),
    ("operators.assemble", "schrodeform.propagator", "assemble_hamiltonian"),
    ("operators.assemble", "schrodeform.scenarios.adiabatic", "assemble_hamiltonian"),
    ("operators.assemble", "schrodeform.operators", "assemble_hamiltonian"),
    ("operators.eigenpairs", "schrodeform.scenarios.spectral", "eigenpairs"),
    ("operators.eigenpairs", "schrodeform.operators", "eigenpairs"),
    ("propagator.evolve", "schrodeform.scenarios.adiabatic", "evolve"),
    ("propagator.evolve", "schrodeform.propagator", "evolve"),
    ("propagator.step", "schrodeform.propagator", "step"),
    ("propagator.lu", "schrodeform.propagator", "spla.splu"),
    ("propagator.banded", "schrodeform.propagator", "solve_banded"),
    ("geometry.jacobian_field", "schrodeform.operators", "jacobian_field"),
    ("geometry.jacobian_field", "schrodeform.propagator", "jacobian_field"),
    ("geometry.jacobian_matrix", "schrodeform.geometry.diffeo",
     "DiffeoFamily.jacobian_matrix"),
    ("geometry.jacobian_matrix", "schrodeform.geometry.diffeo",
     "DiffeoFamily.jacobian_matrix_dt"),
    ("geometry.interp.build", "schrodeform.geometry.interp", "real_interpolator"),
    ("geometry.interp.build", "schrodeform.moser.pipeline", "real_interpolator"),
    ("geometry.interp.build", "schrodeform.moser.maps", "real_interpolator"),
    ("moser.normalize", "schrodeform.moser", "normalize_diffeo"),
    ("moser.pipeline", "schrodeform.moser.pipeline", "moser_combined"),
    ("moser.pipeline.attempt", "schrodeform.moser.pipeline", "_SmoothedDensity"),
    ("moser.flow", "schrodeform.moser.pipeline", "moser_flow"),
    ("moser.fixed_point", "schrodeform.moser.pipeline", "moser_fixed_point"),
    ("moser.rinv.factor", "schrodeform.moser.right_inverse",
     "DivergenceRightInverse.__init__"),
    ("moser.rinv.splu", "schrodeform.moser.right_inverse", "spla.splu"),
    ("moser.rinv.solve", "schrodeform.moser.right_inverse",
     "DivergenceRightInverse.apply_faces"),
    ("moser.density", "schrodeform.moser.maps", "DensityFamily.__call__"),
    ("moser.density.rate", "schrodeform.moser.maps", "DensityFamily.rate"),
    ("moser.build_map", "schrodeform.moser.pipeline", "build_moser_map"),
    ("moser.build_map", "schrodeform.moser.flow", "build_moser_map"),
    ("moser.build_map", "schrodeform.moser.fixed_point", "build_moser_map"),
]

NOTE = "trace.note"
# spans that only orchestrate the layers below them; their self time counts
# as unattributed in trace.coverage_frac
UMBRELLAS = ("cli", "propagator.evolve", "moser.normalize", "moser.pipeline")
_MISSING = object()


def _lu_fill(args, kwargs, lu):
    return lu.L.nnz + lu.U.nnz


def _step_residual(args, kwargs, out):
    """Relative residual of the Cayley solve, as ``step`` itself defines it."""
    v, H_mid, dt = args[0], args[1], args[2]
    z = 0.5j * dt
    rhs = v - z * (H_mid.matrix @ v)
    scale = np.linalg.norm(rhs)
    res = np.linalg.norm(out + z * (H_mid.matrix @ out) - rhs)
    return float(res / scale) if scale > 0 else 0.0


def _iterations(args, kwargs, mm):
    return mm.iterations


def _points(args, kwargs, out):
    return int(np.atleast_2d(args[0]).shape[0])


NOTES = {
    "propagator.lu": _lu_fill,
    "moser.rinv.splu": _lu_fill,
    "propagator.step": _step_residual,
    "moser.fixed_point": _iterations,
    "geometry.interp.eval": _points,
}


class _ModuleProxy(types.ModuleType):
    """Stand-in for a module one importer uses whole (``spla.splu``).

    Only that importer sees the wrapped attribute; every other user of the
    real module stays untraced.
    """

    def __init__(self, module, overrides):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # each record: [name, start, end, parent index, note value]
        self.spans: list = []
        self.absent: list = []
        # wrappers left behind in returned objects (interpolants) stop
        # recording once the tracer is uninstalled
        self.active = False
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                tracer._after(rec, args, kwargs, out, note)
            if name == "geometry.interp.build":
                # the interpolant is evaluated long after it is built
                out = tracer.wrap("geometry.interp.eval", out)
            return out

        return wrapper

    def _after(self, rec, args, kwargs, out, note):
        start = time.perf_counter()
        rec[4] = note(args, kwargs, out)
        self.spans.append([NOTE, start, time.perf_counter(), rec[3], None])

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.active = True
        for name, module, path in TARGETS:
            *owners, attr = path.split(".")
            try:
                mod = importlib.import_module(module)
                holder = mod
                for part in owners:
                    holder = getattr(holder, part)
                original = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}:{path}")
                continue
            wrapped = self.wrap(name, original)
            if isinstance(holder, types.ModuleType) and holder is not mod:
                self._set(mod, owners[0],
                          _ModuleProxy(holder, {attr: wrapped}))
            else:
                self._set(holder, attr, wrapped)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        self.active = False
        for obj, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["name", "start", "end", "parent", "run_id", "value"])
            for name, start, end, parent, value in self.spans:
                out.writerow([name, repr(start), repr(end), parent, self.run_id,
                              "" if value is None else value])

    def stats(self) -> dict:
        """Per span name: inclusive durations, summed self time, note values."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, value) in enumerate(spans):
            entry = out.setdefault(name, {"durs": [], "self": 0.0, "values": []})
            entry["durs"].append(end - start)
            entry["self"] += end - start - child[k]
            if value is not None:
                entry["values"].append(value)
        return out


def _q(durs, q):
    return float(np.percentile(durs, q)) if durs else 0.0


def layer_metrics(stats: dict, root: str) -> dict:
    """Per-layer metric values (name -> number) from span statistics."""

    def get(name):
        return stats.get(name, {"durs": [], "self": 0.0, "values": []})

    def calls(name):
        return len(get(name)["durs"])

    def total(name):
        return float(sum(get(name)["durs"]))

    def self_s(*names):
        return float(sum(get(n)["self"] for n in names))

    asm, step = get("operators.assemble"), get("propagator.step")
    solve = get("moser.rinv.solve")
    factorizations = calls("moser.rinv.factor")
    attempts = calls("moser.pipeline.attempt")
    # tracer notes are overhead, not work: leave them out of the coverage;
    # the self time of an umbrella span is work no named layer accounts for
    work = total(root) - total(NOTE)
    covered = work - self_s(*UMBRELLAS)
    return {
        "operators.assemble.calls": calls("operators.assemble"),
        "operators.assemble.self_s": self_s("operators.assemble"),
        "operators.assemble.us_p50": 1e6 * _q(asm["durs"], 50),
        "operators.assemble.us_p99": 1e6 * _q(asm["durs"], 99),
        "operators.eigenpairs.calls": calls("operators.eigenpairs"),
        "operators.eigenpairs.s": total("operators.eigenpairs"),
        "propagator.step.calls": calls("propagator.step"),
        "propagator.step.s": total("propagator.step"),
        "propagator.step.ms_p50": 1e3 * _q(step["durs"], 50),
        "propagator.step.ms_p99": 1e3 * _q(step["durs"], 99),
        "propagator.step.rel_residual_max": max(step["values"], default=0.0),
        "propagator.lu.factorizations": calls("propagator.lu"),
        "propagator.lu.s": total("propagator.lu"),
        "propagator.lu.fill_nnz": max(get("propagator.lu")["values"], default=0),
        "propagator.banded.solves": calls("propagator.banded"),
        "propagator.banded.s": total("propagator.banded"),
        "propagator.evolve.self_s": self_s("propagator.evolve"),
        "geometry.jacobian_field.calls": calls("geometry.jacobian_field"),
        "geometry.jacobian_field.s": total("geometry.jacobian_field"),
        "geometry.jacobian_matrix.calls": calls("geometry.jacobian_matrix"),
        "geometry.jacobian_matrix.s": total("geometry.jacobian_matrix"),
        "geometry.interp.builds": calls("geometry.interp.build"),
        "geometry.interp.build_s": total("geometry.interp.build"),
        "geometry.interp.eval_calls": calls("geometry.interp.eval"),
        "geometry.interp.eval_points": int(sum(get("geometry.interp.eval")["values"])),
        "geometry.interp.eval_s": total("geometry.interp.eval"),
        "moser.rinv.factorizations": factorizations,
        "moser.rinv.factor_s": total("moser.rinv.factor"),
        "moser.rinv.kkt_fill_nnz": max(get("moser.rinv.splu")["values"], default=0),
        "moser.rinv.solves": calls("moser.rinv.solve"),
        "moser.rinv.solve_ms_p50": 1e3 * _q(solve["durs"], 50),
        "moser.rinv.solves_per_factorization":
            calls("moser.rinv.solve") / factorizations if factorizations else 0.0,
        "moser.density.evals": calls("moser.density"),
        "moser.density.s": total("moser.density"),
        "moser.density.rate_evals": calls("moser.density.rate"),
        "moser.density.rate_s": total("moser.density.rate"),
        "moser.flow.calls": calls("moser.flow"),
        "moser.flow.self_s": self_s("moser.flow"),
        "moser.fixed_point.calls": calls("moser.fixed_point"),
        "moser.fixed_point.s": total("moser.fixed_point"),
        "moser.fixed_point.iterations": int(sum(get("moser.fixed_point")["values"])),
        "moser.pipeline.attempts": attempts,
        "moser.pipeline.useful_ratio":
            calls("moser.pipeline") / attempts if attempts else 0.0,
        "moser.pipeline.self_s": self_s("moser.pipeline", "moser.normalize"),
        "moser.build_map.calls": calls("moser.build_map"),
        "moser.build_map.s": total("moser.build_map"),
        "scenarios.spectral.calls": calls("scenarios.spectral"),
        "scenarios.spectral.s": total("scenarios.spectral"),
        "cli.self_s": self_s("cli"),
        # share of the entry call spent inside named leaf layers
        "trace.coverage_frac": covered / work if work > 0 else 0.0,
    }

