"""Benchmark of the schrodeform library: three workloads, end to end.

    python3 perfbench/run.py --workload adiabatic_1d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a checkout.  Each iteration runs the workload once in a
fresh process (``workload.py``) with the BLAS/OpenMP thread pools capped at
the number of usable CPUs; iterations repeat, one at a time (a closed loop
of one client), until the next one would overrun ``--seconds``, with at
least two.  The seed draws the workload's family parameter from its
stated range; the work done does not depend on it.

``--trace 0`` reports the end-to-end metrics (medians over iterations):
``wall_s``, the entry-point call; ``setup_s``, process start up to that
call; ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of ``spans.py`` plus the
tracing overhead.  A run fails if it raises or its correctness gate fails;
failures are counted, never fatal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of every
iteration, with the measured gate values and the toolchain, is written to
``perfbench/out/results/``.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# workload -> (family parameter, low, high); the seed draws it uniformly
WORKLOADS = {
    "adiabatic_1d": ("l1", 1.4, 1.6),
    "warped_2d": ("b", 0.25, 0.35),
    "moser_2d": ("alpha", 0.25, 0.30),
}
DEFAULT_SEED = 0
DEFAULT_SECONDS = 40
MIN_ROUNDS = 2          # untraced iterations per run, at the least
MIN_TRACED_ROUNDS = 1   # (untraced, traced) pairs per traced run
RUN_LIMIT_S = 150.0     # never start an iteration that could end past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def draw_param(workload: str, seed: int) -> float:
    _, lo, hi = WORKLOADS[workload]
    return lo + (hi - lo) * random.Random(f"{workload}:{seed}").random()


def child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, param: float, traced: bool, env: dict,
              timeout: float) -> dict:
    """One iteration in a fresh process; a crash or timeout is a failed run."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--param", repr(param), "--trace", str(int(traced)),
           "--out", str(OUT / workload)]
    started = time.monotonic()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced,
                "error": f"timed out after {timeout:.0f} s",
                "elapsed": time.monotonic() - started}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        record = {"ok": False, "traced": traced,
                  "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    record["elapsed"] = elapsed
    return record


def run_iterations(workload: str, param: float, seconds: float,
                   trace: bool) -> list:
    env = child_env()
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.monotonic()
    records, rounds = [], []
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            timeout = max(10.0, RUN_LIMIT_S + 20.0 - (time.monotonic() - start))
            records.append(run_child(workload, param, traced, env, timeout))
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        upcoming = elapsed + max(rounds)
        if upcoming > RUN_LIMIT_S:
            break
        if len(rounds) >= min_rounds and upcoming > seconds:
            break
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(workload: str, seed: int, param: float, records: list,
              trace: bool, expected: list) -> tuple:
    """(printable lines, contract result or None when nothing succeeded)."""
    name = WORKLOADS[workload][0]
    lines = [f"== {workload}  seed={seed}  {name}={param:.6f}  trace={int(trace)}"]
    for k, r in enumerate(records, 1):
        status = "ok" if r.get("ok") else f"FAILED {r.get('error', 'gate')}"
        kind = "traced" if r.get("traced") else "untraced"
        timings = "  ".join(f"{key} {r[key]:.4f}" for key in
                            ("wall_s", "setup_s", "peak_rss_mb") if key in r)
        checks = " ".join(f"{k2}={v}" for k2, v in r.get("checks", {}).items())
        lines.append(f"  run {k} ({kind}): {timings}  steps {r.get('steps')}  "
                     f"{status}  [{checks}]")
        for absent in r.get("absent", []):
            lines.append(f"    absent target (layer reported as 0): {absent}")

    failed = sum(1 for r in records if not r.get("ok"))
    plain = [r for r in records if r.get("ok") and not r.get("traced")]
    traced = [r for r in records if r.get("ok") and r.get("traced")]
    lines.append(f"fail_frac {failed / len(records):.4f}  "
                 f"({failed} failed / {len(records)} attempted)")
    if not plain or (trace and not traced):
        return lines, None

    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    values = {key: [r[key] for r in plain] for key in units}
    for key, unit in units.items():
        lo, hi = quartiles(values[key])
        lines.append(f"{key} {statistics.median(values[key]):.4f} {unit}  "
                     f"(median of {len(plain)}; quartiles {lo:.4f} .. {hi:.4f})")
    rates = [r["steps"] / r["wall_s"] for r in plain if r.get("steps")]
    if rates:
        lines.append(f"steps_per_s {statistics.median(rates):.2f} 1/s  "
                     f"({plain[0]['steps']} steps per run)")

    if trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(values["wall_s"]) - 1.0)
        metrics["trace.absent_targets"] = len(traced[0]["absent"])
    else:
        metrics = {key: statistics.median(v) for key, v in values.items()}
    if sorted(metrics) != sorted(m["name"] for m in expected):
        missing = sorted(set(m["name"] for m in expected) ^ set(metrics))
        raise SystemExit(f"metrics differ from BENCHMARK.json: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in expected},
    }
    if trace:
        for m in expected:
            lines.append(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    return lines, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: list):
    param = draw_param(workload, seed)
    records = run_iterations(workload, param, seconds, trace)
    lines, result = summarize(workload, seed, param, records, trace, expected)
    env = next((r["env"] for r in records if "env" in r), None)
    lines.insert(1, f"env {json.dumps(env, sort_keys=True)}")
    print("\n".join(lines), flush=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "param": param,
              "seconds": seconds, "trace": trace, "env": env,
              "iterations": records, "result": result}
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schrodeform" / "__init__.py").is_file():
        print(f"no schrodeform sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            expected) for name in names]
    if any(r is None for r in results):
        print("no iteration of a workload succeeded; no result", file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
