"""Check that the traced work counts repeat and do not depend on the seed.

    python3 perfbench/check_counts.py

For each workload, runs two traced iterations with the default seed and one
with another seed.  Every per-layer count must repeat exactly between the
two default-seed iterations.  The work counts that set a workload's size
(evolution steps, sparse LU factorizations, right-inverse solves) must also
be equal for the other seed.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys

import run

OTHER_SEED = 1
SEED_FREE = ("propagator.step.calls", "propagator.lu.factorizations",
             "moser.rinv.solves")


def traced_counts(workload: str, seed: int, env: dict, counts: list) -> dict:
    record = run.run_child(workload, run.draw_param(workload, seed), True, env,
                           run.RUN_LIMIT_S)
    if not record.get("ok"):
        raise SystemExit(f"{workload} seed {seed} failed: {record.get('error')}")
    return {name: record["layers"][name] for name in counts
            if name in record["layers"]}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    env = run.child_env()
    ok = True
    for workload in sorted(run.WORKLOADS):
        first = traced_counts(workload, run.DEFAULT_SEED, env, counts)
        again = traced_counts(workload, run.DEFAULT_SEED, env, counts)
        other = traced_counts(workload, OTHER_SEED, env, counts)
        print(f"== {workload}: seeds {run.DEFAULT_SEED}, {run.DEFAULT_SEED}, "
              f"{OTHER_SEED}")
        for name in counts:
            if name not in first:
                continue
            values = (first[name], again[name], other[name])
            bad = values[0] != values[1] or (
                name in SEED_FREE and values[0] != values[2])
            ok &= not bad
            if any(values) or bad:
                print(f"  {'MISMATCH' if bad else 'ok':8s} {name:34s} "
                      + "  ".join(str(v) for v in values))
    print("counts repeat and size counts are seed-free" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
