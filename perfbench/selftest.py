"""Self-test of the benchmark itself, in two parts.

1. Exact repeat: every workload runs twice, in separate processes with
   the same seed, and the exact counts must agree.  These are the LP
   solves and iterations, colgen iterations, replica-cycles, delivered
   packets, engine solves and hit ratio, every saturation bracket,
   ``sat_gap``, design loads, and a digest of the program's own metrics
   registry.
2. Sensitivity: in one fresh process per workload, jobs alternate
   between plain and slowed, where slowed adds a fixed sleep to every
   ``LinearModel.solve``.  Alternating job by job keeps a burst of load
   on a shared machine from passing for a change.  The median slowed
   ``job_s`` of ``design`` and ``sweep`` must exceed the median plain
   one by more than the ``job_s`` bound, and so must every design stage
   and ``sweep_cold_s``.  ``saturate``, which solves no LP, must stay
   within the bound, ``grid_s`` and ``saturation_s`` included, and so
   must ``sweep_warm_s``, which reads designs back without solving.

Usage, from the repository root::

    python3 perfbench/selftest.py

Exits 0 when both parts pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("design", "saturate", "sweep")
SEED = 7
PAIRS = 3  # plain/slowed job pairs per workload
LP_DELAY = 1.0  # seconds of sleep added to every LinearModel.solve
EXACT_LAYER_COUNTS = (
    "lp.solves",
    "lp.iterations",
    "core.colgen_iterations",
    "core.stage2_iterations",
    "sim.replica_cycles",
    "sim.packets_delivered",
    "sim.sat_gap",
    "engine.solves",
    "engine.hit_ratio",
)
# Stages that solve LPs; every other stage (grid_s, saturation_s and
# sweep_warm_s) must stay within the bound.
SLOWED_STAGES = ("design_full_s", "design_colgen_s", "design_lex_s", "sweep_cold_s")


def _run(workload: str):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    lines = subprocess.run(
        argv, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.splitlines()
    detail = next(json.loads(ln[len("detail: "):]) for ln in lines if ln.startswith("detail: "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: benchmark reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def exact_repeat() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        (m1, d1), (m2, d2) = (_run(workload) for _ in range(2))
        for key in sorted(set(d1["counts"]) | set(d2["counts"])):
            if d1["counts"].get(key) != d2["counts"].get(key):
                problems.append(f"{workload}: {key} {d1['counts'].get(key)} != {d2['counts'].get(key)}")
        for key in EXACT_LAYER_COUNTS:
            if m1[key] != m2[key]:
                problems.append(f"{workload}: {key} {m1[key]} != {m2[key]}")
        print(f"exact repeat {workload}: {len(d1['counts'])} job counts and "
              f"{len(EXACT_LAYER_COUNTS)} layer counts compared", flush=True)
    return problems


def alternate_jobs(workload: str) -> dict:
    """Child process: one warm-up job, then plain and slowed jobs in turn."""
    import time

    import run  # applies the benchmark's process isolation before NumPy loads

    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from repro.lp.model import LinearModel

    solve = LinearModel.solve

    def slowed(self, *args, **kwargs):
        time.sleep(LP_DELAY)
        return solve(self, *args, **kwargs)

    setup, job = workloads.WORKLOADS[workload]
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        state = setup(SEED)
        job(state, str(run.SCRATCH))
        samples = {"plain": [], "slowed": []}
        for i in range(2 * PAIRS):
            side = "slowed" if i % 2 else "plain"
            LinearModel.solve = slowed if i % 2 else solve
            t0 = time.perf_counter()
            result = job(state, str(run.SCRATCH))
            samples[side].append({"job_s": time.perf_counter() - t0, **result.stages})
        LinearModel.solve = solve
    finally:
        run.remove_scratch()
    return samples


def sensitivity(bound: float) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--alternate", workload]
        out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
        samples = json.loads(out.strip().splitlines()[-1])
        for name in samples["plain"][0]:
            ratio = statistics.median(s[name] for s in samples["slowed"]) / statistics.median(
                s[name] for s in samples["plain"]
            )
            if name in SLOWED_STAGES or (name == "job_s" and workload != "saturate"):
                ok = ratio > 1.0 + bound
            else:
                ok = ratio <= 1.0 + bound
            print(f"slowed LP {workload:<9} {name:<16} x{ratio:.3f} "
                  f"{'ok' if ok else 'FAIL'}", flush=True)
            if not ok:
                problems.append(f"{workload}: {name} changed x{ratio:.3f} (bound {bound})")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alternate", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.alternate:
        samples = alternate_jobs(args.alternate)
        print(json.dumps(samples))
        return 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "job_s")
    problems = exact_repeat()
    problems += sensitivity(bound)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
