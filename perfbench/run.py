"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload design --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced jobs and prints the
per-layer table.  Each run repeats the workload's job until
``--seconds`` is spent and reports medians; ``setup_s`` is the median
of several fresh processes that import the program and build the
workload's inputs.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / f"run-{os.getpid()}"

# Isolation happens before NumPy loads: one BLAS/OpenMP thread per
# process keeps engine workers x threads within the core count, and the
# REPRO_* switches would shrink workloads or share a design cache.
for _var in ("REPRO_FAST", "REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE_DIR"):
    os.environ.pop(_var, None)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["TMPDIR"] = str(SCRATCH)
os.environ["REPRO_CACHE_DIR"] = str(SCRATCH / "default-cache")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("design", "saturate", "sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        from scipy.optimize._highspy import _core

        highs = "{}.{}.{}".format(
            _core.HIGHS_VERSION_MAJOR, _core.HIGHS_VERSION_MINOR, _core.HIGHS_VERSION_PATCH
        )
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "threads_per_process": {v: os.environ[v] for v in THREAD_VARS},
    }


def _setup_sample(args) -> float:
    """Wall time of a fresh process that imports and builds the inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _digest(registry) -> str:
    return hashlib.sha256(registry.canonical().encode()).hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args) -> dict:
    """Set up once, then run the job until ``args.seconds`` is spent."""
    from repro import obs

    import spans
    import workloads

    setup, job = workloads.WORKLOADS[args.workload]
    recorder = spans.Recorder() if args.trace else None
    if recorder:
        recorder.install()
    state = setup(args.seed)
    setup_layers = {}
    if recorder:
        recorder.uninstall()
        setup_layers = spans.layer_metrics(recorder.collect())

    reps, checks, first_checks = [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        registry = obs.MetricsRegistry()
        if traced:
            recorder.install()
        t0 = time.perf_counter()
        try:
            with obs.use_registry(registry):
                result = job(state, str(SCRATCH))
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            checks.append(("job raised", False, "see traceback on stderr"))
            break
        finally:
            if traced:
                recorder.uninstall()
        wall = time.perf_counter() - t0
        rep = {
            "wall": wall,
            "traced": traced,
            "stages": result.stages,
            "extras": result.extras,
            "counts": {**result.counts, "registry": _digest(registry)},
        }
        if traced:
            rep["layers"] = spans.layer_metrics(recorder.collect())
        checks.extend(result.checks)
        if not reps:
            first_checks = result.checks
        else:
            same = rep["counts"] == reps[0]["counts"]
            checks.append((f"job {len(reps) + 1} repeats job 1 counts", same, ""))
        reps.append(rep)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(reps)
        if len(reps) >= 2 and elapsed + mean > args.seconds:
            break
    # Engine pool workers have been joined, so RUSAGE_CHILDREN holds
    # their peak; the set-up processes below are not counted.
    peak_rss_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    # Fresh-process set-ups run after the jobs: when they ran first, the
    # first timed jobs after them were measurably slower.
    setup_s = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    return {
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "setup_s": setup_s,
        "setup_layers": setup_layers,
        "reps": reps,
        "checks": checks,
        "first_checks": first_checks,
    }


def summarize(args, run: dict) -> tuple[dict, dict]:
    """End-to-end or per-layer metric values, plus a detail record."""
    import workloads

    reps = run["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failed = sum(1 for _, ok, _ in run["checks"] if not ok)
    attempted = max(1, len(run["checks"]))
    stages = {
        name: _median([r["stages"][name] for r in plain])
        for name in workloads.STAGES[args.workload]
    }
    if not args.trace:
        values = {
            "setup_s": _median(run["setup_s"]),
            "job_s": _median([r["wall"] for r in reps]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    else:
        values = dict(stages)
        for key in traced[0]["layers"]:
            values[key] = _median([r["layers"][key] for r in traced])
        for key in ("topology.build_s", "traffic.sample_s"):
            values[key] = run["setup_layers"][key]
        for key in reps[0]["extras"]:
            values[key] = _median([r["extras"][key] for r in reps])
        values["failed_frac"] = failed / attempted
        # The first job also pays lazy first-call costs; leave it out.
        baseline = plain[1:] or plain
        values["trace.overhead_s"] = _median([r["wall"] for r in traced]) - _median(
            [r["wall"] for r in baseline]
        )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(reps),
        "job_walls": [r["wall"] for r in reps],
        "setup_walls": run["setup_s"],
        "traced_jobs": len(traced),
        "attempted": attempted,
        "failed": failed,
        "stages": stages,
        "counts": reps[0]["counts"],
    }
    return values, detail


def report(args, run: dict) -> int:
    spec = _spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, detail = summarize(args, run)
    for name, ok, info in run["checks"]:
        if not ok:
            print(f"FAILED {name}: {info}", file=sys.stderr)
    print(
        f"workload {args.workload}  seed {args.seed}  jobs {detail['jobs']}"
        f" ({detail['traced_jobs']} traced)  checks {detail['attempted']}"
        f" attempted, {detail['failed']} failed"
    )
    groups: dict[str, list] = {}
    for name, ok, info in run["first_checks"]:
        groups.setdefault(re.sub(r"\b\d+\b", "#", name), []).append((ok, info))
    for name, rows in groups.items():
        passed = sum(ok for ok, _ in rows)
        info = rows[0][1] if len(rows) == 1 else f"{passed} of {len(rows)} passed"
        print(f"  check {'ok  ' if passed == len(rows) else 'FAIL'} {name}: {info}")
    print(f"  {'metric':<26} {'value':>14}  unit")
    metrics = {}
    for m in section:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<26} {value:>14.6g}  {m['unit']}")
    print("env: " + json.dumps(_environment(), sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True, default=list))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            import workloads

            workloads.WORKLOADS[args.workload][0](args.seed)
            return 0
        run = measure(args)
        if not any(r["traced"] == bool(args.trace) for r in run["reps"]):
            print("perfbench: no job completed", file=sys.stderr)
            return 1
        return report(args, run)
    finally:
        remove_scratch()


if __name__ == "__main__":
    sys.exit(main())
