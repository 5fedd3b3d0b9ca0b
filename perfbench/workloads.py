"""The three benchmark workloads: what each job runs and how it is checked.

Every workload is a ``setup(seed)`` that builds topologies and traffic,
and a ``job(state, scratch)`` that runs the timed public calls.  A job
returns its stage wall times, one ``(operation, passed, detail)`` row
per checked operation, and the exact counts that must repeat whenever
the job is run again with the same seed.

Sizes are chosen so that a job takes a few seconds on a 2-core machine
and several jobs fit in one benchmark run; README.md lists them next
to the larger prototype sizes they stand in for.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import shutil
import tempfile
import time

import numpy as np

from repro.cache import DesignCache
from repro.core import design_worst_case
from repro.experiments import fig1, fig6
from repro.experiments.common import make_context
from repro.experiments.engine import Engine
from repro.metrics import worst_case_load
from repro.routing import IVAL, VAL, DimensionOrderRouting
from repro.sim import replica_grid, saturation_throughput, simulate_replicas
from repro.sim.vectorized import VectorizedSimulator
from repro.topology import Torus, TranslationGroup
from repro.traffic import uniform
from repro.verify.certificates import collect_certificates
from repro.verify.colgen import certify_colgen_design

# (stage, radix, minimize_locality).  Radix 6 (36 nodes) resolves to the
# full LP and radix 10 (100 nodes) to column generation under the
# default method="auto", one on each side of COLGEN_AUTO_NODE_THRESHOLD.
DESIGNS = (
    ("design_full_s", 6, False),
    ("design_colgen_s", 10, False),
    ("design_lex_s", 4, True),
)
# A lexicographic stage 2 re-measures its load after pinning w within
# LEXICOGRAPHIC_SLACK (1e-7) plus interior-point dust; plain designs are
# exact optima.
LOAD_RTOL = {False: 1e-9, True: 1e-6}

SIM_RADIX = 5
GRID_RATES = tuple(round(float(r), 4) for r in np.linspace(0.05, 0.95, 16))
GRID_SEEDS = 8
GRID_CYCLES, GRID_WARMUP = 250, 100
SAT_ALGORITHMS = (("DOR", DimensionOrderRouting), ("VAL", VAL), ("IVAL", IVAL))
# A bracket's probe rates follow its verdicts.  VAL's verdict at the
# first-round rate 0.7625 tips with the ensemble's seeds, and a tipped
# bracket probes 0.82-0.94 instead of 0.58-0.70: VAL delivers about 9%
# more packets and part (b) runs 10-15% longer.  Drawn from --seed, that
# split runs into a few slow seeds among fast ones.  The ensemble is
# therefore the same in every run, so part (b) does the same work for
# every seed; the workload seed still draws the grid's seeds.
SAT_SEEDS = (1, 2, 3)
SAT_CYCLES, SAT_WARMUP, SAT_ITERATIONS = 600, 150, 3

SWEEP_RADIX = 4
SWEEP_EVAL_SAMPLES, SWEEP_DESIGN_SAMPLES = 50, 12


@dataclasses.dataclass
class JobResult:
    stages: dict[str, float]
    checks: list[tuple[str, bool, str]]
    counts: dict[str, object]
    extras: dict[str, float] = dataclasses.field(default_factory=dict)


def _seeds(seed: int, count: int, stream: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ----------------------------------------------------------------------
# design: lp, core, the metrics separation oracle and verify; no sim.
# ----------------------------------------------------------------------
def setup_design(seed: int) -> dict:
    nets = {}
    for _, k, _ in DESIGNS:
        torus = Torus(k, 2)
        nets[k] = (torus, TranslationGroup(torus))
    return {"seed": seed, "nets": nets}


def _certify(torus, group, design, lexicographic, certificates, seed):
    """Duality certificates of a full-LP design, or the colgen battery."""
    if design.method == "colgen":
        report = certify_colgen_design(
            torus,
            design.flows,
            design.worst_case_load,
            lower_bound=design.colgen.lower_bound,
            group=group,
            lexicographic=lexicographic and design.colgen.stage2_iterations > 0,
            seed=seed,
        )
        return report.passed, f"colgen certificate passed={report.passed}"
    valid = bool(certificates.certificates) and certificates.all_valid
    return valid, f"{len(certificates.certificates)} LP certificates valid={valid}"


def job_design(state: dict, scratch: str) -> JobResult:
    stages, checks, counts = {}, [], {}
    for stage, k, lex in DESIGNS:
        torus, group = state["nets"][k]
        t0 = time.perf_counter()
        with collect_certificates() as certificates:
            design = design_worst_case(torus, group=group, minimize_locality=lex)
        certified, detail = _certify(
            torus, group, design, lex, certificates, state["seed"]
        )
        stages[stage] = time.perf_counter() - t0
        expected = k / 4.0
        rel = abs(design.worst_case_load - expected) / expected
        ok = certified and rel <= LOAD_RTOL[lex]
        checks.append(
            (
                f"{stage[:-2]} k{k}",
                ok,
                f"{design.method}: load {design.worst_case_load!r} vs k/4, "
                f"rel {rel:.2e}; {detail}",
            )
        )
        counts[f"{stage[:-2]}.load"] = design.worst_case_load
        counts[f"{stage[:-2]}.method"] = design.method
        if design.colgen is not None:
            counts[f"{stage[:-2]}.colgen_iterations"] = design.colgen.iterations
    return JobResult(stages, checks, counts)


# ----------------------------------------------------------------------
# saturate: sim (plus routing inside the path-table compile); no LP.
# ----------------------------------------------------------------------
def setup_saturate(seed: int) -> dict:
    torus = Torus(SIM_RADIX, 2)
    return {
        "torus": torus,
        "uniform": uniform(torus.num_nodes),
        "grid_seeds": _seeds(seed, GRID_SEEDS, 0),
        "sat_seeds": list(SAT_SEEDS),
    }


@contextlib.contextmanager
def _replica_results():
    """Every result the batched simulator returns inside the block.

    ``saturation_throughput`` keeps its probe replicas to itself, so the
    job records them at ``VectorizedSimulator.run_replicas``, which every
    batched launch goes through.
    """
    seen = []
    run_replicas = VectorizedSimulator.run_replicas

    def recording(self, *args, **kwargs):
        results = run_replicas(self, *args, **kwargs)
        seen.extend(results)
        return results

    VectorizedSimulator.run_replicas = recording
    try:
        yield seen
    finally:
        VectorizedSimulator.run_replicas = run_replicas


def _conservation(label: str, results) -> list[tuple[str, bool, str]]:
    """One check per replica: injected == delivered + backlog + dropped + lost."""
    if not results:
        return [(f"{label} replicas recorded", False, "no batched launch seen")]
    checks = []
    for i, r in enumerate(results):
        accounted = r.delivered + r.backlog + r.dropped + r.lost
        checks.append(
            (
                f"{label} replica {i} conserves packets",
                r.injected == accounted,
                f"injected {r.injected}, accounted {accounted}",
            )
        )
    return checks


def job_saturate(state: dict, scratch: str) -> JobResult:
    torus = state["torus"]
    stages, checks, counts, extras = {}, [], {}, {}

    # (a) compile-heavy: uniform traffic compiles all N^2 pairs.
    t0 = time.perf_counter()
    with _replica_results() as results:
        simulate_replicas(
            IVAL(torus),
            state["uniform"],
            replica_grid(GRID_RATES, state["grid_seeds"]),
            cycles=GRID_CYCLES,
            warmup=GRID_WARMUP,
        )
    stages["grid_s"] = time.perf_counter() - t0
    checks.extend(_conservation("grid", results))
    counts["grid.replicas"] = len(results)
    counts["grid.delivered"] = sum(r.delivered for r in results)

    # (b) cycle-loop-heavy: each algorithm under its own adversarial
    # permutation, which compiles only N pairs.  Every probe replica of
    # every bracket is checked.
    t0 = time.perf_counter()
    gaps, probes = [], {}
    for name, make in SAT_ALGORITHMS:
        alg = make(torus)
        wc = worst_case_load(alg)
        with _replica_results() as probes[name]:
            est = saturation_throughput(
                alg,
                wc.traffic_matrix(),
                seeds=state["sat_seeds"],
                cycles=SAT_CYCLES,
                warmup=SAT_WARMUP,
                iterations=SAT_ITERATIONS,
            )
        gaps.append(abs(est.midpoint - wc.throughput) / wc.throughput)
        counts[f"bracket.{name}"] = (est.lower, est.upper)
    stages["saturation_s"] = time.perf_counter() - t0
    for name, results in probes.items():
        checks.extend(_conservation(f"{name} bracket", results))
        counts[f"bracket.{name}.replicas"] = len(results)
        counts[f"bracket.{name}.delivered"] = sum(r.delivered for r in results)
    extras["sim.sat_gap"] = max(gaps)
    counts["sat_gap"] = max(gaps)
    return JobResult(stages, checks, counts, extras)


# ----------------------------------------------------------------------
# sweep: experiments.engine and cache around many mid-size LPs.
# ----------------------------------------------------------------------
def setup_sweep(seed: int) -> dict:
    ctx = make_context(
        k=SWEEP_RADIX,
        eval_samples=SWEEP_EVAL_SAMPLES,
        design_samples=SWEEP_DESIGN_SAMPLES,
        seed=seed,
    )
    # The engine's default worker count, capped at the usable cores.
    return {"ctx": ctx, "jobs": len(os.sched_getaffinity(0))}


def _figures(ctx, engine):
    return fig1.run(ctx, engine=engine).rows() + fig6.run(ctx, engine=engine).rows()


def job_sweep(state: dict, scratch: str) -> JobResult:
    ctx, jobs = state["ctx"], state["jobs"]
    stages, checks, counts, extras = {}, [], {}, {}
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        t0 = time.perf_counter()
        cold = Engine(jobs=jobs, cache=DesignCache(cache_dir), certify=True)
        cold_rows = _figures(ctx, cold)
        stages["sweep_cold_s"] = time.perf_counter() - t0
        extras["cache.bytes"] = float(
            sum(e.stat().st_size for e in os.scandir(cache_dir))
        )

        t0 = time.perf_counter()
        warm = Engine(jobs=jobs, cache=DesignCache(cache_dir), certify=True)
        warm_rows = _figures(ctx, warm)
        stages["sweep_warm_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    tasks = len(cold.metrics) + len(warm.metrics)
    checks.append(
        (
            "cold pass solves every task",
            cold.hits == 0 and cold.solves > 0,
            f"{cold.solves} solved, {cold.hits} cache hits",
        )
    )
    checks.append(
        (
            "warm pass reads every task back unchanged",
            warm.solves == 0 and warm_rows == cold_rows,
            f"{warm.solves} solved, {warm.hits} cache hits, "
            f"rows identical={warm_rows == cold_rows}",
        )
    )
    counts.update(
        {
            "engine.cold_solves": cold.solves,
            "engine.cold_hits": cold.hits,
            "engine.warm_solves": warm.solves,
            "engine.warm_hits": warm.hits,
            "rows_digest": hashlib.sha256(repr(cold_rows).encode()).hexdigest()[:16],
        }
    )
    extras.update(
        {
            "engine.tasks": float(tasks),
            "engine.solves": float(cold.solves + warm.solves),
            "engine.hit_ratio": (cold.hits + warm.hits) / tasks,
        }
    )
    return JobResult(stages, checks, counts, extras)


WORKLOADS = {
    "design": (setup_design, job_design),
    "saturate": (setup_saturate, job_saturate),
    "sweep": (setup_sweep, job_sweep),
}

#: Stage metrics of each workload (per-layer table; zero elsewhere).
STAGES = {
    "design": tuple(stage for stage, _, _ in DESIGNS),
    "saturate": ("grid_s", "saturation_s"),
    "sweep": ("sweep_cold_s", "sweep_warm_s"),
}
