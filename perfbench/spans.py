"""Span recording around public calls into the program's layers.

The benchmark never edits program code: a :class:`Recorder` replaces
public functions and methods with wrappers for the duration of one
traced job and restores the originals afterwards.  Each wrapper opens a
span named ``perfbench:<name>`` with a ``layer`` attr on the program's
own tracer (:mod:`repro.obs`), which every traced job gets fresh, and
adds a few attributes taken from the call's arguments and result.

Design-task LPs of the ``sweep`` workload run in engine pool workers.
The engine already ships each worker's trace events back with the task
result and rebases their span paths under its open ``Engine.run`` span,
so worker spans arrive in the same event list as the others.  A span's
parent is the nearest ``perfbench:`` segment of its path (or the
program's ``engine.solve_task``, the root of a worker's events), taken
from the spans with that path whose interval holds the child's.
"""

from __future__ import annotations

import bisect
import collections
import functools
import inspect
import sys

from repro import obs

PREFIX = "perfbench:"
# The program's own span around one engine task; in a pool worker it
# encloses every span the worker ships back.
TASK_SPAN = "engine.solve_task"


def _lp_solve_attrs(call, result):
    stats = call["self"].stats()
    return {
        "iterations": int(result.iterations),
        "rows": int(stats["eq_rows"] + stats["ub_rows"]),
        "nnz": int(stats["nonzeros"]),
    }


def _design_attrs(call, result):
    stats = result.colgen
    if stats is None:
        return {"method": result.method}
    return {
        "method": result.method,
        "colgen_iterations": int(stats.iterations),
        "colgen_rows": int(stats.rows_generated),
        "stage2_iterations": int(stats.stage2_iterations),
    }


def _verdict_attrs(call, result):
    """Certificates have ``valid``; verification reports have ``passed``."""
    passed = result.valid if hasattr(result, "valid") else result.passed
    return {"passed": bool(passed)}


def _compile_attrs(call, result):
    support = call["traffic"] > 0.0
    return {"pairs": int(support.sum() - support.diagonal().sum())}


def _run_replicas_attrs(call, result):
    return {
        "replica_cycles": int(len(call["replicas"]) * call["cycles"]),
        "delivered": int(sum(r.delivered for r in result)),
    }


class Recorder:
    """The patches that feed the program's tracer with benchmark spans."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, attrs=None):
        span_name = PREFIX + name
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(span_name, layer=layer) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span.event["attrs"].update(attrs(call.arguments, result))
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def patch_function(self, module, attr: str, name: str, layer: str, attrs=None):
        """Wrap ``module.attr`` and its aliases in the program and workloads."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, layer, attrs)
        targets = [module] + [
            mod
            for key, mod in list(sys.modules.items())
            if (key.startswith("repro") or key == "workloads")
            and mod is not None
            and mod is not module
        ]
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, layer: str, attrs=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, layer, attrs))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        """Start a fresh tracer and wrap every traced public entry point."""
        obs.configure()
        import repro.experiments.engine as engine
        import repro.experiments.fig1  # noqa: F401  (bind aliases before patching)
        import repro.experiments.fig6  # noqa: F401
        import repro.lp.model as lp_model
        import repro.metrics.summary as summary
        import repro.metrics.worst_case_eval as wce
        import repro.core.worst_case as core_wc
        import repro.sim.vectorized as vec
        import repro.sim.measure  # noqa: F401
        import repro.topology.symmetry as symmetry
        import repro.topology.torus as torus
        import repro.traffic.doubly_stochastic as ds
        import repro.traffic.patterns as patterns
        import repro.verify.certificates as certs
        import repro.verify.colgen as vcolgen
        from repro.cache import DesignCache
        from repro.routing.base import ObliviousRouting

        self.patch_method(lp_model.LinearModel, "solve", "lp.solve", "lp", _lp_solve_attrs)
        self.patch_function(lp_model, "linprog", "lp.highs", "lp")
        self.patch_function(core_wc, "design_worst_case", "core.design", "core", _design_attrs)
        self.patch_function(wce, "separate_worst_case", "metrics.separate", "metrics")
        self.patch_function(wce, "worst_case_load", "metrics.worst_case", "metrics")
        self.patch_function(summary, "average_case_load", "metrics.avg_case", "metrics")
        self.patch_function(certs, "certify_solution", "verify.certify", "verify", _verdict_attrs)
        self.patch_function(vcolgen, "certify_colgen_design", "verify.certify", "verify", _verdict_attrs)
        self.patch_function(certs, "recheck_cached_doc", "verify.recheck", "verify", _verdict_attrs)
        routing_classes = [ObliviousRouting]
        for cls in routing_classes:
            routing_classes.extend(cls.__subclasses__())
        for cls in routing_classes:
            if "path_distribution" in cls.__dict__:
                self.patch_method(cls, "path_distribution", "routing.path_dist", "routing")
        self.patch_method(vec.VectorizedSimulator, "__init__", "sim.compile", "sim", _compile_attrs)
        self.patch_method(vec.VectorizedSimulator, "run_replicas", "sim.run", "sim", _run_replicas_attrs)
        self.patch_method(engine.Engine, "run", "engine.run", "engine")
        self.patch_method(DesignCache, "get", "cache.get", "cache")
        self.patch_method(DesignCache, "put", "cache.put", "cache")
        self.patch_method(torus.Torus, "__init__", "topology.build", "topology")
        self.patch_method(symmetry.TranslationGroup, "__init__", "topology.build", "topology")
        self.patch_function(patterns, "uniform", "traffic.sample", "traffic")
        self.patch_function(ds, "sample_traffic_set", "traffic.sample", "traffic")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def collect(self) -> list[dict]:
        """The benchmark's spans and the worker task spans; resets the tracer.

        Each span is a flat dict: name (without the prefix), layer, path,
        pid, start, end and the attributes its wrapper added.
        """
        spans = []
        for ev in obs.get_tracer().events:
            if ev["ev"] != "span":
                continue
            if ev["name"].startswith(PREFIX):
                attrs = dict(ev["attrs"])
                span = {"name": ev["name"][len(PREFIX):], "layer": attrs.pop("layer"), **attrs}
            elif ev["name"] == TASK_SPAN:
                span = {"name": TASK_SPAN, "layer": "pool"}
            else:
                continue
            span.update(path=ev["path"], pid=ev["pid"], start=ev["t0"], end=ev["t0"] + ev["dur"])
            spans.append(span)
        obs.configure()
        return spans


def _parent_path(path: str) -> str:
    """Path of the nearest recorded ancestor ('' for a root span)."""
    segments = path.split("/")[:-1]
    while segments and not (segments[-1].startswith(PREFIX) or segments[-1] == TASK_SPAN):
        segments.pop()
    return "/".join(segments)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals: parallel children count once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the time covered by its direct children.

    The parent is the span on the child's parent path whose interval
    holds the child, in the child's own process when there is one there
    (worker spans nest under ``Engine.run`` of the main process).
    """
    groups = collections.defaultdict(list)
    for i in sorted(range(len(spans)), key=lambda i: spans[i]["start"]):
        groups[spans[i]["path"], spans[i]["pid"]].append(i)
    starts = {key: [spans[i]["start"] for i in ids] for key, ids in groups.items()}
    pids = collections.defaultdict(set)
    for path, pid in groups:
        pids[path].add(pid)

    def parent_of(child):
        path = _parent_path(child["path"])
        if not path:
            return None
        # Same-path spans of one process never overlap, so the last one
        # to start before the child is the only candidate there.
        for pid in sorted(pids[path], key=lambda pid: pid != child["pid"]):
            ids = groups[path, pid]
            at = bisect.bisect_right(starts[path, pid], child["start"]) - 1
            if at >= 0 and spans[ids[at]]["end"] >= child["end"]:
                return ids[at]
        raise ValueError(f"no span encloses {child['path']} (pid {child['pid']})")

    children = collections.defaultdict(list)
    for s in spans:
        parent = parent_of(s)
        if parent is not None:
            children[parent].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _covered(children[i]) for i, s in enumerate(spans)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer table of one traced job."""
    own = self_times(spans)

    def total(name=None, layer=None, key=None):
        out = 0.0
        for s, t in zip(spans, own):
            if (name is None or s["name"] == name) and (layer is None or s["layer"] == layer):
                out += t if key is None else s.get(key, 0)
        return out

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def peak(name, key):
        return max((s.get(key, 0) for s in spans if s["name"] == name), default=0)

    lp_solve_s = total(layer="lp")
    lp_highs_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "lp.highs")
    run_s = total("sim.run")
    replica_cycles = total("sim.run", key="replica_cycles")
    verify_spans = [s for s in spans if s["layer"] == "verify"]
    return {
        "lp.solves": count("lp.solve"),
        "lp.iterations": total("lp.solve", key="iterations"),
        "lp.solve_s": lp_solve_s,
        "lp.highs_s": lp_highs_s,
        "lp.assemble_s": lp_solve_s - lp_highs_s,
        "lp.rows_max": peak("lp.solve", "rows"),
        "lp.nnz_max": peak("lp.solve", "nnz"),
        "core.design_s": total(layer="core"),
        "core.colgen_iterations": total("core.design", key="colgen_iterations"),
        "core.colgen_rows": total("core.design", key="colgen_rows"),
        "core.stage2_iterations": total("core.design", key="stage2_iterations"),
        "metrics.separate_calls": count("metrics.separate"),
        "metrics.separate_s": total("metrics.separate"),
        "metrics.worst_case_s": total("metrics.worst_case"),
        "metrics.avg_case_s": total("metrics.avg_case"),
        "verify.certificates": len(verify_spans),
        "verify.failed": sum(1 for s in verify_spans if not s.get("passed", True)),
        "verify.certify_s": total(layer="verify"),
        "routing.path_dist_calls": count("routing.path_dist"),
        "routing.path_dist_s": total(layer="routing"),
        "sim.compile_s": total("sim.compile"),
        "sim.compile_pairs": total("sim.compile", key="pairs"),
        "sim.run_s": run_s,
        "sim.launches": count("sim.run"),
        "sim.replica_cycles": replica_cycles,
        "sim.packets_delivered": total("sim.run", key="delivered"),
        "sim.ns_per_replica_cycle": 1e9 * run_s / replica_cycles if replica_cycles else 0.0,
        "engine.run_s": total(layer="engine"),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "topology.build_s": total(layer="topology"),
        "traffic.sample_s": total(layer="traffic"),
    }
