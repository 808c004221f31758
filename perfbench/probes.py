"""Per-layer probes for the traced run, installed from outside ``src/``.

A :class:`Probe` swaps wrappers onto the module attributes through
which the program reaches each layer's public functions (for example
``repro.core.engine.generate_candidates`` or
``repro.core.candidates.intersection_area``), counting calls and their
wall time, and restores the originals afterwards.  It adds no tracing
to the program: span trees (``engine.run`` / ``stream.run`` stages,
adopted shard spans) and metrics-registry counters (``sizing.lp_solves``,
``planner.combinations``, ``service.queue.wait_s``) are the ones the
program already emits through :mod:`repro.obs`; the probe only reads
them.

Calls made inside pool workers are not counted by the wrappers (each
worker holds its own copy of the counters); on ``stream-w2`` the
stage-level numbers therefore come from the stage spans and the
registry counters the workers ship back.

:data:`LAYER_METRICS` lists every per-layer metric with its unit, the
better direction and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import re
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs

__all__ = ["LAYER_METRICS", "Probe", "layer_metrics", "shape_check"]

#: name -> (unit, better, what it should move)
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "gdsii.read_s": ("s", "lower", "fill_s on contest-m"),
    "gdsii.read_mb_per_s": ("MB/s", "higher", "fill_s on contest-m"),
    "gdsii.write_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "gdsii.write_mb_per_s": ("MB/s", "higher", "eco_p50_ms on eco-session"),
    "stream.scan_s": ("s", "lower", "fill_s, peak_rss_mb on stream-w2"),
    "stream.bucket_s": ("s", "lower", "fill_s, peak_rss_mb on stream-w2"),
    "layout.spill_bytes": ("bytes", "lower", "fill_s, peak_rss_mb on stream-w2"),
    "layout.spill_chunks": ("count", "lower", "fill_s, peak_rss_mb on stream-w2"),
    "layout.drc_s": ("s", "lower", "fill_s on every fill workload"),
    "density.analysis_s": ("s", "lower", "fill_s on contest-m"),
    "density.windows_per_s": ("1/s", "higher", "fill_s on contest-m"),
    "density.refresh_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "density.fill_map_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "density.fill_map_calls": ("count", "lower", "eco_p50_ms on eco-session"),
    "planner.plan_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "planner.calls": ("count", "lower", "eco_p50_ms on eco-session"),
    "planner.combinations": ("count", "lower", "eco_p50_ms on eco-session"),
    "candidates.s": ("s", "lower", "fill_s on large-window"),
    "candidates.count": ("count", "lower", "fill_s on large-window"),
    "candidates.per_s": ("1/s", "higher", "fill_s on large-window"),
    "candidates.kept_ratio": ("ratio", "higher", "fill_s on large-window"),
    "geometry.intersection_area_calls": ("count", "lower", "fill_s on large-window"),
    "geometry.intersection_area_s": ("s", "lower", "fill_s on large-window"),
    "geometry.rect_set_intersect_calls": ("count", "lower", "fill_s on large-window"),
    "geometry.rect_set_intersect_s": ("s", "lower", "fill_s on large-window"),
    "sizing.s": ("s", "lower", "fill_s on contest-m, quality everywhere"),
    "netflow.lp_solves": ("count", "lower", "fill_s on contest-m"),
    "netflow.lp_solves_per_s": ("1/s", "higher", "fill_s on contest-m"),
    "sizing.dropped_ratio": ("ratio", "lower", "quality everywhere"),
    "engine.scan_self_s": ("s", "lower", "fill_s on stream-w2"),
    "engine.bucket_self_s": ("s", "lower", "fill_s on stream-w2"),
    "engine.analysis_self_s": ("s", "lower", "fill_s on every fill workload"),
    "engine.planning_self_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "engine.candidates_self_s": ("s", "lower", "fill_s on large-window"),
    "engine.replanning_self_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "engine.sizing_self_s": ("s", "lower", "fill_s on contest-m"),
    "engine.insertion_self_s": ("s", "lower", "fill_s on contest-m"),
    "engine.drc_self_s": ("s", "lower", "fill_s on stream-w2"),
    "engine.io_write_self_s": ("s", "lower", "fill_s on stream-w2"),
    "parallel.run_sharded_calls": ("count", "lower", "fill_s, fill_cpu_s on stream-w2"),
    "parallel.run_sharded_s": ("s", "lower", "fill_s, fill_cpu_s on stream-w2"),
    "parallel.overhead_s": ("s", "lower", "fill_s, fill_cpu_s on stream-w2"),
    "parallel.worker_rss_mb": ("MB", "lower", "worker_rss_mb on stream-w2"),
    "eco.apply_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "eco.affected_windows": ("count", "lower", "eco_p50_ms on eco-session"),
    "eco.fill_index_build_s": ("s", "lower", "eco_p50_ms on eco-session"),
    "service.queue_wait_ms": ("ms", "lower", "eco_p90_ms on eco-session"),
    "service.overhead_ms": ("ms", "lower", "eco_p90_ms on eco-session"),
    "trace.overhead_pct": ("%", "lower", "the traced run's own cost"),
}

#: stage spans whose self time is reported, in pipeline order
STAGES = (
    "scan", "bucket", "analysis", "planning", "candidates",
    "replanning", "sizing", "insertion", "drc", "io.write",
)
_ROOT_SPANS = ("engine.run", "stream.run")
#: a shard span adopted from a worker: ``<label>[<index>]``
_SHARD_SPAN = re.compile(r"\[\d+\]$")


class Probe:
    """Counts calls into each layer and their wall time while installed.

    ``install()``/``uninstall()`` bracket the traced operations only:
    they swap the wrappers in and out and make the probe's own
    :mod:`repro.obs` tracer and metrics registry the active ones, so
    untraced operations record into the program's defaults as usual.
    A service captures the active tracer and registry when it starts,
    so for one :meth:`bind` makes them active for good before the start.
    :meth:`mark`/:meth:`collect` delimit the span roots and registry
    counters the traced operations produced.
    """

    def __init__(self) -> None:
        import repro.core as core
        import repro.core.candidates as candidates
        import repro.core.engine as engine
        import repro.core.stream as stream
        import repro.density.analysis as analysis
        import repro.eco as eco
        import repro.gdsii as gdsii
        import repro.parallel as parallel
        import repro.service.api as api
        import repro.service.session as session
        from repro.layout import Layout
        from repro.service import ServiceClient

        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.amount: Dict[str, float] = defaultdict(float)
        #: (start, end) tracer offsets of every run_sharded call
        self.sharded: List[Tuple[float, float]] = []
        self.shard_overhead = 0.0
        self.roots: List[obs.Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.ops = 0
        self.tracer = obs.Tracer()
        self.registry = obs.MetricsRegistry()
        self._bound = False
        self._restore_obs: List[Callable[[], None]] = []

        amount = self.amount

        def grid_windows(args: tuple, result: Any) -> None:
            amount["density.windows"] += args[1].num_windows

        def read_bytes(args: tuple, result: Any) -> None:
            amount["gdsii.read_bytes"] += len(args[0])

        def write_bytes(args: tuple, result: Any) -> None:
            amount["gdsii.write_bytes"] += len(result)

        def candidates_made(args: tuple, result: Any) -> None:
            amount["candidates.count"] += sum(
                len(rects) for per_layer in result.values() for rects in per_layer.values()
            )

        def spilled(args: tuple, result: Any) -> None:
            amount["layout.spill_bytes"] += result.bytes_spilled
            amount["layout.spill_chunks"] += result.chunks

        def eco_windows(args: tuple, result: Any) -> None:
            amount["eco.affected_windows"] += len(result.affected_windows)

        self._targets: List[Tuple[Any, str, str, Optional[Callable[[tuple, Any], None]]]] = [
            (gdsii, "layout_from_gdsii", "gdsii.read", read_bytes),
            (api, "layout_from_gdsii", "gdsii.read", read_bytes),
            (gdsii, "gdsii_bytes", "gdsii.write", write_bytes),
            (api, "gdsii_bytes", "gdsii.write", write_bytes),
            (Layout, "check_drc", "layout.drc", None),
            (core, "stream_fill", "stream.fill", spilled),
            (engine, "analyze_layout", "density.analysis", grid_windows),
            (session, "analyze_layout", "density.analysis", grid_windows),
            (eco, "refresh_analysis", "density.refresh", None),
            (analysis, "fill_density_map", "density.fill_map", None),
            (engine, "plan_targets", "planner.plan", None),
            (stream, "plan_targets", "planner.plan", None),
            (engine, "generate_candidates", "candidates", candidates_made),
            (candidates, "intersection_area", "geometry.intersection_area", None),
            (candidates, "rect_set_intersect", "geometry.rect_set_intersect", None),
            (engine, "size_fills", "sizing", None),
            (ServiceClient, "request", "service.request", None),
            (api, "apply_eco", "eco.apply", eco_windows),
            (api, "build_fill_indexes", "eco.fill_index_build", None),
        ]
        self._parallel = parallel
        self._saved: List[Tuple[Any, str, Any]] = []
        self._mark: Tuple[int, Dict[str, float]] = (0, {})

    # -- wrappers --------------------------------------------------------
    def _timed(
        self, key: str, fn: Callable[..., Any], after: Optional[Callable[[tuple, Any], None]]
    ) -> Callable[..., Any]:
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            result = fn(*args, **kwargs)
            seconds[key] += clock() - t0
            calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _sharded(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = obs.current_span()
            siblings = parent.children if parent is not None else probe.tracer.roots
            before = len(siblings)
            start = obs.current_offset()
            result = fn(*args, **kwargs)
            end = obs.current_offset()
            probe.sharded.append((start, end))
            probe.calls["parallel.run_sharded"] += 1
            probe.seconds["parallel.run_sharded"] += end - start
            slowest = max((s.seconds for s in siblings[before:]), default=0.0)
            probe.shard_overhead += max(0.0, end - start - slowest)
            return result

        return wrapper

    def bind(self) -> None:
        """Keep the probe's tracer and registry active for the whole process."""
        obs.set_tracer(self.tracer)
        obs.metrics.set_registry(self.registry)
        self._bound = True

    def install(self) -> None:
        if not self._bound:
            self._restore_obs = [
                obs.set_tracer(self.tracer),
                obs.metrics.set_registry(self.registry),
            ]
        for owner, attr, key, after in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(key, original, after))
        original = self._parallel.run_sharded
        self._saved.append((self._parallel, "run_sharded", original))
        self._parallel.run_sharded = self._sharded(original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        while self._restore_obs:
            self._restore_obs.pop()()

    # -- span roots and counters of the traced operations -----------------
    def _counter_values(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, inst in self.registry.instruments().items():
            if isinstance(inst, obs.Counter):
                out[name] = inst.value
            elif isinstance(inst, obs.Histogram):
                out[name + ".count"] = inst.count
                out[name + ".total"] = inst.total
        return out

    def mark(self) -> None:
        """Start of one traced operation."""
        self._mark = (len(self.tracer.roots), self._counter_values())

    def collect(self) -> None:
        """End of one traced operation: keep its roots and counter deltas."""
        first, before = self._mark
        self.roots.extend(self.tracer.roots[first:])
        for name, value in self._counter_values().items():
            self.counters[name] += value - before.get(name, 0.0)
        self.ops += 1


def _walk(roots: Iterable[obs.Span], name: str) -> Iterable[obs.Span]:
    for root in roots:
        for _, sp in root.walk():
            if sp.name == name:
                yield sp


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def stage_seconds(probe: Probe) -> Dict[str, Tuple[float, float]]:
    """Per stage: (total seconds, self seconds) over every pipeline run.

    Self time is the stage's duration minus the part of its interval
    covered by its program child spans or by ``run_sharded`` calls.
    Adopted shard spans are left out of the cover: their offsets are
    rebased on adoption, so the ``run_sharded`` interval that ran them
    stands in for them.
    """
    out: Dict[str, List[float]] = {}
    for run in (sp for name in _ROOT_SPANS for sp in _walk(probe.roots, name)):
        for stage in run.children:
            lo, hi = stage.start_offset, stage.start_offset + stage.seconds
            cover = [
                (max(lo, c.start_offset), min(hi, c.start_offset + c.seconds))
                for c in stage.children
                if not _SHARD_SPAN.search(c.name)
            ]
            cover += [(max(lo, a), min(hi, b)) for a, b in probe.sharded if b > lo and a < hi]
            own = max(0.0, stage.seconds - _union_length(cover))
            acc = out.setdefault(stage.name, [0.0, 0.0])
            acc[0] += stage.seconds
            acc[1] += own
    return {name: (v[0], v[1]) for name, v in out.items()}


def _span_total(probe: Probe, name: str) -> float:
    return sum(sp.seconds for sp in _walk(probe.roots, name))


def _span_counter(probe: Probe, name: str) -> float:
    return sum(
        sp.counters.get(name, 0.0) for root in probe.roots for _, sp in root.walk()
    )


def layer_metrics(
    probe: Probe,
    *,
    worker_rss_mb: float = 0.0,
    overhead_pct: float = 0.0,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`, per traced operation.

    Times and counts are totals over the traced operations divided by
    their number; rates and ratios are formed from those totals.  A
    layer the workload never reaches reads 0.
    """
    ops = max(1, probe.ops)
    calls, secs, amount, counters = probe.calls, probe.seconds, probe.amount, probe.counters
    stages = stage_seconds(probe)

    def stage_total(name: str) -> float:
        return stages.get(name, (0.0, 0.0))[0]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    # Wrapped calls where the process makes them; the stage spans and
    # their counters on the streaming path, whose sweeps call the
    # per-window bodies directly or in pool workers.
    streamed = "scan" in stages
    if streamed:
        analysis_s = stage_total("analysis")
        windows = _span_counter(probe, "engine.windows")
        candidates_s = stage_total("candidates")
        num_candidates = _span_counter(probe, "engine.candidates")
        sizing_s = stage_total("sizing")
    else:
        analysis_s = secs["density.analysis"]
        windows = amount["density.windows"]
        candidates_s = secs["candidates"]
        num_candidates = amount["candidates.count"]
        sizing_s = secs["sizing"]
    lp_solves = counters.get("sizing.lp_solves", 0.0)
    fills = _span_counter(probe, "engine.fills")
    dropped = _span_counter(probe, "engine.dropped_fills")
    eco_apply = secs["eco.apply"]
    service_requests = counters.get("service.queue.wait_s.count", 0.0)

    m: Dict[str, float] = {
        "gdsii.read_s": secs["gdsii.read"] / ops,
        "gdsii.read_mb_per_s": rate(amount["gdsii.read_bytes"] / 2**20, secs["gdsii.read"]),
        "gdsii.write_s": secs["gdsii.write"] / ops,
        "gdsii.write_mb_per_s": rate(amount["gdsii.write_bytes"] / 2**20, secs["gdsii.write"]),
        "stream.scan_s": stage_total("scan") / ops,
        "stream.bucket_s": stage_total("bucket") / ops,
        "layout.spill_bytes": amount["layout.spill_bytes"] / ops,
        "layout.spill_chunks": amount["layout.spill_chunks"] / ops,
        "layout.drc_s": (secs["layout.drc"] + stage_total("drc")) / ops,
        "density.analysis_s": analysis_s / ops,
        "density.windows_per_s": rate(windows, analysis_s),
        "density.refresh_s": secs["density.refresh"] / ops,
        "density.fill_map_s": secs["density.fill_map"] / ops,
        "density.fill_map_calls": calls["density.fill_map"] / ops,
        "planner.plan_s": secs["planner.plan"] / ops,
        "planner.calls": calls["planner.plan"] / ops,
        "planner.combinations": counters.get("planner.combinations", 0.0) / ops,
        "candidates.s": candidates_s / ops,
        "candidates.count": num_candidates / ops,
        "candidates.per_s": rate(num_candidates, candidates_s),
        "candidates.kept_ratio": rate(fills, num_candidates),
        "geometry.intersection_area_calls": calls["geometry.intersection_area"] / ops,
        "geometry.intersection_area_s": secs["geometry.intersection_area"] / ops,
        "geometry.rect_set_intersect_calls": calls["geometry.rect_set_intersect"] / ops,
        "geometry.rect_set_intersect_s": secs["geometry.rect_set_intersect"] / ops,
        "sizing.s": sizing_s / ops,
        "netflow.lp_solves": lp_solves / ops,
        "netflow.lp_solves_per_s": rate(lp_solves, sizing_s),
        "sizing.dropped_ratio": rate(dropped, num_candidates),
        "parallel.run_sharded_calls": calls["parallel.run_sharded"] / ops,
        "parallel.run_sharded_s": secs["parallel.run_sharded"] / ops,
        "parallel.overhead_s": probe.shard_overhead / ops,
        "parallel.worker_rss_mb": worker_rss_mb,
        "eco.apply_s": eco_apply / ops,
        "eco.affected_windows": rate(amount["eco.affected_windows"], calls["eco.apply"]),
        "eco.fill_index_build_s": secs["eco.fill_index_build"] / ops,
        "service.queue_wait_ms": 1000.0 * rate(
            counters.get("service.queue.wait_s.total", 0.0), service_requests
        ),
        "service.overhead_ms": 1000.0 * rate(
            secs["service.request"] - eco_apply - secs["gdsii.write"], calls["service.request"]
        ),
        "trace.overhead_pct": overhead_pct,
    }
    for stage in STAGES:
        key = "engine." + stage.replace(".", "_") + "_self_s"
        m[key] = stages.get(stage, (0.0, 0.0))[1] / ops
    return {name: m[name] for name in LAYER_METRICS}


def shape_check(workload: str, probe: Probe, metrics: Dict[str, float]) -> Tuple[bool, str]:
    """Assert the stage split the workload was chosen for."""
    stages = {name: total for name, (total, _) in stage_seconds(probe).items()}
    run_s = _span_total(probe, "engine.run")
    if workload == "large-window":
        share = stages.get("candidates", 0.0) / run_s if run_s else 0.0
        calls = metrics["geometry.intersection_area_calls"]
        ok = share >= 0.70 and calls > 0
        return ok, f"candidates {share:.0%} of engine.run (need >= 70%), intersection_area calls {calls:.0f} (need > 0)"
    if workload == "contest-m":
        largest = max(stages, key=lambda k: stages[k]) if stages else "none"
        split = ", ".join(f"{k}={v:.2f}s" for k, v in stages.items())
        return largest == "sizing", f"largest stage {largest} (need sizing): {split}"
    if workload == "eco-session":
        lhs = metrics["planner.plan_s"] + metrics["gdsii.write_s"]
        rhs = metrics["candidates.s"] + metrics["sizing.s"]
        return lhs > rhs, f"planner.plan_s + gdsii.write_s = {lhs:.3f}s vs candidates.s + sizing.s = {rhs:.3f}s (need >)"
    if workload == "stream-w2":
        calls = metrics["parallel.run_sharded_calls"]
        return calls > 0, f"parallel.run_sharded_calls {calls:.0f} per fill (need > 0)"
    raise KeyError(workload)
