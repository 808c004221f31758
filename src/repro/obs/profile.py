"""Thread-based sampling profiler with span-aware stacks.

A :class:`SamplingProfiler` wakes every ``period_ms``, reads the
target thread's Python frame stack via ``sys._current_frames()``, and
folds it into a :class:`ProfileCollector` — the classic
``outer;inner;leaf count`` folded-stack form flamegraph.pl consumes.
Each sample is prefixed with the target thread's *open span names*
(read off the tracer's per-thread stack), so the resulting flamegraph
groups CPU time under the engine stages the span tree records:
``engine.run;sizing;repro.core.sizing.size_fills;... 42``.  A sample
taken inside one of the entry points of :data:`_ROOT_FRAMES` while no
span is open is only counted (``unattributed_samples``), so every
folded stack of a command, shard or request starts at a span.

Sampling is cooperative and read-only: no signals (``setitimer``
would collide with the shard workers and only fires on the main
thread), no sys.setprofile overhead on the profiled code.  The
profiled thread never blocks; worst case a sample lands between two
bytecodes and is one frame stale.  Overhead at the default 10 ms
period is well under 5% (one frame walk per wakeup).

Shipping across shard workers: ``run_sharded`` arms a worker-local
collector in each worker (same period), ships its folded counts back
in ``ShardOutcome.profile``, and the parent merges them in shard
order under the parent's current span path — the same contract spans
and metrics follow.

Usage::

    from repro import obs

    with obs.profile.profiled(period_ms=10.0):
        engine.run(...)
    # collector published onto the active tracer; record_run() saves
    # it as a "profile" event in the run record.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from types import FrameType
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .spans import Tracer, active_tracer

__all__ = [
    "ProfileCollector",
    "SamplingProfiler",
    "active_collector",
    "attached",
    "profiled",
    "publish",
]


class ProfileCollector:
    """Accumulates folded stack samples; thread-safe.

    ``folded`` maps a ``;``-joined stack path to its sample count.
    One collector is shared by the caller-thread sampler and the
    merge-back of worker-side counts, so a whole sharded run folds
    into a single flamegraph.
    """

    def __init__(self, period_ms: float = 10.0, max_frames: int = 32):
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {period_ms}")
        self.period_ms = float(period_ms)
        self.max_frames = max_frames
        self.samples = 0
        #: samples taken inside a span-structured entry point while no
        #: span was open (e.g. between two CLI stages); counted, not
        #: folded, so every folded stack starts at a recorded span
        self.unattributed_samples = 0
        self._folded: Dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, key: str) -> None:
        """Record one sample of the ``;``-joined stack ``key``."""
        with self._lock:
            self.samples += 1
            self._folded[key] = self._folded.get(key, 0) + 1

    def add_unattributed(self) -> None:
        """Record one sample that no open span covers."""
        with self._lock:
            self.unattributed_samples += 1

    def merge_folded(
        self, counts: Dict[str, int], prefix: Optional[str] = None
    ) -> None:
        """Fold externally captured counts in, optionally re-rooted.

        ``prefix`` (a ``;``-joined span path) is prepended to every
        incoming key — how worker-side samples, whose stacks start at
        the worker's own span root, get grafted under the parent's
        current stage (e.g. ``engine.run;candidates``).
        """
        with self._lock:
            for key in sorted(counts):
                n = counts[key]
                full = f"{prefix};{key}" if prefix else key
                self.samples += n
                self._folded[full] = self._folded.get(full, 0) + n

    def folded_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._folded)

    def stage_sample_counts(self, prefix: str) -> Dict[str, int]:
        """Samples per direct child path segment under ``prefix``.

        With ``prefix="engine.run"``, a key
        ``engine.run;sizing;repro...;... 7`` contributes 7 to
        ``{"sizing": 7}`` — per-stage CPU attribution for the span
        tree annotations.
        """
        head = prefix + ";"
        out: Dict[str, int] = {}
        with self._lock:
            for key, n in self._folded.items():
                if not key.startswith(head):
                    continue
                rest = key[len(head):]
                child = rest.split(";", 1)[0]
                out[child] = out.get(child, 0) + n
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form, the run record's ``profile`` event payload."""
        with self._lock:
            return {
                "period_ms": self.period_ms,
                "samples": self.samples,
                "unattributed_samples": self.unattributed_samples,
                "folded": dict(sorted(self._folded.items())),
            }


#: frames at which the outward stack walk stops: everything below a
#: shard worker's entry point, a service worker's request executor, or
#: the CLI dispatcher is interpreter / thread / fork bootstrap noise
#: (runpy, threading._bootstrap, multiprocessing spawn) that would make
#: every flamegraph root meaninglessly deep
_ROOT_FRAMES = frozenset(
    {
        "repro.parallel.executor._execute",
        "repro.service.api._execute",
        "repro.cli.main",
    }
)


def _frame_names(
    frame: Optional[FrameType], max_frames: int
) -> Tuple[List[str], bool]:
    """``module.function`` names outermost→innermost, innermost kept,
    and whether the walk stopped at one of :data:`_ROOT_FRAMES`."""
    names: List[str] = []
    rooted = False
    f = frame
    while f is not None:
        module = f.f_globals.get("__name__", "?")
        name = f"{module}.{f.f_code.co_name}"
        names.append(name)
        if name in _ROOT_FRAMES:
            rooted = True
            break
        f = f.f_back
    names.reverse()
    if len(names) > max_frames:
        names = names[-max_frames:]
    return names, rooted


class SamplingProfiler:
    """Daemon thread sampling one target thread's stack periodically.

    ``target_ident`` defaults to the *constructing* thread — the usual
    shape is "profile me": construct + start on the thread doing the
    work.  The tracer (for span-path prefixes) defaults to the tracer
    active where the profiler is constructed, so samples land under
    the same span names the run record will contain.
    """

    def __init__(
        self,
        collector: ProfileCollector,
        tracer: Optional[Tracer] = None,
        target_ident: Optional[int] = None,
    ):
        self.collector = collector
        self._tracer = tracer if tracer is not None else active_tracer()
        self._target = (
            target_ident if target_ident is not None else threading.get_ident()
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        parts = self._tracer.stack_names(self._target)
        names, rooted = _frame_names(frame, self.collector.max_frames)
        if not parts and rooted:
            # Inside a repro entry point but outside its spans: folding
            # it would root a stack at a module frame, not a span.
            self.collector.add_unattributed()
            return
        parts.extend(names)
        if parts:
            self.collector.add(";".join(parts))

    def _run(self) -> None:
        period_s = self.collector.period_ms / 1000.0
        while not self._stop.wait(period_s):
            self._sample_once()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


#: the collector shard workers should arm and service requests attach to
_COLLECTOR: ContextVar[Optional[ProfileCollector]] = ContextVar(
    "repro_obs_profile_collector", default=None
)


def active_collector() -> Optional[ProfileCollector]:
    """The profile collector in effect, or ``None`` when not profiling."""
    return _COLLECTOR.get()


_PUBLISH_LOCK = threading.Lock()


def publish(collector: ProfileCollector, tracer: Optional[Tracer] = None) -> None:
    """Attach a collector's folded counts to a tracer as its profile.

    ``record_run`` reads ``tracer.profile`` when closing the record
    and stores it as the record's ``profile`` event.  Publishing twice
    (per-request profiles on a service tracer) merges counts.
    """
    if tracer is None:
        tracer = active_tracer()
    payload = collector.as_dict()
    with _PUBLISH_LOCK:
        existing: Optional[Dict[str, Any]] = getattr(tracer, "profile", None)
        if existing is None:
            tracer.profile = payload  # type: ignore[attr-defined]
            return
        folded: Dict[str, int] = existing["folded"]
        for key, n in payload["folded"].items():
            folded[key] = folded.get(key, 0) + n
        existing["samples"] += payload["samples"]
        existing["unattributed_samples"] += payload["unattributed_samples"]


@contextmanager
def attached(collector: ProfileCollector) -> Iterator[ProfileCollector]:
    """Sample the current thread into ``collector`` for the block.

    Also installs the collector in the context, so ``run_sharded``
    (and anything else consulting :func:`active_collector`) arms its
    workers with the same period.
    """
    token = _COLLECTOR.set(collector)
    sampler = SamplingProfiler(collector).start()
    try:
        yield collector
    finally:
        sampler.stop()
        _COLLECTOR.reset(token)


@contextmanager
def profiled(period_ms: float = 10.0) -> Iterator[ProfileCollector]:
    """Profile the block and publish the result to the active tracer."""
    collector = ProfileCollector(period_ms=period_ms)
    with attached(collector):
        try:
            yield collector
        finally:
            publish(collector)
