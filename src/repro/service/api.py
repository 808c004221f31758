"""The fill service: request handlers, dispatch, in-process client.

:class:`FillService` wires the pieces together: a
:class:`~repro.service.session.SessionStore`, a
:class:`~repro.service.jobs.JobQueue` and a
:class:`~repro.service.jobs.WorkerSupervisor`.  Requests come in two
kinds:

* **control ops** (``ping``, ``open_session``, ``close_session``,
  ``sessions``, ``stats``, ``metrics``) execute synchronously on the
  calling thread — they only touch the store and read-only telemetry;
* **compute ops** (``fill``, ``score``, ``drc_audit``, ``eco_delta``)
  are queued as jobs and executed by worker threads in per-session
  submission order; the heavy stages inside each job still parallelize
  through :mod:`repro.parallel` per the session's
  :class:`~repro.core.FillConfig`.

Every job runs under its own ``service.request`` span on the service's
tracer (the one active when :meth:`FillService.start` ran — a
``--trace-out`` run record when serving from the CLI) and feeds the
per-op latency histograms ``service.latency.<op>`` plus
``service.queue.wait_s``, so ``repro trace summarize`` reads service
percentiles with no extra plumbing.

Compute semantics are *replayable*: ``fill`` always starts from the
session's wire geometry (existing fill is replaced), so any number of
concurrent identical requests — and a fresh ``repro fill`` of the same
bytes — produce byte-identical GDSII.  ``eco_delta`` commits wires and
re-fills only the dirtied windows via the session caches
(:func:`repro.eco.apply_eco`), bit-identical to the cold CLI path.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .. import obs
from ..bench.suite import calibrate_weights
from ..core import DummyFillEngine, FillConfig
from ..density import score_layout
from ..eco import apply_eco, build_fill_indexes, wires_from_json
from ..gdsii import file_size_mb, gdsii_bytes, layout_from_gdsii
from ..layout import DrcRules, WindowGrid
from .jobs import Job, JobError, JobQueue, QueueClosedError, WorkerSupervisor
from .session import FillSession, SessionStore

__all__ = [
    "COMPUTE_OPS",
    "CONTROL_OPS",
    "FillService",
    "ServiceClient",
    "rules_from_mapping",
]

#: ops executed by worker threads in per-session order
COMPUTE_OPS = ("fill", "score", "drc_audit", "eco_delta")
#: ops executed synchronously on the calling thread
CONTROL_OPS = (
    "ping",
    "open_session",
    "close_session",
    "sessions",
    "stats",
    "metrics",
)

#: rule-deck defaults shared with the CLI's --min-* flags
_RULE_DEFAULTS = {
    "min_spacing": 10,
    "min_width": 10,
    "min_area": 400,
    "max_fill": 150,
}


def rules_from_mapping(mapping: Mapping[str, Any]) -> DrcRules:
    """Build a rule deck from a request dict, CLI flag defaults applied.

    Accepted keys mirror the CLI: ``min_spacing``, ``min_width``,
    ``min_area`` and ``max_fill`` (one edge cap for both dimensions).
    Unknown keys raise, like :meth:`FillConfig.from_mapping`.
    """
    unknown = sorted(set(mapping) - set(_RULE_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown rules keys {unknown} (known: {sorted(_RULE_DEFAULTS)})"
        )
    merged = {**_RULE_DEFAULTS, **mapping}
    return DrcRules(
        min_spacing=int(merged["min_spacing"]),
        min_width=int(merged["min_width"]),
        min_area=int(merged["min_area"]),
        max_fill_width=int(merged["max_fill"]),
        max_fill_height=int(merged["max_fill"]),
    )


class FillService:
    """Persistent fill sessions behind an async batch job queue."""

    def __init__(
        self,
        *,
        workers: int = 2,
        max_sessions: int = 8,
        queue_size: int = 64,
        request_timeout: Optional[float] = 600.0,
        slow_ms: Optional[float] = None,
        profile_ms: Optional[float] = None,
        telemetry_window: int = 256,
    ):
        self.store = SessionStore(max_sessions=max_sessions)
        self.request_timeout = request_timeout
        #: requests slower than this (milliseconds) emit a warning
        #: event carrying the request's span tree inline
        self.slow_ms = slow_ms
        self._queue = JobQueue(maxsize=queue_size)
        self._supervisor = WorkerSupervisor(
            self._queue,
            self._execute,
            workers=workers,
            on_worker_start=self._install_obs,
        )
        self._tracer = obs.active_tracer()
        self._registry = obs.metrics.active_registry()
        #: rolling per-op latency quantiles over the last N requests,
        #: exposed next to the cumulative histograms on /metrics
        self.telemetry = obs.RollingQuantiles(window=telemetry_window)
        #: per-request sampling profiler (one shared collector so the
        #: whole service lifetime folds into a single flamegraph)
        self._profile = (
            obs.ProfileCollector(period_ms=profile_ms)
            if profile_ms is not None
            else None
        )
        self._job_lock = threading.Lock()
        self._jobs_issued = 0
        self._started = False
        self._started_offset = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "FillService":
        """Capture the active tracer/registry and spawn the workers.

        Call inside the observation context the service should report
        into (e.g. a ``record_run``): worker threads do not inherit
        context variables, so each one explicitly installs the tracer
        and registry captured here.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._tracer = obs.active_tracer()
        self._registry = obs.metrics.active_registry()
        self._started_offset = obs.current_offset(self._tracer)
        self._supervisor.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Close the queue, fail undrained jobs, join the workers."""
        drained = self._queue.close()
        for job in drained:
            job.fail(QueueClosedError("service stopped before the job ran"))
        self._supervisor.stop()
        self.store.close_all()
        if self._profile is not None and self._profile.samples:
            # folded request samples land in the service's run record
            obs.profile.publish(self._profile, tracer=self._tracer)
        self._started = False

    def __enter__(self) -> "FillService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def workers(self) -> int:
        return self._supervisor.workers

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- submission ----------------------------------------------------
    def submit(self, op: str, params: Dict[str, Any]) -> Job:
        """Queue one compute op; returns the :class:`Job` to wait on."""
        return self.submit_many([{"op": op, **params}])[0]

    def submit_many(self, requests: Sequence[Mapping[str, Any]]) -> List[Job]:
        """Queue a batch of compute ops atomically (all or none).

        Each request is ``{"op": ..., "session": ..., **params}``.
        Sessions are resolved (and LRU-touched) up front; the queue
        admits the whole batch or raises
        :class:`~repro.service.jobs.QueueFullError` untouched.
        """
        if not self._started:
            raise RuntimeError("service is not running")
        jobs: List[Job] = []
        for request in requests:
            op = str(request.get("op"))
            if op not in COMPUTE_OPS:
                raise ValueError(
                    f"unknown compute op {op!r} (one of {COMPUTE_OPS})"
                )
            params = {k: v for k, v in request.items() if k not in ("op", "id")}
            session = self.store.get(str(params.get("session")))
            with self._job_lock:
                self._jobs_issued += 1
                job_id = f"j{self._jobs_issued}"
            job = Job(job_id, op, params, session)
            job.enqueued_offset = obs.current_offset(self._tracer)
            jobs.append(job)
        self._queue.submit_many(jobs)
        self._registry.gauge("service.queue.depth").set(len(self._queue))
        return jobs

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """Submit one compute op and wait for its result."""
        return self.submit(op, params).wait(self.request_timeout)

    # -- protocol entry ------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request; never raises.

        Returns ``{"ok": True, "result": ...}`` or ``{"ok": False,
        "error": {"type": ..., "message": ...}}`` — the body of a
        protocol response.  ``batch`` fans out to :meth:`submit_many`
        and reports per-request outcomes in submission order.
        """
        op = str(request.get("op"))
        params = {k: v for k, v in request.items() if k not in ("op", "id")}
        try:
            if op == "batch":
                return _ok({"responses": self._handle_batch(params)})
            if op in CONTROL_OPS:
                return _ok(self._control(op, params))
            job = self.submit(op, params)
            return _ok(job.wait(self.request_timeout))
        except JobError as exc:
            return _err(exc.error_type, exc.message)
        except Exception as exc:
            return _err(type(exc).__name__, str(exc))

    def _handle_batch(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        requests = params.get("requests")
        if not isinstance(requests, (list, tuple)) or not requests:
            raise ValueError("batch needs a non-empty 'requests' list")
        jobs = self.submit_many(requests)
        responses: List[Dict[str, Any]] = []
        for job in jobs:
            try:
                responses.append(_ok(job.wait(self.request_timeout)))
            except JobError as exc:
                responses.append(_err(exc.error_type, exc.message))
        return responses

    # -- control ops ---------------------------------------------------
    def _control(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {
                "pong": True,
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "sessions": len(self.store),
            }
        if op == "open_session":
            return self._open_session(params)
        if op == "close_session":
            session_id = str(params.get("session"))
            self.store.close(session_id)
            self._registry.counter("service.sessions.closed").inc()
            return {"closed": session_id}
        if op == "sessions":
            return {"sessions": self.store.describe()}
        if op == "stats":
            return self.stats()
        if op == "metrics":
            return {"text": self.render_metrics()}
        raise ValueError(f"unknown control op {op!r}")

    # -- telemetry surface ---------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live service counters: the ``stats`` op and ``/healthz`` body.

        Reads the registry's existing instruments (never creates any,
        so polling stats does not mint zero-valued metrics).
        """
        requests: Dict[str, float] = {}
        errors = 0.0
        for name, inst in self._registry.instruments().items():
            if name.startswith("service.requests."):
                requests[name[len("service.requests."):]] = inst.value
            elif name == "service.errors":
                errors = inst.value
        return {
            "uptime_s": round(
                max(0.0, obs.current_offset(self._tracer) - self._started_offset),
                3,
            ),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "sessions": len(self.store),
            "requests": requests,
            "errors": errors,
            "latency": self.telemetry.snapshot(),
            "profiling": (
                {
                    "period_ms": self._profile.period_ms,
                    "samples": self._profile.samples,
                }
                if self._profile is not None
                else None
            ),
        }

    def render_metrics(self) -> str:
        """The service registry in Prometheus text format (``/metrics``)."""
        return obs.render_prometheus(self._registry, rolling=self.telemetry)

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body: liveness plus the cheap gauges."""
        return {
            "status": "ok" if self._started else "stopped",
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "sessions": len(self.store),
        }

    def _open_session(self, params: Dict[str, Any]) -> Dict[str, Any]:
        data = params.get("gds")
        path = params.get("gds_path")
        if (data is None) == (path is None):
            raise ValueError("open_session needs exactly one of gds/gds_path")
        if data is None:
            data = Path(str(path)).read_bytes()
        if not isinstance(data, bytes):
            raise ValueError("gds payload must be bytes")
        rules = rules_from_mapping(params.get("rules") or {})
        config = FillConfig.from_mapping(params.get("config") or {})
        layout = layout_from_gdsii(data, rules)
        windows = int(params.get("windows", 8))
        grid = WindowGrid(layout.die, windows, windows)
        session = self.store.open(layout, grid, config)
        self._registry.counter("service.sessions.opened").inc()
        self._registry.gauge("service.sessions.evicted").set(self.store.evicted)
        return session.describe()

    # -- job execution (worker threads) --------------------------------
    def _install_obs(self) -> None:
        """Worker-thread init: adopt the service's tracer and registry.

        New threads see the context-variable *defaults*, not whatever
        ``record_run`` installed in the serving thread — without this,
        request spans and latency metrics would land in the process-
        wide fallback instruments and vanish from the run record.
        """
        obs.set_tracer(self._tracer)
        obs.set_registry(self._registry)

    def _execute(self, job: Job) -> None:
        session = job.session
        assert session is not None and job.ticket is not None
        samples_before = self._profile.samples if self._profile is not None else 0
        failed = False
        with obs.span(
            "service.request", op=job.op, session=session.id, job=job.id
        ) as sp:
            wait_s = max(
                0.0, obs.current_offset(self._tracer) - job.enqueued_offset
            )
            self._registry.histogram("service.queue.wait_s").observe(wait_s)
            sp.annotate(queue_wait_s=round(wait_s, 6))
            try:
                with self._maybe_profiled():
                    with session.ordered(job.ticket):
                        result = _COMPUTE_HANDLERS[job.op](self, session, job.params)
            except Exception as exc:
                failed = True
                self._registry.counter("service.errors").inc()
                sp.annotate(error_type=type(exc).__name__)
                job.fail(exc)
            else:
                self._registry.counter(f"service.requests.{job.op}").inc()
                job.succeed(result)
        if self._profile is not None:
            sp.annotate(profile_samples=self._profile.samples - samples_before)
        self._registry.histogram(f"service.latency.{job.op}").observe(sp.seconds)
        self._registry.gauge("service.queue.depth").set(len(self._queue))
        self.telemetry.observe(job.op, sp.seconds)
        self._report_request(sp, job, session.id, failed)

    def _maybe_profiled(self) -> Any:
        """Sampler over this worker thread for one request, if armed."""
        if self._profile is None:
            return contextlib.nullcontext()
        return obs.profile.attached(self._profile)

    def _report_request(
        self, sp: "obs.Span", job: Job, session_id: str, failed: bool
    ) -> None:
        """Emit the request's completion event; escalate slow requests.

        A request over ``slow_ms`` emits a warning-level event carrying
        the request's whole span tree inline, so the offending stages
        are in the event stream without fishing out the run record.
        """
        seconds = sp.seconds
        slow = self.slow_ms is not None and seconds * 1000.0 >= self.slow_ms
        if slow:
            self._registry.counter("service.requests.slow").inc()
            obs.events.emit(
                "slow_request",
                level="warning",
                op=job.op,
                job=job.id,
                session=session_id,
                seconds=round(seconds, 6),
                threshold_ms=self.slow_ms,
                failed=failed,
                span_tree=[s.as_dict(d) for d, s in sp.walk()],
            )
        else:
            obs.events.emit(
                "request",
                level="info",
                op=job.op,
                job=job.id,
                session=session_id,
                seconds=round(seconds, 6),
                failed=failed,
            )

    # -- compute handlers (inside session.ordered) ---------------------
    def _handle_fill(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        session.ensure_caches()
        work = session.layout.copy_without_fills()
        engine = DummyFillEngine(session.config)
        report = engine.run(
            work,
            session.grid,
            analysis=session.analysis,
            wire_indexes=session.wire_indexes,
        )
        violations = work.check_drc()
        data = gdsii_bytes(work)
        session.layout = work
        session.fill_indexes = None
        session.last_report = report
        return {
            "gds": data,
            "summary": report.summary(),
            "num_fills": work.num_fills,
            "drc_violations": len(violations),
        }

    def _handle_score(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        layout = session.layout
        grid = session.grid
        reference = layout.copy_without_fills()
        ref_grid = WindowGrid(reference.die, grid.cols, grid.rows)
        weights = calibrate_weights(reference, ref_grid, 60.0, 1024.0)
        size = file_size_mb(len(gdsii_bytes(layout)))
        card = score_layout(layout, grid, weights, file_size=size)
        return {"scores": dict(card.as_row())}

    def _handle_drc_audit(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        violations = session.layout.check_drc()
        return {
            "count": len(violations),
            "violations": [str(v) for v in violations[:50]],
        }

    def _handle_eco_delta(
        self, session: FillSession, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        wires = wires_from_json(params.get("wires") or {})
        if not wires:
            raise ValueError("eco_delta needs a non-empty 'wires' mapping")
        session.ensure_caches()
        if session.fill_indexes is None:
            session.fill_indexes = build_fill_indexes(session.layout)
        report = apply_eco(
            session.layout,
            session.grid,
            wires,
            session.config,
            analysis=session.analysis,
            wire_indexes=session.wire_indexes,
            fill_indexes=session.fill_indexes,
        )
        if report.analysis is not None:
            session.analysis = report.analysis
        data = gdsii_bytes(session.layout)
        return {
            "gds": data,
            "summary": report.summary(),
            "new_wires": report.new_wires,
            "removed_fills": report.removed_fills,
            "new_fills": report.new_fills,
            "affected_windows": len(report.affected_windows),
        }


_COMPUTE_HANDLERS = {
    "fill": FillService._handle_fill,
    "score": FillService._handle_score,
    "drc_audit": FillService._handle_drc_audit,
    "eco_delta": FillService._handle_eco_delta,
}



def _ok(result: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "result": result}


def _err(error_type: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"type": error_type, "message": message}}


class ServiceClient:
    """In-process client: the same request surface as the socket client.

    Used by tests and benchmarks to drive a :class:`FillService`
    without a socket; results carry raw ``bytes`` where the wire
    protocol would carry base64.
    """

    def __init__(self, service: FillService):
        self.service = service

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Execute one op; returns its result or raises :class:`JobError`."""
        response = self.service.handle({"op": op, **params})
        if response["ok"]:
            result: Dict[str, Any] = response["result"]
            return result
        error = response["error"]
        raise JobError(error["type"], error["message"])

    def batch(self, requests: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Submit a batch; returns per-request response dicts in order."""
        result = self.request("batch", requests=list(requests))
        responses: List[Dict[str, Any]] = result["responses"]
        return responses
