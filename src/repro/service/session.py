"""Persistent fill sessions: layout + caches, loaded once, served many.

A :class:`FillSession` is the unit of state the service keeps between
requests: the layout, its window grid and fill config, and the derived
caches the one-shot CLI rebuilds on every invocation — the per-layer
wire :class:`~repro.geometry.GridIndex`, the global density analysis
and the per-layer fill index.  The first two depend only on the
session's *wires* (analysis bounds and fill regions never read fills),
so they survive any number of ``fill``/``score``/``drc_audit``
requests and are refreshed incrementally — never recomputed — by
``eco_delta``.  The fill index follows the fills: a ``fill`` request
drops it, the next ``eco_delta`` builds it, and every ``eco_delta``
updates it in place.

Concurrency model: requests against one session execute in submission
order, enforced by *tickets*.  The job queue issues each session-bound
job a ticket atomically with enqueueing (see
:meth:`repro.service.jobs.JobQueue.submit`), and workers enter
:meth:`FillSession.ordered` with that ticket, which blocks until every
earlier ticket has finished.  FIFO pop order plus atomic issuance
guarantees progress for any worker count, including one; requests on
*different* sessions run concurrently.

:class:`SessionStore` owns the sessions with LRU eviction: opening a
session beyond capacity closes the least-recently-used one, and any
job still queued against it fails with :class:`SessionClosedError`
(tickets always advance, so ordering never wedges).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..core import FillConfig, build_wire_indexes
from ..core.engine import FillReport
from ..density.analysis import LayerDensity, analyze_layout
from ..geometry import GridIndex
from ..layout import Layout, WindowGrid

__all__ = [
    "FillSession",
    "SessionStore",
    "SessionClosedError",
    "UnknownSessionError",
]


class SessionClosedError(RuntimeError):
    """The session was closed (or evicted) while the request waited."""


class UnknownSessionError(KeyError):
    """No session with the requested id exists."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0] if self.args else ""


class FillSession:
    """One loaded layout plus everything derived from it.

    Mutable state (``layout``, ``analysis``, ``wire_indexes``,
    ``fill_indexes``, ``last_report``) must only be touched inside
    :meth:`ordered` — the ticket protocol makes that section exclusive
    per session.
    """

    def __init__(
        self,
        session_id: str,
        layout: Layout,
        grid: WindowGrid,
        config: FillConfig,
    ):
        self.id = session_id
        self.layout = layout
        self.grid = grid
        self.config = config
        self.analysis: Optional[Dict[int, LayerDensity]] = None
        self.wire_indexes: Optional[Dict[int, GridIndex[int]]] = None
        self.fill_indexes: Optional[Dict[int, GridIndex[None]]] = None
        self.last_report: Optional[FillReport] = None
        self.requests_served = 0
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._serving = 0
        self._closed = False

    # -- ticket ordering -----------------------------------------------
    def issue_ticket(self) -> int:
        """Reserve the next execution slot; call atomically with enqueue."""
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            return ticket

    @contextmanager
    def ordered(self, ticket: int) -> Iterator[None]:
        """Execute the body when every earlier ticket has finished.

        The slot is *always* released on exit — including when the body
        raises or the session turns out to be closed — so one failed
        request can never stall the tickets behind it.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._serving == ticket)
        try:
            if self._closed:
                raise SessionClosedError(f"session {self.id} is closed")
            yield
            self.requests_served += 1
        finally:
            with self._cond:
                self._serving += 1
                self._cond.notify_all()

    def close(self) -> None:
        """Mark the session closed; queued requests fail when they run."""
        with self._cond:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- caches --------------------------------------------------------
    def ensure_caches(self) -> None:
        """Build the wire indexes and density analysis if absent.

        Call inside :meth:`ordered`.  The analysis is computed with the
        session config's margin and worker settings — exactly the
        parameters the engine would use internally, so passing the
        cache back into :meth:`~repro.core.DummyFillEngine.run` is
        bit-identical to letting it analyze from scratch.
        """
        if self.wire_indexes is None:
            self.wire_indexes = build_wire_indexes(self.layout)
        if self.analysis is None:
            config = self.config
            self.analysis = analyze_layout(
                self.layout,
                self.grid,
                window_margin=config.effective_margin(
                    self.layout.rules.min_spacing
                ),
                workers=config.effective_workers(),
                parallel=config.parallel,
                sanitize=config.sanitize,
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary for the ``sessions`` op."""
        layout = self.layout
        return {
            "session": self.id,
            "die": [layout.die.xl, layout.die.yl, layout.die.xh, layout.die.yh],
            "layers": layout.num_layers,
            "wires": layout.num_wires,
            "fills": layout.num_fills,
            "windows": [self.grid.cols, self.grid.rows],
            "requests_served": self.requests_served,
            "cached_analysis": self.analysis is not None,
        }


class SessionStore:
    """Named sessions with bounded capacity and LRU eviction."""

    def __init__(self, max_sessions: int = 8):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, FillSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._opened = 0
        self.evicted = 0

    def open(
        self, layout: Layout, grid: WindowGrid, config: FillConfig
    ) -> FillSession:
        """Create a session; evicts the LRU session when at capacity."""
        with self._lock:
            self._opened += 1
            session = FillSession(f"s{self._opened}", layout, grid, config)
            self._sessions[session.id] = session
            while len(self._sessions) > self.max_sessions:
                _, evictee = self._sessions.popitem(last=False)
                evictee.close()
                self.evicted += 1
            return session

    def get(self, session_id: str) -> FillSession:
        """Look up a session and mark it most-recently-used."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(f"unknown session {session_id!r}")
            self._sessions.move_to_end(session_id)
            return session

    def close(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        session.close()

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.describe() for s in sessions]
