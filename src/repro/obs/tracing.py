"""Structured tracing: nested spans and point events.

A :class:`Tracer` collects :class:`TraceEvent` entries — spans (a
named region with monotonic start/duration) and events (a point in
time) — into a bounded ring buffer, with parent/child nesting tracked
through a ``contextvars.ContextVar`` so traces are correct across
threads and async tasks without any caller bookkeeping.

The tracer is **disabled by default** and the disabled path is a
near-free fast path: ``span()`` checks one attribute and returns a
preallocated no-op context manager (no allocation, no clock read), and
``event()`` returns immediately.  The observability benchmark
(``benchmarks/bench_observability.py``) gates this cost at under 5% of
the bare search kernel.

Export is JSONL (one record per line, schema below), round-trippable
via :func:`load_jsonl`::

    {"kind": "span", "name": "optimality.max_profile", "id": 3,
     "parent": null, "t": 0.01234, "dur": 0.00518,
     "attrs": {"dag": "B_3", "nodes": 32}}
    {"kind": "event", "name": "sim.loss", "id": 7, "parent": 3,
     "t": 0.01301, "dur": null, "attrs": {"client": 2, "task": "v4"}}

``t`` is seconds since the tracer's own epoch (``perf_counter`` at
construction or last :meth:`Tracer.clear`), so timestamps within one
trace are comparable; they are *not* wall-clock times.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from typing import Any, NamedTuple

from .context import current_request_id

__all__ = [
    "TraceEvent",
    "Tracer",
    "global_tracer",
    "set_global_tracer",
    "load_jsonl",
]

#: default ring-buffer capacity (records retained).
DEFAULT_CAPACITY = 65536


class TraceEvent(NamedTuple):
    """One structured trace entry (span or point event).

    Not to be confused with ``repro.sim.server.TraceRecord`` (a
    simulation allocation record); this is the tracer-side schema.
    """

    #: "span" or "event"
    kind: str
    #: dotted record name, e.g. ``"optimality.max_profile"``
    name: str
    #: unique id within this tracer
    id: int
    #: id of the enclosing span, or ``None`` at top level
    parent: int | None
    #: start time, seconds since the tracer epoch (monotonic)
    t: float
    #: span duration in seconds; ``None`` for events
    dur: float | None
    #: free-form JSON-able attributes
    attrs: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "name": self.name, "id": self.id,
             "parent": self.parent, "t": self.t, "dur": self.dur,
             "attrs": self.attrs},
            sort_keys=True,
        )


class _NoopSpan:
    """The preallocated disabled-path context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:  # attribute sink, also no-op
        pass


_NOOP_SPAN = _NoopSpan()

#: the active span id, tracked per context (thread / async task).
_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class _LiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_id", "_parent",
                 "_t0", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self._attrs.update(attrs)

    def __enter__(self):
        self._id = next(self._tracer._ids)
        self._parent = _current_span.get()
        self._token = _current_span.set(self._id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self._t0
        _current_span.reset(self._token)
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        rid = current_request_id()
        if rid is not None:
            self._attrs.setdefault("request", rid)
        self._tracer._append(
            TraceEvent(
                "span", self._name, self._id, self._parent,
                self._t0 - self._tracer._epoch, dur, self._attrs,
            )
        )
        return False


class Tracer:
    """Bounded collector of structured spans and events.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest records are dropped once
        exceeded (``dropped`` counts them).
    enabled:
        Start enabled; default off (the no-op fast path).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._lock = threading.Lock()
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self.dropped = 0
        #: total records ever appended — the ``/traces?since=`` cursor.
        #: Append order, NOT ``TraceEvent.id`` order: ids are assigned
        #: at span *entry* but spans are appended at *exit*, so a
        #: parent span lands after its children despite its lower id.
        self._appended = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs):
        """A context manager timing a named region.

        Disabled tracers return a shared no-op (no allocation)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _LiveSpan(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point event under the current span (if any)."""
        if not self.enabled:
            return
        rid = current_request_id()
        if rid is not None:
            attrs.setdefault("request", rid)
        self._append(
            TraceEvent(
                "event", name, next(self._ids), _current_span.get(),
                time.perf_counter() - self._epoch, None, attrs,
            )
        )

    def _append(self, rec: TraceEvent) -> None:
        with self._lock:
            if len(self._buf) == self.capacity:
                self.dropped += 1
            self._buf.append(rec)
            self._appended += 1

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all records and restart the epoch.

        The append cursor (:attr:`seq`) is deliberately *not* reset:
        it must stay monotonic for the lifetime of the tracer so a
        scraper's ``?since=`` cursor never silently re-reads records.
        """
        with self._lock:
            self._buf.clear()
            self.dropped = 0
            self._epoch = time.perf_counter()

    # -- access --------------------------------------------------------
    def records(self) -> list[TraceEvent]:
        """The retained records, oldest first."""
        with self._lock:
            return list(self._buf)

    @property
    def seq(self) -> int:
        """Total records ever appended (monotonic; survives
        :meth:`clear`).  The ``/traces?since=`` cursor timebase."""
        with self._lock:
            return self._appended

    def records_since(self, seq: int) -> tuple[list[TraceEvent], int]:
        """Records appended after cursor ``seq``, oldest first, plus
        the current cursor to resume from.

        The cursor counts *appends*, not :attr:`TraceEvent.id` values
        (ids are entry-ordered, the buffer exit-ordered — see
        :attr:`seq`).  A cursor older than the ring's tail returns
        every retained record; the overwritten span shows up in
        ``dropped``.  A cursor at or past the current seq returns no
        records.
        """
        with self._lock:
            latest = self._appended
            missing = latest - seq
            if missing <= 0:
                return [], latest
            if missing >= len(self._buf):
                return list(self._buf), latest
            return list(self._buf)[len(self._buf) - missing:], latest

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    # -- export --------------------------------------------------------
    def to_jsonl(self) -> str:
        """All retained records as JSONL text (one record per line)."""
        return "".join(rec.to_json() + "\n" for rec in self.records())

    def export_jsonl(self, path) -> int:
        """Write the retained records to ``path``; returns the count."""
        records = self.records()
        with open(path, "w") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
        return len(records)


def load_jsonl(text_or_path) -> list[TraceEvent]:
    """Parse JSONL trace text (or a file path) back into records."""
    text = text_or_path
    if "\n" not in text and not text.lstrip().startswith("{"):
        with open(text_or_path) as fh:
            text = fh.read()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        records.append(
            TraceEvent(d["kind"], d["name"], d["id"], d["parent"],
                        d["t"], d["dur"], d.get("attrs", {}))
        )
    return records


#: the process-wide default tracer (disabled until someone enables it —
#: e.g. the CLI's ``--trace FILE`` flag).
_GLOBAL_TRACER = Tracer()


def global_tracer() -> Tracer:
    """The process-wide default :class:`Tracer`."""
    return _GLOBAL_TRACER


def set_global_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the old one."""
    global _GLOBAL_TRACER
    old = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return old
