"""The live schedule observatory: frame capture and exposition.

The paper's central object — the eligibility profile, and the frontier
of ELIGIBLE tasks a schedule maximizes — only existed as aggregate
counters until now.  This module records *frames*: per-event-step
snapshots of a running simulation (executed / eligible / blocked node
sets, per-client occupancy, the achieved eligibility count next to the
certified ceiling ``M(t)``, fault events) into bounded per-dag ring
buffers, and exposes them over the same hardened HTTP base every repro
server uses — including a long-lived ``/v1/events`` stream so the
browser UI (``/ui``, :mod:`repro.obs.ui`) never busy-polls.

Three layers:

* :class:`ScheduleFrame` / :class:`FrameChannel` / :class:`FrameStore`
  — the capture side.  The store is **disabled by default** and the
  disabled path is one attribute check at simulation start (the same
  disabled-is-free contract as the tracer; gated by the frame-capture
  scenario in ``benchmarks/bench_observability.py``).  Enabled, the
  simulator calls :meth:`FrameStore.record` once per event-loop step;
  each channel keeps the newest ``frames_per_dag`` frames with a
  monotonic per-channel ``seq`` (and the store keeps one global seq
  across channels, the ``/v1/events`` cursor).
* :func:`dispatch_observatory` — the HTTP routes, shared verbatim by
  :class:`~repro.obs.server.ObsServer` and
  :class:`~repro.service.http.SchedulingService`:

  ================================  ==================================
  endpoint                          response
  ================================  ==================================
  ``GET /ui``                       the self-contained observatory
                                    page (zero external assets)
  ``GET /v1/frames``                index of dags with frames
  ``GET /v1/dags/{fp}/frame``       the latest frame + seq cursor
  ``GET /v1/dags/{fp}/frames``      catch-up: frames after ``?since=``
  ``GET /v1/dags/{fp}/graph``       structure + layout + certified
                                    ``M(t)`` profile for rendering
  ``GET /v1/events``                Server-Sent Events stream of
                                    frame-seq + stats deltas
  ================================  ==================================

* :func:`render_frame_svg` — the server-side renderer behind
  ``repro observe --snapshot`` (one SVG frame for CI and docs), the
  same visual the browser page draws live.

See ``docs/OBSERVABILITY.md`` §7.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from typing import Any, NamedTuple

from .context import current_request_id
from .metrics import global_registry

__all__ = [
    "FrameChannel",
    "FrameStore",
    "ScheduleFrame",
    "dispatch_observatory",
    "global_frame_store",
    "graph_payload",
    "render_frame_svg",
    "set_global_frame_store",
]

#: frames retained per dag channel (ring buffer).
DEFAULT_FRAMES_PER_DAG = 512
#: dag channels retained per store (LRU).
DEFAULT_MAX_DAGS = 32
#: longest a single ``/v1/events`` stream stays open before the client
#: (``EventSource`` auto-reconnects with ``Last-Event-ID``) re-opens it.
EVENTS_MAX_STREAM_SECONDS = 60.0
#: heartbeat cadence of the events stream: stats deltas flow at least
#: this often even when no frames are being captured.
EVENTS_HEARTBEAT_SECONDS = 2.0


class ScheduleFrame(NamedTuple):
    """One snapshot of a schedule executing.

    All node references are the stringified labels (the wire form);
    ``executed``/``eligible``/``blocked`` partition the dag's nodes at
    this step, sorted for byte-stable serialization.
    """

    #: per-channel monotonic sequence number, from 1
    seq: int
    #: simulation event-loop step index
    step: int
    #: simulation clock at capture
    t: float
    #: executed tasks
    executed: tuple[str, ...]
    #: ELIGIBLE unexecuted tasks (allocatable + in flight) — the
    #: frontier the paper's schedules maximize
    eligible: tuple[str, ...]
    #: tasks still blocked on an unexecuted parent
    blocked: tuple[str, ...]
    #: per-client current task (``None`` = idle), index = client id
    occupancy: tuple[str | None, ...]
    #: the certified ceiling ``M(t)`` at ``t = len(executed)`` steps,
    #: when a certified profile is attached to the channel
    optimal: int | None
    #: notable events since the previous frame: ``{"kind": ..., ...}``
    #: dicts (lost allocations, injected faults, quarantines, ...)
    events: tuple[dict, ...]
    #: the simulation finished at (or before) this frame
    done: bool
    #: the request ID active when the frame was captured, or ``None``
    #: for runs outside any request scope (``docs/OBSERVABILITY.md``
    #: §8 — correlation with ``/traces?request_id=``)
    request: str | None = None

    def to_payload(self) -> dict:
        """The JSON wire form (``docs/OBSERVABILITY.md`` §7)."""
        return {
            "seq": self.seq,
            "step": self.step,
            "t": round(self.t, 6),
            "executed": list(self.executed),
            "eligible": list(self.eligible),
            "blocked": list(self.blocked),
            "occupancy": list(self.occupancy),
            "eligible_count": len(self.eligible),
            "optimal": self.optimal,
            "events": [dict(e) for e in self.events],
            "done": self.done,
            "request": self.request,
        }


def graph_payload(dag) -> dict:
    """Structure + level layout of ``dag`` for the observatory UI.

    Levels are longest-path depths (sources at depth 0), the layout
    both the browser page and :func:`render_frame_svg` position nodes
    by.  Node labels are stringified; label collisions (distinct
    hashables with equal ``str``) degrade the display, not the data.
    """
    depth: dict[Any, int] = {}
    for v in dag.topological_order():
        parents = dag.parents(v)
        depth[v] = 1 + max(depth[p] for p in parents) if parents else 0
    levels: list[list[str]] = [[] for _ in range(max(depth.values(), default=0) + 1)] \
        if depth else []
    for v in dag.nodes:
        levels[depth[v]].append(str(v))
    return {
        "name": dag.name,
        "n": len(dag),
        "nodes": [str(v) for v in dag.nodes],
        "arcs": [[str(u), str(v)] for u, v in dag.arcs],
        "levels": levels,
    }


class _Record(NamedTuple):
    """What :meth:`FrameStore.record` keeps per frame: the fields of a
    :class:`ScheduleFrame` minus the sorted partition, which
    :meth:`FrameChannel._build` derives when the frame is read."""

    seq: int
    step: int
    t: float
    #: the run's append-only completion-order list; this frame's
    #: executed tasks are its first ``n_executed`` entries
    done_order: list
    n_executed: int
    #: dag nodes, unsorted, possibly repeated
    eligible: tuple
    occupancy: tuple
    optimal: int | None
    events: tuple
    done: bool
    request: str | None


class FrameChannel:
    """The frame ring buffer of one dag (keyed by fingerprint).

    Not thread-safe on its own — every mutation goes through the
    owning :class:`FrameStore`'s lock.  It retains per-frame records,
    not frames: the sorted executed/eligible/blocked partition is
    built only when a frame is read.
    """

    __slots__ = ("fingerprint", "name", "graph", "names", "_records",
                 "seq", "dropped", "profile", "clients", "policy")

    def __init__(self, fingerprint: str, dag,
                 capacity: int = DEFAULT_FRAMES_PER_DAG) -> None:
        self.fingerprint = fingerprint
        self.name = dag.name
        self.graph = graph_payload(dag)
        #: node -> wire label, so reads never re-stringify
        self.names = {v: str(v) for v in dag.nodes}
        self._records: deque[_Record] = deque(maxlen=capacity)
        #: last assigned per-channel seq (frames carry 1..seq)
        self.seq = 0
        #: frames pushed out of the ring
        self.dropped = 0
        #: certified ``M(t)`` profile, attached by whoever certified
        self.profile: list[int] | None = None
        self.clients = 0
        self.policy = ""

    def _build(self, rec: _Record) -> ScheduleFrame:
        """The wire frame of one record (see :meth:`FrameStore.record`
        for why the executed prefix is exact under a running
        simulation)."""
        names = self.names
        executed = sorted(
            {names[v] for v in rec.done_order[:rec.n_executed]})
        eligible = sorted({names[v] for v in rec.eligible})
        taken = set(executed)
        taken.update(eligible)
        return ScheduleFrame(
            seq=rec.seq,
            step=rec.step,
            t=rec.t,
            executed=tuple(executed),
            eligible=tuple(eligible),
            blocked=tuple(sorted(
                w for w in names.values() if w not in taken)),
            occupancy=tuple(
                None if v is None else names[v] if v in names else str(v)
                for v in rec.occupancy
            ),
            optimal=rec.optimal,
            events=rec.events,
            done=rec.done,
            request=rec.request,
        )

    # -- reads (call with the store lock held) -------------------------
    @property
    def frames(self) -> list[ScheduleFrame]:
        """Every retained frame, oldest first."""
        return self.since(0)

    def latest(self) -> ScheduleFrame | None:
        return self._build(self._records[-1]) if self._records else None

    def since(self, seq: int) -> list[ScheduleFrame]:
        """Frames with ``frame.seq > seq`` (oldest first).  A cursor
        older than the ring's tail simply returns every retained frame
        — the skipped span is visible as ``dropped``/seq gaps."""
        return [self._build(r) for r in self._records if r.seq > seq]

    def describe(self) -> dict:
        records = self._records
        return {
            "name": self.name,
            "n": self.graph["n"],
            "latest": self.seq,
            "retained": len(records),
            "dropped": self.dropped,
            "clients": self.clients,
            "policy": self.policy,
            "done": bool(records[-1].done) if records else False,
            "has_profile": self.profile is not None,
        }


class FrameStore:
    """Bounded, thread-safe store of per-dag frame channels.

    Parameters
    ----------
    frames_per_dag:
        Ring-buffer capacity of each channel.
    max_dags:
        Channels retained; the least recently written is evicted.

    ``enabled`` gates capture exactly like the tracer's flag: the
    simulator checks it **once per run** and records nothing when off,
    so the disabled path costs one attribute read.  Serving reads
    (:func:`dispatch_observatory`) work regardless of the flag — a
    disabled store still serves whatever was captured earlier.
    """

    def __init__(self, frames_per_dag: int = DEFAULT_FRAMES_PER_DAG,
                 max_dags: int = DEFAULT_MAX_DAGS) -> None:
        if frames_per_dag < 1:
            raise ValueError(
                f"frames_per_dag must be >= 1, got {frames_per_dag}"
            )
        if max_dags < 1:
            raise ValueError(f"max_dags must be >= 1, got {max_dags}")
        self.enabled = False
        self.frames_per_dag = frames_per_dag
        self.max_dags = max_dags
        self._channels: OrderedDict[str, FrameChannel] = OrderedDict()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: global frame seq across every channel — the events cursor
        self._seq = 0
        #: ``obs_frames_captured_total``, resolved by :meth:`channel`
        #: (once per run), not by every :meth:`record`
        self._frames_total = None

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._cond:
            self._channels.clear()
            self._seq = 0
            self._cond.notify_all()

    # -- capture -------------------------------------------------------
    def channel(self, dag, *, clients: int = 0,
                policy: str = "") -> FrameChannel:
        """The channel for ``dag`` (created on first use), keyed by
        its content-addressed fingerprint.  A re-run of the same dag
        structure continues the existing channel's seq."""
        fp = dag.fingerprint()
        with self._cond:
            ch = self._channels.get(fp)
            if ch is None:
                ch = FrameChannel(fp, dag, self.frames_per_dag)
                self._channels[fp] = ch
                while len(self._channels) > self.max_dags:
                    self._channels.popitem(last=False)
            else:
                self._channels.move_to_end(fp)
            ch.clients = clients or ch.clients
            if policy:
                ch.policy = policy
            self._m_channels().set(len(self._channels))
            self._frames_total = self._m_frames()
            return ch

    def record(
        self,
        channel: FrameChannel,
        *,
        step: int,
        t: float,
        executed: list,
        eligible,
        occupancy,
        events: tuple[dict, ...] = (),
        done: bool = False,
    ) -> int:
        """Append one frame to ``channel``; returns its seq.

        ``executed`` is the run's completion-order list of dag nodes;
        the frame keeps the list and its current length, not a copy.
        The caller may keep appending to it but must never remove or
        reorder an entry: a reader slices the prefix while the
        simulation may still be appending, which is exact only
        because a list slice is atomic against a concurrent append.
        ``eligible`` and ``occupancy`` are iterables of dag nodes
        (``None`` = idle client), kept unsorted.  The sorted wire
        partition (``blocked`` is what is in neither set) is built
        when the frame is read (:meth:`FrameChannel._build`), so a
        frame costs O(frontier + clients) here.  Wakes every
        ``/v1/events`` waiter.
        """
        eligible = tuple(eligible)
        occupancy = tuple(occupancy)
        n_executed = len(executed)
        request = current_request_id()
        with self._cond:
            channel.seq += 1
            self._seq += 1
            profile = channel.profile
            optimal = (
                profile[n_executed] if profile is not None
                and n_executed < len(profile) else
                (profile[-1] if profile else None)
            )
            if len(channel._records) == channel._records.maxlen:
                channel.dropped += 1
            channel._records.append(_Record(
                channel.seq, step, t, executed, n_executed, eligible,
                occupancy, optimal, tuple(events), done, request,
            ))
            self._channels.move_to_end(channel.fingerprint)
            self._frames_total.inc()
            self._cond.notify_all()
            return channel.seq

    def set_profile(self, dag, profile) -> None:
        """Attach the certified ``M(t)`` profile for ``dag`` so frames
        carry the achieved-vs-optimal comparison.  Creates the channel
        when absent (certification usually precedes simulation)."""
        ch = self.channel(dag)
        with self._cond:
            ch.profile = list(profile)
            self._cond.notify_all()

    # -- reads ---------------------------------------------------------
    def get(self, fingerprint: str) -> FrameChannel | None:
        with self._lock:
            return self._channels.get(fingerprint)

    @property
    def seq(self) -> int:
        """Global frame count across channels (the events cursor)."""
        with self._lock:
            return self._seq

    def index(self) -> dict:
        """The ``/v1/frames`` payload."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "seq": self._seq,
                "dags": {
                    fp: ch.describe()
                    for fp, ch in self._channels.items()
                },
            }

    def latest_seqs(self) -> dict[str, int]:
        with self._lock:
            return {fp: ch.seq for fp, ch in self._channels.items()}

    def recent(self, per_channel: int = 8) -> dict[str, list[dict]]:
        """The newest ``per_channel`` frame payloads of every channel,
        keyed by fingerprint — the flight recorder's frame capture."""
        with self._lock:
            return {
                fp: [ch._build(r).to_payload()
                     for r in list(ch._records)[-per_channel:]]
                for fp, ch in self._channels.items()
                if ch._records
            }

    def wait(self, since: int, timeout: float) -> int:
        """Block until the global seq passes ``since`` (or ``timeout``
        elapses); returns the current global seq.  The long-poll / SSE
        primitive — waiters burn no CPU."""
        with self._cond:
            if self._seq <= since and timeout > 0:
                self._cond.wait(timeout)
            return self._seq

    # -- metrics -------------------------------------------------------
    @staticmethod
    def _m_frames():
        return global_registry().counter(
            "obs_frames_captured_total",
            "schedule frames captured by the observatory",
        )

    @staticmethod
    def _m_channels():
        return global_registry().gauge(
            "obs_frame_channels",
            "dag frame channels currently retained",
        )


#: the process-wide frame store (capture disabled until someone —
#: ``repro serve``, ``repro observe --snapshot``, a test — enables it).
_GLOBAL_FRAME_STORE = FrameStore()


def global_frame_store() -> FrameStore:
    """The process-wide default :class:`FrameStore`."""
    return _GLOBAL_FRAME_STORE


def set_global_frame_store(store: FrameStore) -> FrameStore:
    """Replace the process-wide frame store; returns the old one."""
    global _GLOBAL_FRAME_STORE
    old = _GLOBAL_FRAME_STORE
    _GLOBAL_FRAME_STORE = store
    return old


# ----------------------------------------------------------------------
# HTTP routes (shared by ObsServer and SchedulingService)
# ----------------------------------------------------------------------

#: observatory endpoint templates (listed in 404 payloads).
OBSERVATORY_ENDPOINTS = (
    "GET /ui",
    "GET /v1/frames",
    "GET /v1/dags/{fingerprint}/frame",
    "GET /v1/dags/{fingerprint}/frames?since=SEQ",
    "GET /v1/dags/{fingerprint}/graph",
    "GET /v1/events",
)


def dispatch_observatory(svc, handler, method: str, path: str,
                         query: dict) -> bool:
    """Route one observatory request; returns ``False`` when ``path``
    is not an observatory endpoint (the caller falls through to its
    own routing).  ``svc`` is any
    :class:`~repro.obs.server.HTTPServiceBase` (used for the
    drain-on-stop flag during event streams)."""
    from .server import RequestError  # import cycle guard

    if path == "/ui":
        _require_get(method)
        from .exposition import HTML_CONTENT_TYPE
        from .ui import OBSERVATORY_HTML

        handler.respond(200, OBSERVATORY_HTML, HTML_CONTENT_TYPE)
        return True
    if path == "/v1/frames":
        _require_get(method)
        handler.respond_json(200, global_frame_store().index())
        return True
    if path == "/v1/events":
        _require_get(method)
        _route_events(svc, handler, query)
        return True
    if path.startswith("/v1/dags/") and path != "/v1/dags":
        rest = path[len("/v1/dags/"):]
        fp, _, verb = rest.partition("/")
        if verb not in ("frame", "frames", "graph"):
            return False
        _require_get(method)
        ch = global_frame_store().get(fp)
        if ch is None:
            raise RequestError(
                404, f"no frames recorded for fingerprint {fp!r} "
                     "(frame capture disabled, or the dag never ran)"
            )
        if verb == "graph":
            _route_graph(handler, ch)
        elif verb == "frame":
            _route_frame(handler, ch)
        else:
            _route_frames(handler, ch, query)
        return True
    return False


def _require_get(method: str) -> None:
    from .server import RequestError

    if method != "GET":
        raise RequestError(405, f"method {method} not allowed")


def _route_graph(handler, ch: FrameChannel) -> None:
    store = global_frame_store()
    with store._lock:
        payload = dict(ch.graph)
        payload.update({
            "fingerprint": ch.fingerprint,
            "profile": list(ch.profile) if ch.profile is not None
            else None,
            "clients": ch.clients,
            "policy": ch.policy,
            "latest": ch.seq,
        })
    handler.respond_json(200, payload)


def _route_frame(handler, ch: FrameChannel) -> None:
    from .server import RequestError

    store = global_frame_store()
    with store._lock:
        frame = ch.latest()
        if frame is None:
            raise RequestError(
                404, f"channel {ch.fingerprint!r} holds no frames yet"
            )
        payload = {
            "fingerprint": ch.fingerprint,
            "name": ch.name,
            "latest": ch.seq,
            "frame": frame.to_payload(),
        }
    handler.respond_json(200, payload)


def _route_frames(handler, ch: FrameChannel, query: dict) -> None:
    from .server import RequestError

    since = 0
    if "since" in query:
        try:
            since = int(query["since"][0])
            if since < 0:
                raise ValueError
        except ValueError:
            raise RequestError(
                400, "since must be a non-negative integer"
            ) from None
    store = global_frame_store()
    with store._lock:
        frames = ch.since(since)
        payload = {
            "fingerprint": ch.fingerprint,
            "name": ch.name,
            "latest": ch.seq,
            "dropped": ch.dropped,
            "frames": [f.to_payload() for f in frames],
        }
    handler.respond_json(200, payload)


def _events_stats_delta() -> dict:
    """The compact stats summary shipped with every events message —
    enough for the UI's header/fleet strips without a /stats fetch."""
    from .exposition import snapshot_value

    snap = global_registry().snapshot()
    return {
        "sim_steps": snapshot_value(snap, "sim_steps_total"),
        "sim_completions": snapshot_value(snap, "sim_completions_total"),
        "sim_eligible": snapshot_value(snap, "sim_eligible"),
        "sim_starvation": snapshot_value(snap, "sim_starvation_total"),
        "searches": snapshot_value(snap, "service_searches_total"),
        "registry_entries": snapshot_value(snap, "registry_entries"),
        "frames": snapshot_value(snap, "obs_frames_captured_total"),
    }


def _route_events(svc, handler, query: dict) -> None:
    """``GET /v1/events`` — a Server-Sent Events stream of frame-seq +
    stats deltas.

    The client supplies its cursor via ``?since=SEQ`` or (on
    ``EventSource`` auto-reconnect) the ``Last-Event-ID`` header; each
    message's ``id:`` is the global frame seq, so reconnects resume
    without replay.  Messages are sent when frames land (woken by the
    store's condition variable — no server-side polling) and at a
    ≤ ``EVENTS_HEARTBEAT_SECONDS`` heartbeat so stats deltas flow even
    while nothing simulates.  The stream closes itself after
    ``?timeout=`` seconds (default/maximum
    ``EVENTS_MAX_STREAM_SECONDS``) or when the server drains;
    ``EventSource`` transparently reconnects.
    """
    from .server import RequestError

    store = global_frame_store()
    cursor = 0
    raw = None
    if "since" in query:
        raw = query["since"][0]
    elif handler.headers.get("Last-Event-ID"):
        raw = handler.headers.get("Last-Event-ID")
    if raw is not None:
        try:
            cursor = max(0, int(raw))
        except ValueError:
            raise RequestError(
                400, "since must be a non-negative integer"
            ) from None
    max_stream = EVENTS_MAX_STREAM_SECONDS
    if "timeout" in query:
        try:
            max_stream = min(max_stream,
                             max(0.0, float(query["timeout"][0])))
        except ValueError:
            raise RequestError(400, "timeout must be a number") \
                from None

    from .exposition import SSE_CONTENT_TYPE

    handler.response_status = 200  # bypasses respond(); keep the
    handler.send_response(200)     # post-request accounting honest
    handler.send_header("Content-Type", SSE_CONTENT_TYPE)
    handler.send_header("Cache-Control", "no-store")
    handler.send_header("Connection", "close")
    if getattr(handler, "request_id", None) is not None:
        from .context import REQUEST_ID_HEADER
        handler.send_header(REQUEST_ID_HEADER, handler.request_id)
    handler.close_connection = True
    handler.end_headers()

    deadline = time.monotonic() + max_stream
    try:
        while not svc.closing:
            remaining = deadline - time.monotonic()
            seq = store.wait(
                cursor, min(EVENTS_HEARTBEAT_SECONDS,
                            max(0.0, remaining)))
            kind = "frames" if seq > cursor else "tick"
            data = json.dumps({
                "seq": seq,
                "dags": store.latest_seqs(),
                "stats": _events_stats_delta(),
            }, sort_keys=True)
            handler.wfile.write(
                f"id: {seq}\nevent: {kind}\ndata: {data}\n\n"
                .encode("utf-8")
            )
            handler.wfile.flush()
            cursor = seq
            if time.monotonic() >= deadline:
                break
    except (BrokenPipeError, ConnectionResetError, OSError):
        pass  # client went away; EventSource reconnects on its own


# ----------------------------------------------------------------------
# server-side SVG rendering (repro observe --snapshot)
# ----------------------------------------------------------------------

#: the observatory palette (validated categorical slots 1-3 of the
#: repo's viz palette + neutral grays; see docs/OBSERVABILITY.md §7).
_C_EXECUTED = "#2a78d6"   # slot 1 blue — executed tasks / achieved E(t)
_C_ELIGIBLE = "#1baf7a"   # slot 3 aqua — the ELIGIBLE frontier
_C_INFLIGHT = "#eb6834"   # slot 2 orange — in flight / optimal M(t)
_C_BLOCKED = "#d6d4cf"    # neutral — blocked tasks / idle clients
_C_SURFACE = "#fcfcfb"
_C_INK = "#0b0b0b"
_C_INK_2 = "#52514e"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_frame_svg(
    graph: dict,
    frame: dict | None,
    *,
    achieved: list[int] | None = None,
    profile: list[int] | None = None,
    occupancy: list[str | None] | None = None,
    title: str | None = None,
    width: int = 720,
) -> str:
    """One observatory frame as a standalone SVG document.

    ``graph`` is a :func:`graph_payload` dict (optionally with the
    ``profile`` attached); ``frame`` a ``ScheduleFrame.to_payload``
    dict (``None`` renders the unexecuted dag).  ``achieved`` is the
    eligibility series across frames for the sparkline; ``profile``
    overrides ``graph["profile"]`` as the certified ``M(t)`` overlay.
    This mirrors what the browser page draws — committed to
    ``docs/observatory.svg`` by ``repro observe --snapshot``.
    """
    levels: list[list[str]] = graph.get("levels", [])
    arcs = graph.get("arcs", [])
    profile = profile if profile is not None else graph.get("profile")
    executed = set(frame.get("executed", [])) if frame else set()
    eligible = set(frame.get("eligible", [])) if frame else set()
    occupancy = occupancy if occupancy is not None else (
        list(frame.get("occupancy", [])) if frame else [])
    inflight = {t for t in occupancy if t}

    row_h = 56
    top = 64
    n_levels = max(1, len(levels))
    dag_h = top + n_levels * row_h
    # node radius shrinks for wide dags so levels never overlap
    widest = max((len(lv) for lv in levels), default=1)
    radius = max(4, min(13, (width - 60) // max(1, 2 * widest + 2)))
    pos: dict[str, tuple[float, float]] = {}
    for d, lv in enumerate(levels):
        y = top + d * row_h
        for i, name in enumerate(lv):
            pos[name] = (30 + (width - 60) * (i + 1) / (len(lv) + 1), y)

    parts: list[str] = []
    # arcs first, under the nodes
    for u, v in arcs:
        if u in pos and v in pos:
            (x1, y1), (x2, y2) = pos[u], pos[v]
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                f'y2="{y2:.1f}" stroke="#d6d4cf" stroke-width="1"/>'
            )
    label_nodes = len(pos) <= 64 and radius >= 9
    for name, (x, y) in pos.items():
        if name in executed:
            fill, stroke = _C_EXECUTED, _C_EXECUTED
        elif name in inflight:
            fill, stroke = _C_INFLIGHT, _C_INFLIGHT
        elif name in eligible:
            fill, stroke = _C_ELIGIBLE, _C_ELIGIBLE
        else:
            fill, stroke = _C_SURFACE, _C_BLOCKED
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>'
        )
        if label_nodes:
            parts.append(
                f'<text x="{x:.1f}" y="{y + radius + 11:.1f}" '
                f'text-anchor="middle" font-size="8" '
                f'fill="{_C_INK_2}">{_esc(name)}</text>'
            )

    # eligibility sparkline: achieved E(t) (blue) vs certified M(t)
    # (orange), direct-labeled — one shared y-scale, baseline at 0.
    spark_top = dag_h + 26
    spark_h = 64
    spark_w = width - 130
    series = [s for s in (achieved, profile) if s]
    if series:
        peak = max(max(s) for s in series) or 1

        def pts(values: list[int]) -> str:
            n = max(1, len(values) - 1)
            return " ".join(
                f"{30 + spark_w * i / n:.1f},"
                f"{spark_top + spark_h * (1 - v / peak):.1f}"
                for i, v in enumerate(values)
            )

        parts.append(
            f'<line x1="30" y1="{spark_top + spark_h}" '
            f'x2="{30 + spark_w}" y2="{spark_top + spark_h}" '
            f'stroke="#e5e3de" stroke-width="1"/>'
        )
        if profile:
            parts.append(
                f'<polyline points="{pts(list(profile))}" fill="none" '
                f'stroke="{_C_INFLIGHT}" stroke-width="2" '
                f'stroke-dasharray="5 3"/>'
            )
            parts.append(
                f'<text x="{36 + spark_w}" '
                f'y="{spark_top + spark_h * (1 - profile[-1] / peak) + 3:.1f}" '
                f'font-size="9" fill="{_C_INK_2}">M(t)</text>'
            )
        if achieved:
            parts.append(
                f'<polyline points="{pts(list(achieved))}" fill="none" '
                f'stroke="{_C_EXECUTED}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{36 + spark_w}" '
                f'y="{spark_top + spark_h * (1 - achieved[-1] / peak) + 12:.1f}" '
                f'font-size="9" fill="{_C_INK_2}">E(t)</text>'
            )
        parts.append(
            f'<text x="30" y="{spark_top - 8}" font-size="10" '
            f'fill="{_C_INK_2}">eligibility: achieved E(t) vs certified '
            f'ceiling M(t), peak {peak}</text>'
        )

    # per-client occupancy strip
    occ_top = spark_top + spark_h + 26
    strip_h = 14
    for cid, task in enumerate(occupancy):
        y = occ_top + cid * (strip_h + 4)
        fill = _C_INFLIGHT if task else _C_BLOCKED
        parts.append(
            f'<text x="30" y="{y + strip_h - 3}" font-size="9" '
            f'fill="{_C_INK_2}">c{cid}</text>'
        )
        parts.append(
            f'<rect x="52" y="{y}" width="{width - 182}" '
            f'height="{strip_h}" rx="4" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{width - 122}" y="{y + strip_h - 3}" '
            f'font-size="9" fill="{_C_INK}">'
            f'{_esc(task) if task else "idle"}</text>'
        )

    height = occ_top + max(1, len(occupancy)) * (strip_h + 4) + 16
    head = title or (
        f'{graph.get("name", "dag")} — step '
        f'{frame.get("step", 0) if frame else 0}, '
        f'{len(executed)}/{graph.get("n", len(pos))} executed, '
        f'{len(eligible)} eligible'
    )
    legend = (
        f'<g font-size="9" fill="{_C_INK_2}">'
        f'<circle cx="36" cy="40" r="5" fill="{_C_EXECUTED}"/>'
        f'<text x="45" y="43">executed</text>'
        f'<circle cx="110" cy="40" r="5" fill="{_C_ELIGIBLE}"/>'
        f'<text x="119" y="43">eligible</text>'
        f'<circle cx="180" cy="40" r="5" fill="{_C_INFLIGHT}"/>'
        f'<text x="189" y="43">in flight</text>'
        f'<circle cx="252" cy="40" r="5" fill="{_C_SURFACE}" '
        f'stroke="{_C_BLOCKED}" stroke-width="1.5"/>'
        f'<text x="261" y="43">blocked</text></g>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="system-ui, sans-serif">'
        f'<rect width="{width}" height="{height}" fill="{_C_SURFACE}"/>'
        f'<text x="30" y="24" font-size="13" fill="{_C_INK}" '
        f'font-weight="600">{_esc(head)}</text>'
        f'{legend}{"".join(parts)}</svg>'
    )
