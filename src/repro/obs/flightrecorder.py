"""The degradation flight recorder: an always-on black box.

When something goes visibly wrong — the pipeline degrades a search to
a fallback certificate, a request dies with a 5xx, the
fault-injecting simulator quarantines a client — the
:class:`FlightRecorder` dumps a **correlated bundle** to disk: the
triggering request ID, the recent trace spans, the counter delta since
the previous dump, the newest schedule frames per dag, and the fault
events visible in them.  The bundle is everything needed to answer
"what was this process doing when request X degraded?" after the
fact, without having had debug logging on.

Design constraints:

* **Always on, bounded.**  There is no enable flag; instead every
  cost is bounded — at most :attr:`max_dumps` bundles on disk (oldest
  pruned), at most one dump per request ID (the seeded-fault
  acceptance test relies on *exactly one* dump per triggering
  request), and uncorrelated triggers rate-limited to one per
  :attr:`min_interval_seconds`.
* **Off the hot path.**  Triggers fire only where failures are
  already being counted (degradations, 5xx responses, quarantines) —
  the happy path never calls in.
* **Lazy disk.**  The dump directory (``tempfile.mkdtemp`` under the
  system temp dir unless configured) is created on the first dump,
  so a process that never fails never writes.

Bundles are listable and fetchable over HTTP (``GET /v1/debug/dumps``
and ``GET /v1/debug/dumps/{id}``, mounted on the scheduling service
and the obs server via :func:`dispatch_debug`) and from the CLI
(``repro debug dump``).  Dump counts surface as
``obs_flight_dumps_total{reason}``.  See ``docs/OBSERVABILITY.md``
§8 for the bundle schema.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict

from ..fsio import atomic_write_json
from .metrics import global_registry
from .observatory import global_frame_store
from .tracing import global_tracer

__all__ = [
    "DEBUG_ENDPOINTS",
    "FlightRecorder",
    "dispatch_debug",
    "global_flight_recorder",
    "set_global_flight_recorder",
]

#: bundles retained on disk (oldest pruned first).
DEFAULT_MAX_DUMPS = 16
#: trace records captured per bundle (the tail of the ring).
DEFAULT_SPAN_TAIL = 256
#: frames captured per dag channel per bundle.
DEFAULT_FRAMES_PER_CHANNEL = 8
#: floor between dumps that carry no request ID (correlated triggers
#: dedupe by request instead).
DEFAULT_MIN_INTERVAL_SECONDS = 1.0

#: debug endpoint templates (listed in 404 payloads).
DEBUG_ENDPOINTS = (
    "GET /v1/debug/dumps",
    "GET /v1/debug/dumps/{id}",
)


class FlightRecorder:
    """Always-on bounded capture of failure context (see module doc).

    Parameters
    ----------
    dump_dir:
        Where bundles land; created lazily (a private temp dir by
        default, so unconfigured processes stay clean).
    max_dumps:
        On-disk retention; the oldest bundle is pruned past this.
    min_interval_seconds:
        Rate floor for triggers without a request ID.
    """

    def __init__(self, dump_dir: str | None = None, *,
                 max_dumps: int = DEFAULT_MAX_DUMPS,
                 min_interval_seconds: float =
                 DEFAULT_MIN_INTERVAL_SECONDS,
                 span_tail: int = DEFAULT_SPAN_TAIL,
                 frames_per_channel: int =
                 DEFAULT_FRAMES_PER_CHANNEL) -> None:
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1, got {max_dumps}")
        self._configured_dir = dump_dir
        self._dir: str | None = None
        self.max_dumps = max_dumps
        self.min_interval_seconds = min_interval_seconds
        self.span_tail = span_tail
        self.frames_per_channel = frames_per_channel
        self._lock = threading.Lock()
        #: dump id -> meta (insertion order = dump order)
        self._index: OrderedDict[str, dict] = OrderedDict()
        #: request IDs already dumped (exactly-one-dump guarantee)
        self._seen_requests: OrderedDict[str, None] = OrderedDict()
        self._last_uncorrelated = 0.0
        self._n = 0
        #: counter values at the previous dump, for the delta section
        self._baseline: dict[str, float] = {}

    # -- capture -------------------------------------------------------
    @property
    def dump_dir(self) -> str | None:
        """The directory bundles land in (``None`` until first dump
        when unconfigured)."""
        return self._dir or self._configured_dir

    def _ensure_dir(self) -> str:
        if self._dir is None:
            if self._configured_dir is not None:
                os.makedirs(self._configured_dir, exist_ok=True)
                self._dir = self._configured_dir
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-flight-")
        return self._dir

    def trigger(self, reason: str, *, request_id: str | None = None,
                detail: str | None = None) -> str | None:
        """Capture and persist one bundle; returns its dump id, or
        ``None`` when suppressed (request already dumped, or an
        uncorrelated trigger inside the rate floor).

        Never raises: a black box that can take its process down is
        worse than no black box.
        """
        try:
            return self._trigger(reason, request_id, detail)
        except Exception:  # pragma: no cover - defensive
            return None

    def _trigger(self, reason: str, request_id: str | None,
                 detail: str | None) -> str | None:
        now = time.time()
        with self._lock:
            if request_id is not None:
                if request_id in self._seen_requests:
                    return None
                self._seen_requests[request_id] = None
                while len(self._seen_requests) > 4 * self.max_dumps:
                    self._seen_requests.popitem(last=False)
            else:
                if (now - self._last_uncorrelated
                        < self.min_interval_seconds):
                    return None
                self._last_uncorrelated = now
            self._n += 1
            dump_id = f"{self._n:04d}-{reason}"
        bundle = self._capture(dump_id, reason, request_id, detail, now)
        self._persist(dump_id, bundle)
        global_registry().counter(
            "obs_flight_dumps_total",
            "flight-recorder bundles written",
            ("reason",),
        ).labels(reason).inc()
        return dump_id

    def _capture(self, dump_id: str, reason: str,
                 request_id: str | None, detail: str | None,
                 now: float) -> dict:
        records = global_tracer().records()[-self.span_tail:]
        spans = [json.loads(r.to_json()) for r in records]
        snapshot = global_registry().snapshot()
        counters = _flat_counters(snapshot)
        with self._lock:
            delta = {k: v - self._baseline.get(k, 0.0)
                     for k, v in counters.items()
                     if v != self._baseline.get(k, 0.0)}
            self._baseline = counters
        frames = global_frame_store().recent(self.frames_per_channel)
        faults = [
            dict(ev, dag=fp, frame_seq=frame["seq"])
            for fp, payloads in frames.items()
            for frame in payloads
            for ev in frame["events"]
        ]
        return {
            "schema": 1,
            "id": dump_id,
            "reason": reason,
            "request_id": request_id,
            "detail": detail,
            "ts": round(now, 3),
            "spans": spans,
            "metrics": snapshot,
            "counters_delta": delta,
            "frames": frames,
            "faults": faults,
        }

    def _persist(self, dump_id: str, bundle: dict) -> None:
        path = os.path.join(self._ensure_dir(), f"{dump_id}.json")
        # power-loss-safe atomic replace: a half-written black box is
        # worse than none (it reads as evidence but lies)
        atomic_write_json(path, bundle)
        with self._lock:
            self._index[dump_id] = {
                "id": dump_id,
                "reason": bundle["reason"],
                "request_id": bundle["request_id"],
                "detail": bundle["detail"],
                "ts": bundle["ts"],
                "spans": len(bundle["spans"]),
                "faults": len(bundle["faults"]),
            }
            evicted = []
            while len(self._index) > self.max_dumps:
                old_id, _ = self._index.popitem(last=False)
                evicted.append(old_id)
        for old_id in evicted:
            try:
                os.unlink(os.path.join(self._dir, f"{old_id}.json"))
            except OSError:
                pass

    # -- reads ---------------------------------------------------------
    def list(self) -> list[dict]:
        """Bundle metadata, oldest first."""
        with self._lock:
            return [dict(meta) for meta in self._index.values()]

    def get(self, dump_id: str) -> dict | None:
        """The full bundle, or ``None`` when unknown/pruned."""
        with self._lock:
            if dump_id not in self._index:
                return None
            path = os.path.join(self._dir, f"{dump_id}.json")
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)
        except (OSError, ValueError):
            return None


def _flat_counters(snapshot: dict) -> dict[str, float]:
    """Counters of a registry snapshot flattened to
    ``name{k=v,...} -> value`` (the delta-section keyspace)."""
    out: dict[str, float] = {}
    for name, data in snapshot.items():
        if data.get("type") != "counter":
            continue
        if "series" in data:
            for entry in data["series"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                )
                out[f"{name}{{{labels}}}"] = entry["value"]
        elif "value" in data:
            out[name] = data["value"]
    return out


#: the process-wide recorder (created eagerly: always-on by design).
_GLOBAL_FLIGHT_RECORDER = FlightRecorder()


def global_flight_recorder() -> FlightRecorder:
    """The process-wide default :class:`FlightRecorder`."""
    return _GLOBAL_FLIGHT_RECORDER


def set_global_flight_recorder(rec: FlightRecorder) -> FlightRecorder:
    """Replace the process-wide recorder; returns the old one."""
    global _GLOBAL_FLIGHT_RECORDER
    old = _GLOBAL_FLIGHT_RECORDER
    _GLOBAL_FLIGHT_RECORDER = rec
    return old


def dispatch_debug(svc, handler, method: str, path: str,
                   query: dict) -> bool:
    """Route one debug request; returns ``False`` when ``path`` is
    not a debug endpoint (the caller falls through)."""
    if (path != "/v1/debug/dumps"
            and not path.startswith("/v1/debug/dumps/")):
        return False
    from .server import RequestError
    if method != "GET":
        raise RequestError(405, "method not allowed")
    rec = global_flight_recorder()
    if path == "/v1/debug/dumps":
        handler.respond_json(200, {
            "dumps": rec.list(),
            "dump_dir": rec.dump_dir,
        })
        return True
    rest = path[len("/v1/debug/dumps/"):]
    if not rest or "/" in rest:
        raise RequestError(404, "unknown debug endpoint")
    bundle = rec.get(rest)
    if bundle is None:
        raise RequestError(404, f"unknown dump {rest!r}")
    handler.respond_json(200, bundle)
    return True
