"""Unified observability: metrics registry, structured tracing,
profiling hooks, HTTP exposition.

Zero-dependency instrumentation shared by every hot layer of the
library (exhaustive search, certification cache, scheduler front end,
sim server) and exposed through the CLI (``repro stats``,
``--metrics``, ``--trace``, ``repro serve-metrics``, ``repro
watch``).  See ``docs/OBSERVABILITY.md`` for the metric catalog, the
trace schema, the process scope of the telemetry, the HTTP endpoints,
and the measured overhead.

Five pieces:

* :class:`MetricsRegistry` — thread-safe counters / gauges /
  histograms with labels, snapshot/reset, and JSON + Prometheus text
  exposition (:mod:`repro.obs.metrics`);
* :class:`Tracer` — structured span/event records with contextvar
  nesting, a bounded ring buffer, JSONL export, and a no-op fast path
  when disabled (:mod:`repro.obs.tracing`);
* :func:`span` / :func:`profiled` — the single instrumentation API
  the rest of the library uses (:mod:`repro.obs.instrument`);
* :class:`ObsServer` — the thread-based HTTP exposition service
  (``/metrics``, ``/stats``, ``/healthz``, ``/readyz``, ``/traces``,
  plus the live observatory surface ``/ui`` / ``/v1/events`` /
  ``/v1/dags/{fp}/frame``; :mod:`repro.obs.server`, imported lazily);
* :func:`watch` / :func:`render_dashboard` — the live in-terminal
  dashboard over ``/stats`` (:mod:`repro.obs.dashboard`, imported
  lazily);
* :class:`FrameStore` / :func:`render_frame_svg` — the schedule-frame
  observatory: bounded per-dag ring buffers of executed / eligible /
  blocked frontier snapshots and the SVG frame renderer behind
  ``/ui`` and ``repro observe`` (:mod:`repro.obs.observatory`,
  imported lazily).
"""

from .context import (
    REQUEST_ID_HEADER,
    accept_request_id,
    current_request_id,
    new_request_id,
    request_scope,
    reset_request_id,
    set_request_id,
)
from .instrument import profiled, span
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    set_global_registry,
)
from .tracing import (
    TraceEvent,
    Tracer,
    global_tracer,
    load_jsonl,
    set_global_tracer,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "FrameStore",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsServer",
    "REQUEST_ID_HEADER",
    "SLObjective",
    "ScheduleFrame",
    "TraceEvent",
    "Tracer",
    "accept_request_id",
    "current_request_id",
    "evaluate_slos",
    "fetch_stats",
    "fetch_traces",
    "global_flight_recorder",
    "global_frame_store",
    "global_registry",
    "global_tracer",
    "load_jsonl",
    "new_request_id",
    "profiled",
    "render_dashboard",
    "render_frame_svg",
    "request_scope",
    "reset_request_id",
    "set_global_flight_recorder",
    "set_global_frame_store",
    "set_global_registry",
    "set_global_tracer",
    "set_request_id",
    "slo_payload",
    "span",
    "watch",
]

#: lazily imported attributes (PEP 562): the HTTP server and dashboard
#: pull in ``http.server`` / ``urllib``, which the hot instrumented
#: layers importing this package never need.
_LAZY = {
    "ObsServer": ("repro.obs.server", "ObsServer"),
    "fetch_stats": ("repro.obs.dashboard", "fetch_stats"),
    "fetch_traces": ("repro.obs.dashboard", "fetch_traces"),
    "render_dashboard": ("repro.obs.dashboard", "render_dashboard"),
    "watch": ("repro.obs.dashboard", "watch"),
    "FrameStore": ("repro.obs.observatory", "FrameStore"),
    "ScheduleFrame": ("repro.obs.observatory", "ScheduleFrame"),
    "global_frame_store": ("repro.obs.observatory", "global_frame_store"),
    "set_global_frame_store": (
        "repro.obs.observatory", "set_global_frame_store"),
    "render_frame_svg": ("repro.obs.observatory", "render_frame_svg"),
    "SLObjective": ("repro.obs.slo", "SLObjective"),
    "evaluate_slos": ("repro.obs.slo", "evaluate"),
    "slo_payload": ("repro.obs.slo", "slo_payload"),
    "FlightRecorder": ("repro.obs.flightrecorder", "FlightRecorder"),
    "global_flight_recorder": (
        "repro.obs.flightrecorder", "global_flight_recorder"),
    "set_global_flight_recorder": (
        "repro.obs.flightrecorder", "set_global_flight_recorder"),
}


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module), attr)
