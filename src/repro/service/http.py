"""Scheduling-as-a-service: the HTTP JSON API.

A zero-dependency (stdlib ``http.server``) JSON service over the
request pipeline, built on the same hardened base as the
observability server (:class:`repro.obs.server.HTTPServiceBase` —
per-request socket timeouts, path-length cap, bounded JSON bodies,
drain-on-stop):

==========================  ==========================================
endpoint                    semantics
==========================  ==========================================
``POST /v1/dags``           submit a dag (the ``dag_to_dict`` wire
                            format); registers it content-addressed
                            and certifies a schedule — coalesced with
                            concurrent submissions of the same
                            structure; ``429`` under backpressure
``GET /v1/schedules/{fp}``  the certified schedule for a registered
                            fingerprint
``POST /v1/simulate``       run the simulator on a submitted dag, on
                            the request's own thread; ``429`` under
                            backpressure
``GET /healthz``            liveness
``GET /readyz``             readiness (``503`` while a journal
                            replays or the service stops)
``GET /metrics``            Prometheus text format 0.0.4
``GET /stats``              JSON: metrics snapshot + ``service``
                            section (registry occupancy, pipeline
                            config, journal/recovery state when
                            serving with ``--data-dir``)
``GET /v1/slo``             declarative service-level objectives
                            evaluated live (:mod:`repro.obs.slo`)
``GET /v1/debug/dumps``     flight-recorder bundle index (and
                            ``/{id}`` fetches one;
                            :mod:`repro.obs.flightrecorder`)
==========================  ==========================================

Every request is correlated: the service accepts or mints an
``X-Repro-Request-Id`` at ingress, binds it for everything the
request touches (spans, frames, exemplars, flight-recorder dumps)
and echoes it on the response; ``429`` backpressure responses carry
``Retry-After`` (docs/OBSERVABILITY.md §8, docs/SERVICE.md).

The service also mounts the live observatory
(:mod:`repro.obs.observatory`): ``GET /ui`` serves the
self-contained HTML page, ``GET /v1/events`` streams frame/stats
deltas (SSE), and ``GET /v1/dags/{fp}/frame|frames|graph`` expose
the per-dag schedule-frame ring buffers.  Frame capture is enabled
on ``start()`` unless constructed with ``frames=False``.

Responses are the canonical JSON wire encoding
(:func:`repro.obs.exposition.json_body`: sorted keys, trailing
newline).  Errors are ``{"error": ...}`` JSON with conventional status
codes.  The service consumes the library exclusively through the
:mod:`repro.api` facade (via the pipeline) — it performs no scheduling
itself.

CLI surface: ``repro serve --port P`` (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import dataclasses
import time

from ..api import API_VERSION, MachineSpec, dag_from_dict, schedule_to_dict
from ..exceptions import ReproError, SimulationError
from ..obs.exposition import (
    PROM_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
    prometheus_body,
    stats_payload,
)
from ..obs.flightrecorder import (
    DEBUG_ENDPOINTS,
    FlightRecorder,
    dispatch_debug,
    set_global_flight_recorder,
)
from ..obs.metrics import global_registry
from ..obs.observatory import (
    OBSERVATORY_ENDPOINTS,
    dispatch_observatory,
    global_frame_store,
)
from ..obs.server import (
    DEFAULT_REQUEST_TIMEOUT,
    HardenedHandler,
    HTTPServiceBase,
    RequestError,
)
from ..obs.slo import dispatch_slo
from ..obs.tracing import global_tracer
from .durability import DurabilityManager, RecoveryReport
from .pipeline import (
    PipelineConfig,
    RejectedError,
    RequestPipeline,
    _observe_phase,
)
from .registry import DagRegistry

__all__ = ["ENDPOINTS", "SchedulingService"]

#: seconds a 429-rejected client should back off before retrying —
#: sent as ``Retry-After`` on every backpressure response.  One
#: second comfortably outlasts a typical certify or simulation.
RETRY_AFTER_SECONDS = 1.0

#: served endpoints (the 404 payload lists them).
ENDPOINTS = (
    "POST /v1/dags",
    "GET /v1/schedules/{fingerprint}",
    "POST /v1/simulate",
    "GET /healthz",
    "GET /readyz",
    "GET /metrics",
    "GET /stats",
    "GET /v1/slo",
) + OBSERVATORY_ENDPOINTS + DEBUG_ENDPOINTS

#: simulation options accepted over the wire, with their validators.
#: Everything else in :func:`repro.api.simulate`'s signature (work
#: callables, fault plans, trace recording, explicit schedules) is
#: process-local by nature and not exposed.
_SIM_OPTIONS: dict[str, type] = {
    "policy": str,
    "clients": int,
    "seed": int,
    "work": float,
    "comm_per_input": float,
    "exhaustive_limit": int,
    "state_budget": int,
    "strategy": str,
    "budget": int,
    "machine": str,
}


class SchedulingService(HTTPServiceBase):
    """The scheduling service: registry + pipeline behind HTTP JSON.

    Parameters
    ----------
    host, port, request_timeout:
        See :class:`~repro.obs.server.HTTPServiceBase`.
    registry:
        The :class:`~repro.service.registry.DagRegistry` to serve
        from; default builds a fresh one.
    pipeline_config:
        Admission / coalescing / certification knobs
        (:class:`~repro.service.pipeline.PipelineConfig`).
    frames:
        When true (the default), ``start()`` enables the global
        :class:`~repro.obs.observatory.FrameStore` so simulations
        driven through the service record schedule frames for the
        live observatory (``/ui``, ``/v1/events``).  Pass ``False``
        to keep frame capture off (zero per-step cost).
    access_log:
        Opt-in structured JSON access log (one line per request on
        stderr: request ID, route, status, duration); off by
        default.  See :class:`~repro.obs.server.HTTPServiceBase`.
    dump_dir:
        Where the flight recorder writes its bundles; installs a
        fresh process-wide recorder targeting that directory.
        Default ``None`` keeps the existing global recorder (which
        lazily uses a private temp dir).
    data_dir:
        Opt-in durability (:mod:`repro.service.durability`): a
        directory for the write-ahead journal and snapshots.  On
        ``start()`` the listener comes up **not ready** (``/readyz``
        → 503) while the journal replays into the registry, flipping
        ready only once replay completes; every subsequent store /
        certificate / spill is journaled, and a graceful ``stop()``
        snapshots + fsyncs before exit.  ``None`` (default) serves
        purely in-memory, exactly as before.
    fsync, snapshot_every:
        Journal knobs, forwarded to
        :class:`~repro.service.durability.DurabilityManager`;
        ignored without ``data_dir``.

    Every request runs on the listener's handler thread that
    received it; the pipeline owns no threads of its own.  Usable as
    a context manager, like every repro server.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        registry: DagRegistry | None = None,
        pipeline_config: PipelineConfig | None = None,
        frames: bool = True,
        access_log: bool = False,
        dump_dir: str | None = None,
        data_dir: str | None = None,
        fsync: str = "interval",
        snapshot_every: int = 1024,
    ) -> None:
        super().__init__(host, port, request_timeout,
                         access_log=access_log)
        self.registry = registry if registry is not None else DagRegistry()
        self.pipeline = RequestPipeline(self.registry, pipeline_config)
        self.frames = frames
        if dump_dir is not None:
            set_global_flight_recorder(FlightRecorder(dump_dir))
        self.durability: DurabilityManager | None = None
        self.recovery: RecoveryReport | None = None
        if data_dir is not None:
            self.durability = DurabilityManager(
                data_dir, fsync=fsync, snapshot_every=snapshot_every,
            )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SchedulingService":
        if self.frames:
            global_frame_store().enable()
        if self.durability is not None:
            # come up NOT ready: the listener answers (503 on
            # /readyz, 200 on /healthz) while the journal replays,
            # so orchestrators see "alive, warming" — never a served
            # request against a half-recovered registry
            self.ready = False
        super().start()
        if self.durability is not None:
            self.recovery = self.durability.recover(self.registry)
            # replay done — journal future writes, open for traffic
            self.registry.journal = self.durability
            self.ready = True
        return self

    def stop(self) -> None:
        super().stop()  # drain HTTP first so no new work arrives
        if self.durability is not None:
            # every journaled write is already on disk; snapshot +
            # fsync so the next boot replays from a compact prefix
            self.durability.close()

    # -- routing -------------------------------------------------------
    def dispatch(self, handler: HardenedHandler, method: str,
                 path: str, query: dict) -> None:
        if dispatch_observatory(self, handler, method, path, query):
            return
        if dispatch_slo(self, handler, method, path):
            return
        if dispatch_debug(self, handler, method, path, query):
            return
        if path == "/v1/dags":
            self._require(method, "POST")
            self._route_submit(handler)
        elif path.startswith("/v1/schedules/"):
            self._require(method, "GET")
            self._route_schedule(handler, path[len("/v1/schedules/"):])
        elif path == "/v1/simulate":
            self._require(method, "POST")
            self._route_simulate(handler)
        elif path == "/healthz":
            self._require(method, "GET")
            handler.respond(200, "ok\n", TEXT_CONTENT_TYPE)
        elif path == "/readyz":
            self._require(method, "GET")
            if self.ready:
                handler.respond(200, "ready\n", TEXT_CONTENT_TYPE)
            else:
                handler.respond(503, "not ready\n", TEXT_CONTENT_TYPE)
        elif path == "/metrics":
            self._require(method, "GET")
            handler.respond(200, prometheus_body(global_registry()),
                            PROM_CONTENT_TYPE)
        elif path == "/stats":
            self._require(method, "GET")
            handler.respond_json(200, self.stats())
        else:
            handler.respond_json(
                404, {"error": f"no such endpoint {path!r}",
                      "endpoints": list(ENDPOINTS)})

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise RequestError(405, f"method {method} not allowed")

    @staticmethod
    def _respond_timed(handler: HardenedHandler, route: str,
                       payload: dict) -> None:
        """``respond_json`` with the serialization + socket write
        attributed as the route's ``serialize`` phase."""
        t0 = time.perf_counter()
        handler.respond_json(200, payload)
        _observe_phase(route, "serialize", t0)

    # -- routes --------------------------------------------------------
    def _route_submit(self, handler: HardenedHandler) -> None:
        body = handler.read_json_body()
        if not isinstance(body, dict):
            raise RequestError(400, "expected a JSON object")
        # accept the dag either bare or wrapped as {"dag": {...}}
        payload = body.get("dag", body)
        if not isinstance(payload, dict):
            raise RequestError(400, "'dag' must be a JSON object")
        try:
            dag = dag_from_dict(payload)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise RequestError(400, f"bad dag: {exc}") from None
        try:
            entry, how = self.pipeline.submit_dag(dag)
        except RejectedError as exc:
            raise RequestError(429, str(exc),
                               retry_after=RETRY_AFTER_SECONDS) \
                from None
        sched = entry.schedule
        assert sched is not None, "submit_dag returns certified entries"
        self._respond_timed(handler, "/v1/dags", {
            "api_version": API_VERSION,
            "fingerprint": entry.fingerprint,
            "how": how,
            "certificate": sched.certificate,
            "kind": sched.kind,
            "strategy": sched.strategy,
            "bounds": list(sched.bounds) if sched.bounds else sched.bounds,
            "provenance": [list(p) for p in sched.provenance],
            "ic_optimal": sched.ic_optimal,
            "profile": list(sched.profile),
            "schedule_path": f"/v1/schedules/{entry.fingerprint}",
        })

    def _route_schedule(self, handler: HardenedHandler,
                        fingerprint: str) -> None:
        entry = self.registry.get(fingerprint)
        if entry is None:
            raise RequestError(
                404, f"no registered dag with fingerprint "
                     f"{fingerprint!r} (never submitted, or spilled "
                     f"from the registry — resubmit via POST /v1/dags)"
            )
        sched = entry.schedule
        if sched is None:
            raise RequestError(
                409, "dag registered but not certified yet"
            )
        handler.respond_json(200, {
            "api_version": API_VERSION,
            "fingerprint": entry.fingerprint,
            "certificate": sched.certificate,
            "kind": sched.kind,
            "strategy": sched.strategy,
            "bounds": list(sched.bounds) if sched.bounds else sched.bounds,
            "provenance": [list(p) for p in sched.provenance],
            "ic_optimal": sched.ic_optimal,
            "profile": list(sched.profile),
            "hits": entry.hits,
            "schedule": schedule_to_dict(sched.schedule),
        })

    def _route_simulate(self, handler: HardenedHandler) -> None:
        body = handler.read_json_body()
        if not isinstance(body, dict):
            raise RequestError(400, "expected a JSON object")
        dag = self._resolve_sim_dag(body)
        kwargs = {}
        for key, value in body.items():
            if key in ("dag", "fingerprint"):
                continue
            caster = _SIM_OPTIONS.get(key)
            if caster is None:
                raise RequestError(
                    400, f"unknown simulation option {key!r} "
                         f"(accepted: {sorted(_SIM_OPTIONS)})"
                )
            try:
                kwargs[key] = caster(value)
            except (TypeError, ValueError):
                raise RequestError(
                    400, f"option {key!r} must be {caster.__name__}"
                ) from None
        if "machine" in kwargs:
            # validate the spec before admission so a typo is a fast
            # 400 that takes no admission slot
            try:
                MachineSpec.parse(kwargs["machine"])
            except SimulationError as exc:
                raise RequestError(
                    400, f"invalid machine spec: {exc}"
                ) from None
        try:
            result = self.pipeline.simulate(dag, **kwargs)
        except RejectedError as exc:
            raise RequestError(429, str(exc),
                               retry_after=RETRY_AFTER_SECONDS) \
                from None
        except (ReproError, SimulationError, ValueError) as exc:
            raise RequestError(400, f"simulation failed: {exc}") \
                from None
        self._respond_timed(handler, "/v1/simulate", {
            "api_version": API_VERSION,
            "fingerprint": result.fingerprint,
            "policy": result.policy,
            "certificate": result.certificate,
            "kind": result.kind,
            "makespan": result.makespan,
            "utilization": result.utilization,
            "starvation_events": result.starvation_events,
            "idle_time": result.idle_time,
            "completed": result.completed,
            "lost_allocations": result.lost_allocations,
            "mean_headroom": result.mean_headroom,
            "machine": result.machine,
            "machine_report": (
                None if result.machine_report is None
                else dataclasses.asdict(result.machine_report)
            ),
        })

    def _resolve_sim_dag(self, body: dict):
        """The dag to simulate: inline (``dag``) or by reference to a
        previously submitted fingerprint (``fingerprint``)."""
        if "dag" in body:
            if not isinstance(body["dag"], dict):
                raise RequestError(400, "'dag' must be a JSON object")
            try:
                return dag_from_dict(body["dag"])
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                raise RequestError(400, f"bad dag: {exc}") from None
        if "fingerprint" in body:
            entry = self.registry.get(str(body["fingerprint"]))
            if entry is None:
                raise RequestError(
                    404, f"no registered dag with fingerprint "
                         f"{body['fingerprint']!r}"
                )
            return entry.dag
        raise RequestError(400, "provide 'dag' or 'fingerprint'")

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        cfg = self.pipeline.config
        durability = None
        if self.durability is not None:
            durability = self.durability.stats()
            durability["recovery"] = (
                self.recovery.to_dict()
                if self.recovery is not None else None
            )
        return stats_payload(
            global_registry(),
            global_tracer(),
            ready=self.ready,
            uptime_seconds=self.uptime_seconds,
            extra={
                "service": {
                    "api_version": API_VERSION,
                    "registry": self.registry.stats(),
                    "pipeline": {
                        "max_inflight": cfg.max_inflight,
                        "exhaustive_limit": cfg.exhaustive_limit,
                        "state_budget": cfg.state_budget,
                        "strategy": cfg.strategy,
                        "budget": cfg.budget,
                    },
                    "durability": durability,
                },
            },
        )
