"""HTTP exposition of the observability subsystem — and the hardened
stdlib HTTP base every repro server builds on.

Two layers live here:

* :class:`HTTPServiceBase` / :class:`HardenedHandler` — a reusable,
  zero-dependency (stdlib ``http.server``) threading HTTP server with
  the hardening every long-lived repro endpoint needs: per-request
  socket timeouts (slow-loris cutoff), a request-path length cap
  (``414``), bounded JSON request bodies (``413``/``400``), and
  drain-on-stop (every in-flight or new request is answered ``503``
  with ``Connection: close`` while shutting down, so a stalled client
  can never wedge :meth:`~HTTPServiceBase.stop`).  The scheduling
  service (:mod:`repro.service.http`) subclasses this base.
* :class:`ObsServer` — the observability endpoints on that base:

  =============  =====================================================
  endpoint       response
  =============  =====================================================
  ``/metrics``   Prometheus text exposition format 0.0.4
                 (``text/plain; version=0.0.4``)
  ``/stats``     JSON: the registry snapshot plus tracer/uptime meta
  ``/healthz``   ``200 ok`` while the process is alive (liveness)
  ``/readyz``    ``200 ready`` / ``503 not ready`` (readiness; toggle
                 via :attr:`ObsServer.ready`)
  ``/traces``    recent trace records as JSONL
                 (``?limit=N`` keeps the newest N; ``?since=SEQ``
                 returns only records appended after the cursor, with
                 the resume cursor in ``X-Repro-Trace-Seq``)
  =============  =====================================================

  plus the shared observatory endpoints (``/ui``, ``/v1/frames``,
  ``/v1/dags/{fp}/frame|frames|graph``, ``/v1/events``) routed through
  :func:`repro.obs.observatory.dispatch_observatory` — see
  :mod:`repro.obs.observatory` and ``docs/OBSERVABILITY.md`` §7.

The server resolves the *global* registry/tracer at request time
unless constructed with explicit instances, so ``set_global_registry``
swaps are visible to scrapers immediately.  Requests are served from a
daemon thread pool (``ThreadingHTTPServer``); exposition only ever
takes the registry locks briefly to snapshot, so scraping a live
search perturbs it minimally (measured in
``benchmarks/bench_observability.py``, gated under the same 5%
instrumentation budget).

CLI surface: ``repro serve-metrics --port P`` runs a standalone
exposition process; ``--serve-metrics PORT`` on ``schedule`` /
``verify`` / ``simulate`` serves during the command; ``repro watch``
renders a live dashboard from ``/stats`` (see
:mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .context import (
    REQUEST_ID_HEADER,
    accept_request_id,
    reset_request_id,
    set_request_id,
)
from .exposition import (
    JSON_CONTENT_TYPE,
    NDJSON_CONTENT_TYPE,
    PROM_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
    json_body,
    prometheus_body,
    stats_payload,
)
from .metrics import MetricsRegistry, global_registry
from .tracing import Tracer, global_tracer

__all__ = [
    "HTTPServiceBase",
    "HardenedHandler",
    "LISTEN_BACKLOG",
    "ObsServer",
    "PROM_CONTENT_TYPE",
    "RequestError",
    "route_template",
]


#: per-request socket timeout (seconds) unless the server overrides it:
#: a client that stalls mid-request (slow-loris) or parks an idle
#: keep-alive connection is cut off after this long, so stalled
#: scrapers can never pin serving threads indefinitely.
DEFAULT_REQUEST_TIMEOUT = 5.0

#: longest accepted request path; anything longer is answered ``414``
#: and the connection closed (the stdlib already caps the whole request
#: line at 64 KiB — this keeps hostile paths out of routing/logs much
#: earlier).
MAX_PATH_LENGTH = 2048

#: largest accepted JSON request body (bytes); bigger bodies are
#: answered ``413`` without being read into memory.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: listen backlog of every repro HTTP server.  The stdlib default of 5
#: overflows when a few clients connect at once: Linux drops the SYN
#: that finds the accept queue full, and the client resends it only
#: after its 1 s initial retransmission timeout
#: (``docs/PERFORMANCE.md`` §5.1).
LISTEN_BACKLOG = 128


class _ThreadingServer(ThreadingHTTPServer):
    request_queue_size = LISTEN_BACKLOG
    daemon_threads = True


class RequestError(Exception):
    """A client error a route wants turned into an HTTP response.

    Raised inside a route handler with a status and message;
    :class:`HardenedHandler` converts it to a JSON error payload.
    ``retry_after`` (seconds) adds a ``Retry-After`` header — every
    backpressure rejection (429/503) should set it so well-behaved
    clients know when to come back.
    """

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


#: route templates with a path parameter, longest prefix first —
#: :func:`route_template` maps concrete paths onto these so the
#: ``route`` label of ``service_request_seconds`` stays bounded.
_ROUTE_PREFIXES = (
    ("/v1/debug/dumps/", "/v1/debug/dumps/{id}"),
    ("/v1/schedules/", "/v1/schedules/{fingerprint}"),
    ("/v1/dags/", "/v1/dags/{fingerprint}/*"),
)

#: literal paths served somewhere in the repo's servers.
_ROUTE_LITERALS = frozenset({
    "/healthz", "/readyz", "/metrics", "/stats", "/traces", "/ui",
    "/v1/dags", "/v1/simulate", "/v1/frames", "/v1/events",
    "/v1/slo", "/v1/debug/dumps",
})


def route_template(path: str) -> str:
    """The bounded-cardinality route label for a request path:
    literal paths pass through, parameterized paths collapse to
    their template, anything else becomes ``"other"`` (so hostile
    paths cannot mint unbounded label values)."""
    if path in _ROUTE_LITERALS:
        return path
    for prefix, template in _ROUTE_PREFIXES:
        if path.startswith(prefix):
            return template
    return "other"


class HardenedHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`HTTPServiceBase` (set as
    the ``svc`` class attribute of a per-server subclass).

    Applies the shared hardening before any routing: drain-on-stop
    (503 + close), the path length cap (414), and per-request socket
    timeouts (the per-server subclass overrides :attr:`timeout`).
    Routing itself is delegated to ``svc.dispatch``.
    """

    svc: "HTTPServiceBase"
    protocol_version = "HTTP/1.1"
    server_version = "repro"
    #: socket timeout; ``BaseHTTPRequestHandler`` applies it to the
    #: connection and turns a mid-request stall into a closed
    #: connection (the per-server subclass overrides this with
    #: ``HTTPServiceBase.request_timeout``).
    timeout = DEFAULT_REQUEST_TIMEOUT
    #: the correlation ID of the request being served (set per request
    #: in :meth:`_handle`; echoed by :meth:`respond`).
    request_id: str | None = None
    #: status of the response already sent (0 = none yet) — read by
    #: :meth:`HTTPServiceBase.observe_request` after dispatch.
    response_status: int = 0

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the opt-in JSON access log replaces stderr noise

    def respond(self, status: int, body: str, content_type: str,
                close: bool = False,
                headers: dict[str, str] | None = None) -> None:
        data = body.encode("utf-8")
        self.response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        # every repro response is live state (frames, stats, metrics);
        # an intermediary serving a cached copy would show the UI and
        # scrapers stale data, so caching is disabled across the board.
        self.send_header("Cache-Control", "no-store")
        if self.request_id is not None:
            self.send_header(REQUEST_ID_HEADER, self.request_id)
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def respond_json(self, status: int, payload) -> None:
        self.respond(status, json_body(payload), JSON_CONTENT_TYPE)

    def read_json_body(self, max_bytes: int = MAX_BODY_BYTES):
        """Parse the request body as JSON, enforcing the size cap.

        Raises :class:`RequestError` (413 oversized / 400 malformed),
        which :meth:`_handle` converts into the JSON error response.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise RequestError(411, "missing or bad Content-Length") \
                from None
        if length > max_bytes:
            raise RequestError(
                413, f"request body exceeds {max_bytes} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError(400, "empty request body; expected JSON")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"malformed JSON body: {exc}") \
                from None

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        # request correlation starts here: accept the client's ID or
        # mint one, bind it for everything this request causally
        # touches (spans, frames, exemplars, dumps), echo it on the
        # response — even the drain/hardening short-circuits below.
        self.request_id = accept_request_id(
            self.headers.get(REQUEST_ID_HEADER))
        self.response_status = 0
        if self.svc.closing:
            # shutdown drain: answer (don't hang) and shed the
            # connection, so a client mid-request can never wedge
            # stop().
            self.respond(503, "shutting down\n", TEXT_CONTENT_TYPE,
                         close=True)
            return
        url = urlsplit(self.path)
        token = set_request_id(self.request_id)
        t0 = time.perf_counter()
        try:
            if len(self.path) > self.svc.max_path_length:
                self.respond(414, "request path too long\n",
                             TEXT_CONTENT_TYPE, close=True)
                return
            try:
                self.svc.dispatch(self, method, url.path,
                                  parse_qs(url.query))
            except RequestError as exc:
                headers = None
                if exc.retry_after is not None:
                    headers = {"Retry-After":
                               f"{exc.retry_after:g}"}
                self.respond(exc.status,
                             json_body({"error": exc.message}),
                             JSON_CONTENT_TYPE, headers=headers)
            except BrokenPipeError:  # client went away mid-response
                pass
        finally:
            reset_request_id(token)
            self.svc.observe_request(
                method, url.path, self.response_status,
                time.perf_counter() - t0, self.request_id,
            )


class HTTPServiceBase:
    """Lifecycle and hardening shared by every repro HTTP server.

    Parameters
    ----------
    host, port:
        Bind address; port 0 asks the OS for an ephemeral port (read
        it back from :attr:`port` after :meth:`start`).
    request_timeout:
        Per-request socket timeout (seconds).  A connection that
        stalls mid-request — a slow-loris client — or idles between
        keep-alive requests longer than this is closed, so wedged
        clients cannot pin serving threads.

    Usable as a context manager; the served URL is :attr:`url`.
    :attr:`ready` backs ``/readyz`` handlers and starts ``True``;
    :attr:`closing` flips during :meth:`stop`, making every in-flight
    or new request answer ``503`` and drop the connection so shutdown
    can never be held hostage by a client.  Subclasses implement
    :meth:`dispatch`.
    """

    handler_class: type[HardenedHandler] = HardenedHandler
    max_path_length = MAX_PATH_LENGTH

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        access_log: bool = False,
    ) -> None:
        self.host = host
        self._port = port
        self.request_timeout = request_timeout
        #: opt-in structured access log: one JSON line per request
        #: (request ID, route, status, duration) on
        #: :attr:`access_log_stream`; off by default.
        self.access_log = access_log
        #: where access-log lines go; ``None`` = ``sys.stderr``
        #: resolved at write time (tests point this at a buffer).
        self.access_log_stream = None
        self.ready = True
        self.closing = False
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- routing -------------------------------------------------------
    def dispatch(self, handler: HardenedHandler, method: str,
                 path: str, query: dict) -> None:
        """Route one hardened request; subclasses override."""
        raise NotImplementedError

    # -- request observation -------------------------------------------
    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The registry request-level metrics and ``/v1/slo`` read
        from; the process-wide default unless a subclass serves an
        explicit one (:class:`ObsServer` does)."""
        return global_registry()

    def observe_request(self, method: str, path: str, status: int,
                        duration: float, request_id: str) -> None:
        """Post-response accounting, called once per request by
        :meth:`HardenedHandler._handle`: the RED metric
        ``service_request_seconds{route,status}`` (with the request
        ID as exemplar), the opt-in access log, and the
        flight-recorder trigger on unexpected 5xx.
        """
        route = route_template(path)
        self.metrics_registry.histogram(
            "service_request_seconds",
            "end-to-end request latency by route and status",
            ("route", "status"),
        ).labels(route, str(status)).observe(
            duration, exemplar=request_id)
        if self.access_log:
            line = json.dumps({
                "ts": round(time.time(), 3),
                "request_id": request_id,
                "method": method,
                "path": path,
                "route": route,
                "status": status,
                "duration_ms": round(duration * 1e3, 3),
            }, sort_keys=True)
            stream = self.access_log_stream or sys.stderr
            try:
                print(line, file=stream, flush=True)
            except (OSError, ValueError):
                pass  # a dead log stream must not kill serving
        # 5xx means the server failed the request — capture the black
        # box.  503 is excluded: readiness probes and shutdown drains
        # answer 503 by design.
        if status >= 500 and status != 503:
            from .flightrecorder import global_flight_recorder
            global_flight_recorder().trigger(
                "http-5xx", request_id=request_id,
                detail=f"{method} {path} -> {status}")

    # -- introspection -------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after start)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self._started_at if self._started_at else 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "HTTPServiceBase":
        """Bind and serve from a daemon thread; returns ``self``.

        Raises ``OSError`` when the address is unavailable (port in
        use, privileged port, ...).
        """
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self.closing = False
        handler = type("_BoundHandler", (self.handler_class,),
                       {"svc": self, "timeout": self.request_timeout})
        self._httpd = _ThreadingServer((self.host, self._port), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"{type(self).__name__}:{self.port}",
            daemon=True,
        )
        self._started_at = time.time()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread.

        Enters drain mode first (``closing = True`` — every request
        from here on is answered ``503`` with the connection closed),
        so shutdown is never blocked behind a slow client."""
        if self._httpd is None:
            return
        self.closing = True
        self.ready = False
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "HTTPServiceBase":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


#: served endpoint paths (the 404 payload lists them); the observatory
#: endpoints (``/ui``, ``/v1/...``) are shared with the scheduling
#: service via :func:`repro.obs.observatory.dispatch_observatory`.
ENDPOINTS = (
    "/metrics", "/stats", "/healthz", "/readyz", "/traces",
    "/ui", "/v1/frames", "/v1/dags/{fingerprint}/frame",
    "/v1/dags/{fingerprint}/frames", "/v1/dags/{fingerprint}/graph",
    "/v1/events", "/v1/slo", "/v1/debug/dumps",
    "/v1/debug/dumps/{id}",
)


class ObsServer(HTTPServiceBase):
    """Thread-based HTTP exposition of a registry and tracer.

    Parameters
    ----------
    registry, tracer:
        Explicit instances to serve; default ``None`` resolves the
        process-wide globals *at request time* (so global swaps are
        picked up immediately).
    host, port, request_timeout:
        See :class:`HTTPServiceBase`.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        access_log: bool = False,
    ) -> None:
        super().__init__(host, port, request_timeout,
                         access_log=access_log)
        self._registry = registry
        self._tracer = tracer

    # -- resolution ----------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None \
            else global_registry()

    @property
    def metrics_registry(self) -> MetricsRegistry:
        return self.registry

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None \
            else global_tracer()

    def stats(self) -> dict:
        """The ``/stats`` payload: registry snapshot + process meta."""
        return stats_payload(
            self.registry,
            self.tracer,
            ready=self.ready,
            uptime_seconds=self.uptime_seconds,
        )

    # -- routes --------------------------------------------------------
    def dispatch(self, handler: HardenedHandler, method: str,
                 path: str, query: dict) -> None:
        from .flightrecorder import dispatch_debug
        from .observatory import dispatch_observatory
        from .slo import dispatch_slo

        # shared routes first: they contain slashes, which the
        # attribute-based routing below cannot express
        if dispatch_observatory(self, handler, method, path, query):
            return
        if dispatch_slo(self, handler, method, path):
            return
        if dispatch_debug(self, handler, method, path, query):
            return
        if method != "GET":
            handler.respond_json(
                405, {"error": f"method {method} not allowed"}
            )
            return
        route = getattr(self, f"_route_{path.strip('/')}", None)
        if route is None or "/" in path.strip("/"):
            handler.respond_json(
                404, {"error": f"no such endpoint {path!r}",
                      "endpoints": sorted(ENDPOINTS)})
            return
        route(handler, query)

    def _route_metrics(self, handler, _query) -> None:
        handler.respond(200, prometheus_body(self.registry),
                        PROM_CONTENT_TYPE)

    def _route_stats(self, handler, _query) -> None:
        handler.respond_json(200, self.stats())

    def _route_healthz(self, handler, _query) -> None:
        handler.respond(200, "ok\n", TEXT_CONTENT_TYPE)

    def _route_readyz(self, handler, _query) -> None:
        if self.ready:
            handler.respond(200, "ready\n", TEXT_CONTENT_TYPE)
        else:
            handler.respond(503, "not ready\n", TEXT_CONTENT_TYPE)

    def _route_traces(self, handler, query) -> None:
        tracer = self.tracer
        if "since" in query:
            # incremental scrape: only records appended after the
            # cursor; the response carries the cursor to resume from
            try:
                since = int(query["since"][0])
                if since < 0:
                    raise ValueError
            except ValueError:
                raise RequestError(
                    400, "since must be a non-negative integer"
                ) from None
            records, latest = tracer.records_since(since)
        else:
            records, latest = tracer.records(), tracer.seq
        if "request_id" in query:
            # correlation view: only the records stamped with this
            # request (spans/events it causally touched)
            wanted = query["request_id"][0]
            records = [r for r in records
                       if r.attrs.get("request") == wanted]
        if "limit" in query:
            try:
                limit = int(query["limit"][0])
                if limit < 0:
                    raise ValueError
            except ValueError:
                raise RequestError(
                    400, "limit must be a non-negative integer"
                ) from None
            records = records[len(records) - limit:] if limit else []
        body = "".join(rec.to_json() + "\n" for rec in records)
        handler.respond(200, body, NDJSON_CONTENT_TYPE,
                        headers={"X-Repro-Trace-Seq": str(latest)})
