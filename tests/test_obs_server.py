"""The HTTP exposition service (`repro.obs.server`) and the live
dashboard (`repro.obs.dashboard`, `repro watch`): endpoint responses
and content types, Prometheus text-format conformance under hostile
label values, readiness toggling, trace export limits, and the
dashboard's render/poll loop.
"""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    ObsServer,
    Tracer,
    fetch_stats,
    render_dashboard,
    set_global_registry,
    set_global_tracer,
    watch,
)
from repro.obs.server import PROM_CONTENT_TYPE
from repro.service import SchedulingService


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def tracer():
    fresh = Tracer(enabled=True)
    old = set_global_tracer(fresh)
    yield fresh
    set_global_tracer(old)


@pytest.fixture
def server(registry, tracer):
    """An ObsServer on an ephemeral port, bound to the fixtures'
    registry/tracer via the globals it resolves at request time."""
    with ObsServer() as srv:
        yield srv


def _get(url):
    try:
        resp = urllib.request.urlopen(url, timeout=5)
        return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read().decode()


class TestEndpoints:
    def test_metrics_prometheus(self, server, registry):
        registry.counter("hits_total", "hits").inc(3)
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        assert "# TYPE hits_total counter" in body
        assert "hits_total 3" in body

    def test_stats_json(self, server, registry, tracer):
        registry.gauge("depth", "d").set(4)
        with tracer.span("x"):
            pass
        status, headers, body = _get(server.url + "/stats")
        assert status == 200
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert headers["Cache-Control"] == "no-store"
        payload = json.loads(body)
        assert payload["metrics"]["depth"]["value"] == 4
        assert payload["tracer"]["enabled"] is True
        assert payload["tracer"]["retained"] == 1
        assert payload["ready"] is True
        assert payload["uptime_seconds"] >= 0

    def test_healthz(self, server):
        status, _headers, body = _get(server.url + "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_readyz_toggles(self, server):
        status, _h, body = _get(server.url + "/readyz")
        assert (status, body) == (200, "ready\n")
        server.ready = False
        status, _h, body = _get(server.url + "/readyz")
        assert (status, body) == (503, "not ready\n")

    def test_traces_jsonl(self, server, tracer):
        with tracer.span("a"):
            tracer.event("b")
        status, headers, body = _get(server.url + "/traces")
        assert status == 200
        assert headers["Content-Type"] == (
            "application/x-ndjson; charset=utf-8")
        lines = [json.loads(ln) for ln in body.splitlines()]
        assert [r["name"] for r in lines] == ["b", "a"]

    def test_traces_since_cursor(self, server, tracer):
        tracer.event("first")
        _s, headers, body = _get(server.url + "/traces")
        seq = int(headers["X-Repro-Trace-Seq"])
        assert seq == 1
        assert len(body.splitlines()) == 1
        # nothing new past the cursor
        _s, headers, body = _get(server.url + f"/traces?since={seq}")
        assert body == ""
        assert int(headers["X-Repro-Trace-Seq"]) == seq
        # only the delta after more activity
        tracer.event("second")
        tracer.event("third")
        _s, headers, body = _get(server.url + f"/traces?since={seq}")
        names = [json.loads(ln)["name"] for ln in body.splitlines()]
        assert names == ["second", "third"]
        assert int(headers["X-Repro-Trace-Seq"]) == 3

    def test_traces_since_survives_wraparound(self, registry):
        from repro.obs import set_global_tracer

        small = Tracer(capacity=3, enabled=True)
        old = set_global_tracer(small)
        try:
            with ObsServer() as srv:
                for i in range(8):
                    small.event(f"e{i}")
                # cursor far behind the buffer: returns what is retained
                _s, headers, body = _get(srv.url + "/traces?since=2")
                names = [json.loads(ln)["name"]
                         for ln in body.splitlines()]
                assert names == ["e5", "e6", "e7"]
                assert int(headers["X-Repro-Trace-Seq"]) == 8
        finally:
            set_global_tracer(old)

    def test_traces_limit(self, server, tracer):
        for i in range(5):
            tracer.event(f"e{i}")
        _s, _h, body = _get(server.url + "/traces?limit=2")
        names = [json.loads(ln)["name"] for ln in body.splitlines()]
        assert names == ["e3", "e4"]  # the newest two
        _s, _h, body = _get(server.url + "/traces?limit=0")
        assert body == ""

    def test_traces_bad_limit_is_400(self, server):
        status, _h, body = _get(server.url + "/traces?limit=potato")
        assert status == 400
        assert "limit" in json.loads(body)["error"]
        status, _h, _b = _get(server.url + "/traces?limit=-1")
        assert status == 400

    def test_unknown_path_is_404_listing_endpoints(self, server):
        status, _h, body = _get(server.url + "/nope")
        assert status == 404
        payload = json.loads(body)
        assert "/metrics" in payload["endpoints"]
        assert "/stats" in payload["endpoints"]


class TestPrometheusConformance:
    """Text-format 0.0.4 conformance through a real scrape."""

    def test_hostile_label_values_escaped(self, server, registry):
        hostile = 'a\\b"c\nd'
        registry.counter("evil_total", "evil", ("k",)).labels(
            hostile
        ).inc()
        _s, _h, body = _get(server.url + "/metrics")
        assert 'evil_total{k="a\\\\b\\"c\\nd"} 1' in body
        # the raw newline must never reach the wire inside a sample
        for line in body.splitlines():
            if line.startswith("evil_total"):
                assert "\n" not in line

    def test_hostile_help_escaped(self, server, registry):
        registry.counter("h_total", "line1\nline2 \\ slash").inc()
        _s, _h, body = _get(server.url + "/metrics")
        assert "# HELP h_total line1\\nline2 \\\\ slash" in body

    def test_type_and_help_once_per_family(self, server, registry):
        m = registry.counter("multi_total", "m", ("k",))
        for v in ("a", "b", "c"):
            m.labels(v).inc()
        registry.histogram("lat_seconds", "lat", buckets=(1.0,)).observe(0.5)
        _s, _h, body = _get(server.url + "/metrics")
        assert body.count("# TYPE multi_total ") == 1
        assert body.count("# HELP multi_total ") == 1
        # histograms expose 3 sample families but one TYPE/HELP pair
        assert body.count("# TYPE lat_seconds ") == 1
        assert body.count("# HELP lat_seconds ") == 1


class TestServerLifecycle:
    def test_ephemeral_port_resolves(self, server):
        assert server.port > 0
        assert str(server.port) in server.url

    def test_double_start_raises(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_stop_is_idempotent(self, registry, tracer):
        srv = ObsServer().start()
        srv.stop()
        srv.stop()

    def test_explicit_instances_beat_globals(self, registry, tracer):
        private = MetricsRegistry()
        private.counter("mine_total", "m").inc(7)
        with ObsServer(registry=private) as srv:
            _s, _h, body = _get(srv.url + "/metrics")
        assert "mine_total 7" in body
        assert "mine_total" not in registry.snapshot()


class TestHardening:
    """Hostile-client resilience: slow-loris sockets, oversized
    request lines, and the shutdown drain path."""

    def test_slow_loris_does_not_block_other_scrapes(self, registry,
                                                     tracer):
        import socket
        import threading

        registry.counter("alive_total", "a").inc()
        with ObsServer(request_timeout=0.5) as srv:
            # open a connection and send only a partial request line,
            # then hold it — a classic slow-loris.
            loris = socket.create_connection(("127.0.0.1", srv.port),
                                             timeout=5)
            try:
                loris.sendall(b"GET /metr")
                # a well-behaved client must still get served while
                # the loris holds its socket open.
                results = []

                def scrape():
                    results.append(_get(srv.url + "/metrics"))

                t = threading.Thread(target=scrape)
                t.start()
                t.join(timeout=3)
                assert not t.is_alive(), "scrape blocked by slow-loris"
                status, _h, body = results[0]
                assert status == 200
                assert "alive_total 1" in body
                # the per-request timeout reaps the loris socket: the
                # server closes it instead of waiting forever.
                loris.settimeout(3)
                assert loris.recv(1024) == b""
            finally:
                loris.close()

    @pytest.mark.parametrize("make", [
        ObsServer, lambda: SchedulingService(frames=False),
    ], ids=["obs", "service"])
    def test_listen_backlog_holds_a_connect_burst(self, registry,
                                                  tracer, make):
        import socket

        # with the accept loop stopped, every connect must complete in
        # the kernel's accept queue; a SYN that overflows the listen
        # backlog is dropped and resent only after 1 s
        srv = make().start()
        try:
            srv._httpd.shutdown()  # the socket keeps listening
            socks = []
            try:
                for _ in range(16):
                    socks.append(socket.create_connection(
                        ("127.0.0.1", srv.port), timeout=0.5))
            finally:
                for sock in socks:
                    sock.close()
        finally:
            srv.stop()

    def test_oversized_request_path_is_414(self, server):
        status, _h, body = _get(server.url + "/" + "x" * 4000)
        assert status == 414
        assert "too long" in body

    def test_closing_server_returns_503(self, server):
        server.closing = True
        for path in ("/metrics", "/healthz", "/stats"):
            status, headers, body = _get(server.url + path)
            assert status == 503, path
            assert body == "shutting down\n"
            assert headers.get("Connection") == "close"

    def test_stop_enters_drain_mode(self, registry, tracer):
        srv = ObsServer().start()
        assert srv.closing is False
        srv.stop()
        assert srv.closing is True
        # restart resets the drain flag
        srv2 = ObsServer().start()
        try:
            assert srv2.closing is False
        finally:
            srv2.stop()


class TestDashboard:
    def _populate(self, registry):
        registry.gauge("sim_allocatable", "a").set(2)
        registry.gauge("sim_eligible", "e").set(3)
        registry.gauge("sim_completed", "c").set(5)
        registry.counter("sim_steps_total", "s").inc(9)
        runs = registry.counter("sim_runs_total", "r", ("policy",))
        runs.labels("FIFO").inc()
        registry.gauge(
            "sim_quality_makespan", "m", ("policy",)
        ).labels("FIFO").set(4.5)

    def test_fetch_stats(self, server, registry):
        self._populate(registry)
        for url in (server.url, server.url + "/", server.url + "/stats"):
            stats = fetch_stats(url)
            assert stats["metrics"]["sim_eligible"]["value"] == 3

    def test_render_dashboard_tables(self, server, registry):
        self._populate(registry)
        frame = render_dashboard(fetch_stats(server.url))
        assert "eligible now" in frame and "3" in frame
        assert "FIFO" in frame and "4.5" in frame
        assert "scheduler requests" in frame

    def test_render_without_policy_series(self):
        frame = render_dashboard({"metrics": {}, "tracer": {}})
        assert "simulation" in frame
        assert "per-policy" not in frame  # table omitted when empty

    def test_render_empty_registry_snapshot(self):
        # a freshly started server with no instrumented work yet
        frame = render_dashboard({})
        assert "repro observability" in frame
        assert "eligible now" in frame  # zeros render, nothing raises

    def test_render_missing_service_section(self, server, registry):
        # ObsServer /stats has no "service" block — table omitted
        frame = render_dashboard(fetch_stats(server.url))
        assert "api version" not in frame

    def test_render_service_section(self):
        frame = render_dashboard({
            "metrics": {},
            "tracer": {},
            "service": {
                "api_version": "v1",
                "registry": {"entries": 7, "shards": 4,
                             "certified": 6, "largest_shard": 3},
                "pipeline": {"max_inflight": 16, "strategy": "auto"},
            },
        })
        assert "api version" in frame and "v1" in frame
        assert "registry entries" in frame and "7" in frame

    def test_render_histogram_zero_observations(self, registry):
        # a histogram family that exists but has never observed —
        # the mean must not divide by zero
        registry.histogram("idle_seconds", "never observed")
        frame = render_dashboard({
            "metrics": registry.snapshot(), "tracer": {}
        })
        assert "idle_seconds" in frame
        row = next(ln for ln in frame.splitlines()
                   if "idle_seconds" in ln)
        assert "-" in row  # mean placeholder, not a ZeroDivisionError

    def test_fetch_stats_retries_after_reset(self, monkeypatch):
        import urllib.request

        from repro.obs.dashboard import fetch_stats as fetch

        calls = []

        class _Resp:
            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

            def read(self):
                return b'{"metrics": {}}'

        def fake_urlopen(url, timeout=None):
            calls.append(url)
            if len(calls) == 1:
                raise ConnectionResetError("peer reset")
            return _Resp()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert fetch("http://x") == {"metrics": {}}
        assert len(calls) == 2  # one retry, then success

    def test_fetch_traces_cursor(self, server, tracer):
        from repro.obs import fetch_traces

        tracer.event("one")
        records, seq = fetch_traces(server.url)
        assert [r["name"] for r in records] == ["one"]
        assert seq == 1
        records, seq2 = fetch_traces(server.url, since=seq)
        assert records == [] and seq2 == seq
        tracer.event("two")
        records, seq3 = fetch_traces(server.url, since=seq)
        assert [r["name"] for r in records] == ["two"]
        assert seq3 == 2

    def test_watch_renders_n_frames(self, server, registry):
        self._populate(registry)
        out = io.StringIO()
        rc = watch(server.url, interval=0.01, count=2, clear=False,
                   out=out)
        assert rc == 0
        assert out.getvalue().count("repro observability") == 2

    def test_watch_survives_dead_server(self):
        out = io.StringIO()
        rc = watch("http://127.0.0.1:9", interval=0.01, count=1,
                   clear=False, out=out)
        assert rc == 0
        assert "waiting for" in out.getvalue()


class TestCliSurface:
    def test_serve_metrics_duration(self, registry, tracer, capsys):
        from repro.cli import main

        assert main(["serve-metrics", "--port", "0",
                     "--duration", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "serving observability endpoints on http://" in err

    def test_watch_count(self, server, registry, capsys):
        from repro.cli import main

        assert main(["watch", "--url", server.url, "--count", "1",
                     "--interval", "0.01", "--no-clear"]) == 0
        assert "repro observability" in capsys.readouterr().out

    def test_serve_metrics_flag_during_command(self, registry, tracer,
                                               capsys):
        from repro.cli import main

        assert main(["schedule", "mesh", "3",
                     "--serve-metrics", "0"]) == 0
        captured = capsys.readouterr()
        assert "metrics: serving on http://" in captured.err
        assert "certificate:" in captured.out
