"""Tests for request-scoped observability: the propagated request ID
(contextvar + ``X-Repro-Request-Id`` round-trip), per-phase latency
attribution, the declarative SLO engine (``/v1/slo``), and the
degradation flight recorder (``/v1/debug/dumps``).

The acceptance properties pinned here:

* one request entering the HTTP layer gets exactly one ID, echoed on
  the response and stamped onto every span, frame, and exemplar it
  causally touches;
* the per-phase histograms reconcile with the end-to-end request
  histogram (phases are measured *inside* the request and never
  overlap, so their sum cannot exceed the request total);
* a seeded certification fault produces exactly one HTTP-retrievable
  flight-recorder bundle carrying the triggering request ID.
"""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.api import dag_to_dict
from repro.families.mesh import out_mesh_dag
from repro.obs import (
    REQUEST_ID_HEADER,
    MetricsRegistry,
    Tracer,
    accept_request_id,
    current_request_id,
    new_request_id,
    request_scope,
    set_global_registry,
    set_global_tracer,
    span,
)
from repro.obs.flightrecorder import (
    FlightRecorder,
    set_global_flight_recorder,
)
from repro.obs.server import ObsServer, route_template
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLObjective,
    evaluate,
    slo_payload,
)
from repro.service import SchedulingService


@pytest.fixture
def registry():
    """A fresh process-wide metrics registry, restored afterwards."""
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def tracer():
    """A fresh enabled process-wide tracer, restored afterwards."""
    fresh = Tracer(enabled=True)
    old = set_global_tracer(fresh)
    yield fresh
    set_global_tracer(old)


@pytest.fixture
def recorder(tmp_path):
    """A fresh process-wide flight recorder writing under tmp_path."""
    fresh = FlightRecorder(str(tmp_path / "dumps"),
                           min_interval_seconds=0.0)
    old = set_global_flight_recorder(fresh)
    yield fresh
    set_global_flight_recorder(old)


@pytest.fixture
def service(registry, recorder):
    with SchedulingService() as svc:
        yield svc


def _request(url, payload=None, headers=None):
    """One HTTP exchange; returns ``(status, body, response_headers)``
    without discarding the headers (the round-trip tests need them)."""
    data = json.dumps(payload).encode() if payload is not None else None
    hdrs = {"Content-Type": "application/json"} if data else {}
    hdrs.update(headers or {})
    req = urllib.request.Request(url, data=data, headers=hdrs)

    def decode(raw):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw.decode()

    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, decode(r.read()), dict(r.headers)
    except urllib.error.HTTPError as e:
        return e.code, decode(e.read() or b"{}"), dict(e.headers)


def _wait_for(predicate, timeout=5.0):
    """Poll until ``predicate()`` is truthy and return it.  The
    request/phase histograms are observed in the handler's ``finally``
    *after* the response is sent, so a client that just got its bytes
    can race the observation by a scheduler tick."""
    deadline = time.monotonic() + timeout
    while True:
        got = predicate()
        if got or time.monotonic() >= deadline:
            return got
        time.sleep(0.01)


# ----------------------------------------------------------------------
# the request-ID contextvar
# ----------------------------------------------------------------------


class TestRequestContext:
    def test_new_ids_are_distinct_hex(self):
        a, b = new_request_id(), new_request_id()
        assert a != b
        assert len(a) == 16
        int(a, 16)  # hex

    def test_accept_keeps_well_formed_client_ids(self):
        assert accept_request_id("my-trace.01_X") == "my-trace.01_X"

    @pytest.mark.parametrize("bad", [
        None, "", "has space", "x" * 65, "наид", "semi;colon",
    ])
    def test_accept_replaces_malformed_ids(self, bad):
        got = accept_request_id(bad)
        assert got != bad
        assert len(got) == 16

    def test_request_scope_binds_and_restores(self):
        assert current_request_id() is None
        with request_scope("outer-1") as rid:
            assert rid == "outer-1"
            assert current_request_id() == "outer-1"
            with request_scope() as inner:
                assert current_request_id() == inner != "outer-1"
            assert current_request_id() == "outer-1"
        assert current_request_id() is None

    def test_spans_and_events_stamped(self, registry, tracer):
        with request_scope("rid-span"):
            with span("op", kind="test"):
                pass
            tracer.event("note")
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["op"].attrs["request"] == "rid-span"
        assert by_name["note"].attrs["request"] == "rid-span"
        # explicit attrs win over the ambient stamp
        with request_scope("rid-other"):
            tracer.event("pinned", request="explicit")
        assert tracer.records()[-1].attrs["request"] == "explicit"


class TestRouteTemplate:
    def test_literals_and_templates(self):
        assert route_template("/v1/dags") == "/v1/dags"
        assert route_template("/healthz") == "/healthz"
        assert (route_template("/v1/schedules/abc123")
                == "/v1/schedules/{fingerprint}")
        assert (route_template("/v1/dags/abc/frame")
                == "/v1/dags/{fingerprint}/*")
        assert (route_template("/v1/debug/dumps/0001-x")
                == "/v1/debug/dumps/{id}")
        # unknown paths collapse to one label (bounded cardinality)
        assert route_template("/totally/unknown") == "other"


# ----------------------------------------------------------------------
# HTTP round-trip + correlation
# ----------------------------------------------------------------------


class TestRequestIdHTTP:
    def test_client_id_echoed(self, service):
        st, _, hdrs = _request(
            service.url + "/v1/dags", dag_to_dict(out_mesh_dag(3)),
            headers={REQUEST_ID_HEADER: "client-rid-1"})
        assert st == 200
        assert hdrs[REQUEST_ID_HEADER] == "client-rid-1"

    def test_server_mints_when_absent(self, service):
        _, _, h1 = _request(service.url + "/stats")
        _, _, h2 = _request(service.url + "/stats")
        assert len(h1[REQUEST_ID_HEADER]) == 16
        assert h1[REQUEST_ID_HEADER] != h2[REQUEST_ID_HEADER]

    def test_malformed_client_id_replaced(self, service):
        st, _, hdrs = _request(
            service.url + "/stats",
            headers={REQUEST_ID_HEADER: "bad id !!"})
        assert st == 200
        assert hdrs[REQUEST_ID_HEADER] != "bad id !!"
        assert len(hdrs[REQUEST_ID_HEADER]) == 16

    def test_error_responses_carry_the_id_too(self, service):
        st, _, hdrs = _request(
            service.url + "/nope",
            headers={REQUEST_ID_HEADER: "err-rid"})
        assert st == 404
        assert hdrs[REQUEST_ID_HEADER] == "err-rid"

    def test_request_metric_carries_exemplar(self, service, registry):
        _request(service.url + "/v1/dags", dag_to_dict(out_mesh_dag(3)),
                 headers={REQUEST_ID_HEADER: "exemplar-rid"})

        def submitted():
            snap = registry.snapshot().get(
                "service_request_seconds", {})
            return [e for e in snap.get("series", [])
                    if e["labels"]["route"] == "/v1/dags"]

        entries = _wait_for(submitted)
        assert entries
        assert entries[0]["exemplar"]["id"] == "exemplar-rid"

    def test_frames_stamped_with_request(self, service):
        wire = dag_to_dict(out_mesh_dag(3))
        st, sub, _ = _request(service.url + "/v1/dags", wire)
        assert st == 200
        _request(service.url + "/v1/simulate",
                 {"fingerprint": sub["fingerprint"], "clients": 2},
                 headers={REQUEST_ID_HEADER: "sim-rid-7"})
        st, doc, _ = _request(
            service.url + f"/v1/dags/{sub['fingerprint']}/frame")
        assert st == 200
        # the simulation ran on the thread that bound the request's
        # ID, so the captured frames carry it
        assert doc["frame"]["request"] == "sim-rid-7"

    def test_traces_filtered_by_request_id(self, registry, tracer):
        with ObsServer(registry=registry, tracer=tracer) as srv:
            with request_scope("want-this"):
                with span("alpha"):
                    pass
            with request_scope("not-this"):
                with span("beta"):
                    pass
            with urllib.request.urlopen(
                    srv.url + "/traces?request_id=want-this",
                    timeout=30) as r:
                records = [json.loads(ln) for ln
                           in r.read().decode().splitlines() if ln]
        assert [r["name"] for r in records] == ["alpha"]
        assert all(r["attrs"]["request"] == "want-this"
                   for r in records)


class TestPhaseAttribution:
    def _sums(self, registry, metric, route):
        data = registry.snapshot().get(metric, {})
        return {
            tuple(sorted(e["labels"].items())): e["value"]["sum"]
            for e in data.get("series", [])
            if e["labels"].get("route") == route
        }

    def test_phase_sums_reconcile_with_request_total(
            self, service, registry):
        wire = dag_to_dict(out_mesh_dag(4))
        st, sub, _ = _request(service.url + "/v1/dags", wire)
        assert st == 200 and sub["how"] == "search"
        requests = _wait_for(lambda: self._sums(
            registry, "service_request_seconds", "/v1/dags"))
        phases = self._sums(registry, "service_phase_seconds",
                            "/v1/dags")
        names = {dict(k)["phase"] for k in phases}
        assert {"admission", "registry", "certify",
                "serialize"} <= names
        phase_total = sum(phases.values())
        request_total = sum(requests.values())
        # phases are timed inside the request window: their sum can
        # never meaningfully exceed the end-to-end total
        assert 0 < phase_total <= request_total + 0.05

    def test_simulate_queue_and_run_phases(self, service, registry):
        wire = dag_to_dict(out_mesh_dag(3))
        st, _, _ = _request(service.url + "/v1/simulate",
                            {"dag": wire, "clients": 2})
        assert st == 200

        def names():
            phases = self._sums(registry, "service_phase_seconds",
                                "/v1/simulate")
            return {dict(k)["phase"] for k in phases}

        _wait_for(lambda: "serialize" in names())
        assert {"admission", "simulate", "serialize"} <= names()
        # simulations run on the request's own thread: no queue phase
        assert "queue" not in names()

    def test_certify_and_journal_phases_disjoint(
            self, registry, recorder, tmp_path, monkeypatch):
        # every journal append takes 50 ms: a certify phase that
        # also timed the journaled attach would read >= 50 ms
        from repro.service.durability import DurabilityManager

        real_append = DurabilityManager._append

        def slow_append(self, record):
            time.sleep(0.05)
            return real_append(self, record)

        monkeypatch.setattr(DurabilityManager, "_append", slow_append)
        with SchedulingService(data_dir=str(tmp_path / "data")) as svc:
            st, sub, _ = _request(svc.url + "/v1/dags",
                                  dag_to_dict(out_mesh_dag(4)))
            assert st == 200 and sub["how"] == "search"
            requests = _wait_for(lambda: self._sums(
                registry, "service_request_seconds", "/v1/dags"))
        phases = {
            dict(k)["phase"]: v for k, v in self._sums(
                registry, "service_phase_seconds", "/v1/dags").items()
        }
        assert phases["certify"] < 0.05
        assert phases["journal"] >= 0.05
        assert sum(phases.values()) <= sum(requests.values())


# ----------------------------------------------------------------------
# the SLO engine
# ----------------------------------------------------------------------


class TestSLOEngine:
    def _snapshot_with_requests(self, observations):
        reg = MetricsRegistry()
        h = reg.histogram("service_request_seconds", "latency",
                          ("route", "status"))
        for route, status, value in observations:
            h.labels(route, status).observe(value)
        return reg.snapshot()

    def test_latency_objective_violated(self):
        obj = SLObjective(
            name="fast", kind="latency", description="p99",
            metric="service_request_seconds",
            labels=(("route", "/v1/dags"),), threshold=0.1)
        snap = self._snapshot_with_requests(
            [("/v1/dags", "200", 5.0)] * 10)
        (res,) = evaluate(snap, [obj])
        assert res["ok"] is False
        assert res["value"] > 0.1
        # the other route does not count against this objective
        snap = self._snapshot_with_requests(
            [("/v1/simulate", "200", 5.0)] * 10)
        (res,) = evaluate(snap, [obj])
        assert res["ok"] is True and res["detail"] == "no observations"

    def test_error_rate_objective(self):
        obj = SLObjective(
            name="errors", kind="error_rate", description="5xx",
            metric="service_request_seconds", threshold=0.05)
        snap = self._snapshot_with_requests(
            [("/v1/dags", "200", 0.01)] * 9
            + [("/v1/dags", "500", 0.01)])
        (res,) = evaluate(snap, [obj])
        assert res["ok"] is False
        assert res["value"] == pytest.approx(0.1)

    def test_ratio_objective_and_vacuous_denominator(self):
        obj = SLObjective(
            name="degraded", kind="ratio", description="share",
            metric="service_degraded_total",
            denominator="service_searches_total", threshold=0.5)
        reg = MetricsRegistry()
        (res,) = evaluate(reg.snapshot(), [obj])
        assert res["ok"] is True  # zero denominator: vacuously met
        reg.counter("service_searches_total", "s").inc(4)
        reg.counter("service_degraded_total", "d").inc(3)
        (res,) = evaluate(reg.snapshot(), [obj])
        assert res["ok"] is False
        assert res["value"] == pytest.approx(0.75)

    def test_invalid_objectives_rejected(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="nope", description="",
                        metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="ratio", description="",
                        metric="m", threshold=1.0)  # no denominator

    def test_payload_shape_and_endpoint(self, service):
        payload = slo_payload(MetricsRegistry().snapshot())
        assert payload["ok"] is True
        assert len(payload["objectives"]) == len(DEFAULT_OBJECTIVES)
        st, body, _ = _request(service.url + "/v1/slo")
        assert st == 200
        assert body["ok"] is True
        assert [o["name"] for o in body["objectives"]] == [
            o.name for o in DEFAULT_OBJECTIVES]


# ----------------------------------------------------------------------
# the flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_exactly_one_dump_per_request(self, registry, tmp_path):
        rec = FlightRecorder(str(tmp_path))
        first = rec.trigger("degradation", request_id="r1")
        assert first is not None
        assert rec.trigger("degradation", request_id="r1") is None
        assert rec.trigger("http-5xx", request_id="r1") is None
        assert len(rec.list()) == 1

    def test_uncorrelated_triggers_rate_limited(self, registry,
                                                tmp_path):
        rec = FlightRecorder(str(tmp_path), min_interval_seconds=3600)
        assert rec.trigger("quarantine") is not None
        assert rec.trigger("quarantine") is None  # inside the floor

    def test_retention_prunes_oldest(self, registry, tmp_path):
        rec = FlightRecorder(str(tmp_path), max_dumps=2,
                             min_interval_seconds=0.0)
        ids = [rec.trigger("x", request_id=f"r{i}") for i in range(3)]
        kept = [m["id"] for m in rec.list()]
        assert kept == ids[1:]
        assert rec.get(ids[0]) is None
        assert rec.get(ids[2])["request_id"] == "r2"

    def test_dump_counter_incremented(self, registry, tmp_path):
        rec = FlightRecorder(str(tmp_path))
        rec.trigger("degradation", request_id="r1")
        assert registry.value("obs_flight_dumps_total",
                              reason="degradation") == 1

    def test_seeded_fault_yields_one_correlated_dump(
            self, service, recorder, monkeypatch):
        real_schedule = api.schedule

        def failing(target, strategy="auto", **kw):
            if strategy not in ("heuristic", "anytime"):
                raise RuntimeError("seeded certification fault")
            return real_schedule(target, strategy=strategy, **kw)

        monkeypatch.setattr(api, "schedule", failing)
        st, body, _ = _request(
            service.url + "/v1/dags", dag_to_dict(out_mesh_dag(4)),
            headers={REQUEST_ID_HEADER: "fault-rid-1"})
        assert st == 200
        assert body["how"] == "degraded"

        st, index, _ = _request(service.url + "/v1/debug/dumps")
        assert st == 200
        hits = [d for d in index["dumps"]
                if d["request_id"] == "fault-rid-1"]
        assert len(hits) == 1
        assert hits[0]["reason"] == "degradation"

        st, bundle, _ = _request(
            service.url + "/v1/debug/dumps/" + hits[0]["id"])
        assert st == 200
        assert bundle["schema"] == 1
        assert bundle["request_id"] == "fault-rid-1"
        assert "seeded certification fault" in bundle["detail"]
        assert "metrics" in bundle and "counters_delta" in bundle

    def test_unknown_dump_404(self, service):
        st, body, _ = _request(
            service.url + "/v1/debug/dumps/0099-nope")
        assert st == 404
        assert "error" in body


# ----------------------------------------------------------------------
# the access log
# ----------------------------------------------------------------------


class TestAccessLog:
    def test_off_by_default(self, registry, recorder):
        svc = SchedulingService()
        svc.access_log_stream = io.StringIO()
        with svc:
            _request(svc.url + "/healthz")
        assert svc.access_log_stream.getvalue() == ""

    def test_structured_lines_when_enabled(self, registry, recorder):
        svc = SchedulingService(access_log=True)
        svc.access_log_stream = io.StringIO()
        with svc:
            _request(svc.url + "/v1/dags", dag_to_dict(out_mesh_dag(3)),
                     headers={REQUEST_ID_HEADER: "log-rid"})
        lines = [json.loads(ln) for ln
                 in svc.access_log_stream.getvalue().splitlines()]
        entry = next(ln for ln in lines
                     if ln["request_id"] == "log-rid")
        assert entry["method"] == "POST"
        assert entry["route"] == "/v1/dags"
        assert entry["status"] == 200
        assert entry["duration_ms"] >= 0
        assert "ts" in entry


# ----------------------------------------------------------------------
# exemplars on histograms
# ----------------------------------------------------------------------


class TestExemplars:
    def test_snapshot_carries_last_exemplar(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency")
        h.observe(0.5)  # no exemplar: nothing recorded
        assert "exemplar" not in reg.snapshot()["lat"]
        h.observe(0.7, exemplar="rid-a")
        ex = reg.snapshot()["lat"]["exemplar"]
        assert ex["id"] == "rid-a" and ex["value"] == 0.7
