"""Tests for ``repro.service``: the sharded dag registry, the
admission/coalescing request pipeline, and the HTTP JSON service.

The coalescing acceptance test pins the tentpole property with
metrics: 8 concurrent HTTP submissions of one fingerprint perform
exactly one certification search (``service_searches_total``), with
the 7 duplicates counted in ``service_coalesced_total``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.api import dag_to_dict
from repro.families.mesh import out_mesh_chain, out_mesh_dag
from repro.obs import MetricsRegistry, set_global_registry
from repro.service import (
    DagRegistry,
    PipelineConfig,
    RejectedError,
    RequestPipeline,
    SchedulingService,
)


@pytest.fixture
def registry():
    """A fresh process-wide metrics registry, restored afterwards."""
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


def _post(url, payload, timeout=30):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        body = e.read()
        try:
            return e.code, json.loads(body)
        except json.JSONDecodeError:
            return e.code, body.decode()


def _get(url, timeout=30):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as r:
            body = r.read().decode()
            try:
                return r.status, json.loads(body)
            except json.JSONDecodeError:
                return r.status, body
    except urllib.error.HTTPError as e:
        body = e.read().decode()
        try:
            return e.code, json.loads(body)
        except json.JSONDecodeError:
            return e.code, body


# ----------------------------------------------------------------------
# DagRegistry
# ----------------------------------------------------------------------


class TestDagRegistry:
    def test_content_addressed_put(self, registry):
        reg = DagRegistry()
        a = reg.put(out_mesh_dag(4))
        b = reg.put(out_mesh_dag(4))  # structurally identical
        assert a is b
        assert b.hits == 1
        assert len(reg) == 1
        assert registry.value("registry_stores_total") == 1
        assert registry.value("registry_lookups_total",
                              result="hit") == 1

    def test_get_miss_and_bad_fingerprint(self, registry):
        reg = DagRegistry()
        assert reg.get("deadbeef" * 8) is None
        assert reg.get("not-hex!") is None
        assert registry.value("registry_lookups_total",
                              result="miss") == 2

    def test_lru_spill_bounded(self, registry):
        reg = DagRegistry(shards=1, capacity_per_shard=2)
        entries = [reg.put(out_mesh_dag(d)) for d in (2, 3, 4)]
        assert len(reg) == 2
        assert entries[0].fingerprint not in reg  # oldest spilled
        assert entries[2].fingerprint in reg
        assert registry.value("registry_evictions_total") == 1
        assert registry.value("registry_entries") == 2

    def test_put_refreshes_lru_position(self, registry):
        reg = DagRegistry(shards=1, capacity_per_shard=2)
        first = reg.put(out_mesh_dag(2))
        reg.put(out_mesh_dag(3))
        reg.put(out_mesh_dag(2))   # refresh: now 3 is the LRU entry
        reg.put(out_mesh_dag(4))   # spills 3, not 2
        assert first.fingerprint in reg

    def test_stats_shape(self, registry):
        reg = DagRegistry(shards=4, capacity_per_shard=8)
        reg.put(out_mesh_dag(3))
        s = reg.stats()
        assert s["shards"] == 4
        assert s["entries"] == 1
        assert s["certified"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DagRegistry(shards=0)
        with pytest.raises(ValueError):
            DagRegistry(capacity_per_shard=0)


# ----------------------------------------------------------------------
# RequestPipeline
# ----------------------------------------------------------------------


class TestRequestPipeline:
    def test_submit_certifies_and_caches(self, registry):
        pipe = RequestPipeline()
        dag = out_mesh_dag(4)
        entry, how = pipe.submit_dag(dag)
        assert how == "search"
        assert entry.schedule is not None
        assert entry.schedule.certificate == "composition"
        assert entry.schedule.kind == "composed"
        _, again = pipe.submit_dag(out_mesh_dag(4))
        assert again == "cached"
        assert registry.value("service_searches_total") == 1
        assert registry.value("service_schedule_cached_total") == 1
        assert registry.value(
            "service_certificates_total", kind="composed") == 1

    def test_block_over_state_budget_answers_search(self, registry):
        # a block search past state_budget inside decomposition falls
        # down auto's ladder to a stamped certificate; the pipeline
        # never sees an error, so nothing degrades
        from repro.core import ProfileCache, set_global_profile_cache

        old_cache = set_global_profile_cache(ProfileCache())
        pipe = RequestPipeline(config=PipelineConfig(state_budget=20))
        try:
            entry, how = pipe.submit_dag(out_mesh_dag(6))
            assert how == "search"
            assert entry.schedule.certificate == "heuristic"
            assert registry.value("service_degraded_total") == 0
        finally:
            set_global_profile_cache(old_cache)

    def test_degrades_to_heuristic_on_search_failure(
            self, registry, monkeypatch):
        real_schedule = api.schedule

        def failing(target, **kw):
            # the degraded retry pins an explicit fallback strategy;
            # the primary certification call does not
            if kw.get("strategy", "auto") not in ("anytime", "heuristic"):
                raise RuntimeError("search machinery down")
            return real_schedule(target, **kw)

        monkeypatch.setattr(api, "schedule", failing)
        pipe = RequestPipeline()
        entry, how = pipe.submit_dag(out_mesh_dag(4))
        assert how == "degraded"
        assert entry.schedule.certificate == "heuristic"
        assert entry.schedule.kind == "heuristic"
        assert registry.value("service_degraded_total") == 1
        assert registry.value(
            "service_certificates_total", kind="heuristic") == 1

    def test_degrades_to_bounded_anytime_with_budget(
            self, registry, monkeypatch):
        real_schedule = api.schedule

        def failing(target, **kw):
            if kw.get("strategy", "auto") not in ("anytime", "heuristic"):
                raise RuntimeError("search machinery down")
            return real_schedule(target, **kw)

        monkeypatch.setattr(api, "schedule", failing)
        pipe = RequestPipeline(config=PipelineConfig(budget=50))
        entry, how = pipe.submit_dag(out_mesh_dag(4))
        assert how == "degraded"
        assert entry.schedule.certificate == "anytime"
        assert entry.schedule.kind == "anytime"
        assert entry.schedule.bounds is not None
        lo, hi = entry.schedule.bounds
        assert 0 <= lo <= hi

    def test_simulation_backpressure(self, registry, monkeypatch):
        # max_inflight=1 with one simulation held open: the slot is
        # taken, so every further simulation is rejected at once
        started, release = threading.Event(), threading.Event()
        real_simulate = api.simulate

        def held(dag, **kw):
            started.set()
            assert release.wait(30)
            return real_simulate(dag, **kw)

        monkeypatch.setattr(api, "simulate", held)
        pipe = RequestPipeline(config=PipelineConfig(max_inflight=1))
        results = []
        first = threading.Thread(target=lambda: results.append(
            pipe.simulate(out_mesh_dag(3), clients=2)))
        first.start()
        assert started.wait(30)
        try:
            for _ in range(7):
                with pytest.raises(RejectedError) as ei:
                    pipe.simulate(out_mesh_dag(3), clients=2)
                assert ei.value.reason == "simulation capacity exhausted"
        finally:
            release.set()
            first.join(timeout=30)
        assert not first.is_alive()
        assert results[0].completed == len(out_mesh_dag(3))
        assert registry.value(
            "service_rejected_total", reason="simulate_capacity") == 7
        # the slot is free again
        assert pipe.simulate(out_mesh_dag(3), clients=2).completed \
            == len(out_mesh_dag(3))


# ----------------------------------------------------------------------
# SchedulingService over HTTP
# ----------------------------------------------------------------------


class TestSchedulingServiceHTTP:
    @pytest.fixture
    def service(self, registry):
        with SchedulingService() as svc:
            yield svc

    def test_submit_and_fetch_schedule(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        st, body = _post(service.url + "/v1/dags", wire)
        assert st == 200
        assert body["how"] == "search"
        assert body["certificate"] == "composition"
        assert body["kind"] == "composed"
        assert body["strategy"] == "auto"
        assert body["bounds"] == [0, 0]
        assert body["provenance"]  # per-block certificate sources
        assert body["ic_optimal"] is True
        st, sched = _get(service.url + body["schedule_path"])
        assert st == 200
        assert sched["fingerprint"] == body["fingerprint"]
        assert sched["kind"] == "composed"
        assert sched["schedule"]["format"] == 1 or "dag" in sched["schedule"]

    def test_resubmit_is_cached(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        _post(service.url + "/v1/dags", wire)
        st, body = _post(service.url + "/v1/dags", {"dag": wire})
        assert st == 200
        assert body["how"] == "cached"

    def test_schedule_unknown_fingerprint_404(self, service):
        st, body = _get(service.url + "/v1/schedules/deadbeef")
        assert st == 404
        assert "error" in body

    def test_simulate_inline_and_by_fingerprint(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        st, body = _post(service.url + "/v1/simulate",
                         {"dag": wire, "clients": 3, "seed": 1})
        assert st == 200
        assert body["policy"] == "IC-OPT"
        assert body["completed"] == len(out_mesh_dag(4))
        st, sub = _post(service.url + "/v1/dags", wire)
        st, body = _post(service.url + "/v1/simulate",
                         {"fingerprint": sub["fingerprint"],
                          "policy": "FIFO"})
        assert st == 200
        assert body["policy"] == "FIFO"
        assert body["certificate"] is None

    def test_simulate_rejects_unknown_option(self, service):
        wire = dag_to_dict(out_mesh_dag(3))
        st, body = _post(service.url + "/v1/simulate",
                         {"dag": wire, "bogus": 1})
        assert st == 400
        assert "bogus" in body["error"]

    def test_bad_dag_400(self, service):
        st, body = _post(service.url + "/v1/dags",
                         {"format": 1, "n": 2, "arcs": [[0, 5]]})
        assert st == 400
        st, body = _post(service.url + "/v1/dags", {"dag": "nope"})
        assert st == 400

    def test_malformed_body_400(self, service):
        req = urllib.request.Request(
            service.url + "/v1/dags", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req, timeout=10)
        assert ei.value.code == 400

    def test_unknown_endpoint_404_lists_routes(self, service):
        st, body = _get(service.url + "/nope")
        assert st == 404
        assert "POST /v1/dags" in body["endpoints"]

    def test_method_mismatch_405(self, service):
        st, _ = _get(service.url + "/v1/dags")
        assert st == 405
        st, _ = _post(service.url + "/healthz", {})
        assert st == 405

    def test_health_ready_metrics_stats(self, service, registry):
        assert _get(service.url + "/healthz")[0] == 200
        assert _get(service.url + "/readyz")[0] == 200
        _post(service.url + "/v1/dags",
              dag_to_dict(out_mesh_dag(3)))
        st, prom = _get(service.url + "/metrics")
        assert st == 200
        assert "service_searches_total" in prom
        assert "registry_stores_total" in prom
        st, stats = _get(service.url + "/stats")
        assert st == 200
        svc_block = stats["service"]
        assert svc_block["registry"]["entries"] == 1
        assert svc_block["pipeline"] == {
            "max_inflight": 32, "exhaustive_limit": 24,
            "state_budget": 500_000, "strategy": "auto", "budget": None,
        }
        assert stats["metrics"]["service_searches_total"]["value"] == 1

    def test_submit_429_carries_retry_after(self, registry):
        # max_inflight=0: admission rejects every submission, so the
        # backpressure path is deterministic (no racing threads)
        svc = SchedulingService(
            pipeline_config=PipelineConfig(max_inflight=0))
        with svc:
            req = urllib.request.Request(
                svc.url + "/v1/dags",
                data=json.dumps(dag_to_dict(out_mesh_dag(3))).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(req, timeout=10)
            err = ei.value
            assert err.code == 429
            retry = err.headers.get("Retry-After")
            assert retry is not None and float(retry) > 0
            body = json.loads(err.read())
            assert "capacity" in body["error"]

    def test_simulate_429_carries_retry_after(self, service,
                                              monkeypatch):
        def reject(dag, **kwargs):
            raise RejectedError("simulation capacity exhausted")

        monkeypatch.setattr(service.pipeline, "simulate", reject)
        req = urllib.request.Request(
            service.url + "/v1/simulate",
            data=json.dumps(
                {"dag": dag_to_dict(out_mesh_dag(3))}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req, timeout=10)
        err = ei.value
        assert err.code == 429
        assert float(err.headers.get("Retry-After")) > 0

    def test_schedule_spilled_entry_404(self, registry):
        svc = SchedulingService(
            registry=DagRegistry(shards=1, capacity_per_shard=1),
        )
        with svc:
            st, first = _post(svc.url + "/v1/dags",
                              dag_to_dict(out_mesh_dag(3)))
            _post(svc.url + "/v1/dags", dag_to_dict(out_mesh_dag(4)))
            st, body = _get(
                svc.url + "/v1/schedules/" + first["fingerprint"])
            assert st == 404
            assert "spilled" in body["error"]


class TestAdmissionCount:
    """Acceptance: one ``max_inflight`` count bounds simulations and
    submissions together, rejecting at once rather than queueing."""

    def test_inflight_bounds_simulations_and_submits(
            self, registry, monkeypatch):
        release = threading.Event()
        lock = threading.Lock()
        running = peak = 0
        real_simulate = api.simulate

        def held(dag, **kw):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            try:
                assert release.wait(30), "never released"
                return real_simulate(dag, **kw)
            finally:
                with lock:
                    running -= 1

        def expect_429(url, payload):
            req = urllib.request.Request(
                url, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(req, timeout=10)
            assert ei.value.code == 429
            assert float(ei.value.headers.get("Retry-After")) > 0
            return json.loads(ei.value.read())

        monkeypatch.setattr(api, "simulate", held)
        sim = {"dag": dag_to_dict(out_mesh_dag(3)), "clients": 2}
        svc = SchedulingService(
            pipeline_config=PipelineConfig(max_inflight=2))
        with svc:
            statuses = []
            threads = [
                threading.Thread(target=lambda: statuses.append(
                    _post(svc.url + "/v1/simulate", sim)[0]))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for _ in range(3000):
                with lock:
                    if running == 2:
                        break
                threading.Event().wait(0.01)
            assert running == 2
            # both slots are held: a 3rd simulate and a concurrent
            # submit are turned away at once
            body = expect_429(svc.url + "/v1/simulate", sim)
            assert "capacity" in body["error"]
            body = expect_429(svc.url + "/v1/dags",
                              dag_to_dict(out_mesh_dag(4)))
            assert "capacity" in body["error"]
            release.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert statuses == [200, 200]
            st, body = _post(svc.url + "/v1/simulate", sim)
            assert st == 200
            assert body["completed"] == len(out_mesh_dag(3))
        assert peak == 2
        assert registry.value(
            "service_rejected_total", reason="simulate_capacity") == 1
        assert registry.value(
            "service_rejected_total", reason="schedule_capacity") == 1


class TestCoalescing:
    """Acceptance: 8 concurrent HTTP submissions of one fingerprint
    run exactly one certification search, pinned by metrics."""

    def test_eight_concurrent_submissions_one_search(
            self, registry, monkeypatch):
        release = threading.Event()
        real_schedule = api.schedule

        def gated(target, **kw):
            # hold the leader's search open until every follower has
            # arrived, forcing the request overlap the coalescer must
            # absorb
            assert release.wait(30), "followers never arrived"
            return real_schedule(target, **kw)

        monkeypatch.setattr(api, "schedule", gated)
        with SchedulingService() as svc:
            wire = dag_to_dict(out_mesh_dag(4))
            results = []
            lock = threading.Lock()

            def submit():
                st, body = _post(svc.url + "/v1/dags", wire)
                with lock:
                    results.append((st, body))

            threads = [threading.Thread(target=submit)
                       for _ in range(8)]
            for t in threads:
                t.start()
            # deterministic overlap: wait until the 7 duplicates are
            # parked on the in-flight search, then let it finish
            for _ in range(3000):
                if registry.value("service_coalesced_total") == 7:
                    break
                threading.Event().wait(0.01)
            assert registry.value("service_coalesced_total") == 7
            release.set()
            for t in threads:
                t.join(timeout=30)

        assert len(results) == 8
        assert all(st == 200 for st, _ in results)
        hows = sorted(body["how"] for _, body in results)
        assert hows == ["coalesced"] * 7 + ["search"]
        fps = {body["fingerprint"] for _, body in results}
        assert len(fps) == 1
        # the pinned tentpole property: exactly one search ran
        assert registry.value("service_searches_total") == 1
        assert registry.value("scheduler_requests_total") == 1
