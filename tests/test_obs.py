"""Tests for the unified observability layer (`repro.obs`):
registry arithmetic, labeled metrics, histogram quantiles, exposition
formats, tracer nesting/truncation/round-trip, the instrumentation
API, and the wiring through search, cache, scheduler, and simulation.
"""

import json
import time

import pytest

from repro.core import (
    ProfileCache,
    SearchStats,
    max_eligibility_profile,
    schedule_dag,
)
from repro.families.mesh import out_mesh_chain
from repro.obs import (
    MetricsRegistry,
    Tracer,
    global_registry,
    global_tracer,
    load_jsonl,
    profiled,
    set_global_registry,
    set_global_tracer,
    span,
)
from repro.sim import TraceRecord, simulate
from repro.sim.heuristics import make_policy


@pytest.fixture
def registry():
    """A fresh process-wide registry, restored afterwards."""
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


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestRegistryArithmetic:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("requests_total") == 5

    def test_counter_monotonic(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2
        g.set_max(10)
        g.set_max(7)
        assert g.value == 10

    def test_redeclare_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_redeclare_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_redeclare_label_conflict(self):
        reg = MetricsRegistry()
        reg.counter("a", labelnames=("x",))
        with pytest.raises(ValueError):
            reg.counter("a", labelnames=("y",))

    def test_missing_metric_value_is_zero(self):
        assert MetricsRegistry().value("nope") == 0

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(7)
        reg.reset()
        assert reg.value("a") == 0
        assert reg.counter("a") is c

    def test_gauge_json_is_byte_stable(self):
        # a snapshot is a pure function of the recorded history: no
        # wall-clock stamp rides along with a gauge
        def history():
            reg = MetricsRegistry()
            g = reg.gauge("depth", "queue depth", ("q",))
            g.labels("a").set(3)
            g.labels("a").inc()
            g.labels("b").set_max(2.5)
            return reg.to_json()

        first = history()
        time.sleep(0.01)
        assert history() == first
        assert json.loads(first)["depth"]["series"][0] == {
            "labels": {"q": "a"}, "value": 4,
        }


class TestLabeledMetrics:
    def test_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "ops", ("kind",))
        c.labels("read").inc(2)
        c.labels("write").inc(5)
        assert reg.value("ops_total", kind="read") == 2
        assert reg.value("ops_total", kind="write") == 5
        # the unlabeled value of a labeled metric sums its children
        assert reg.value("ops_total") == 7

    def test_keyword_labels(self):
        c = MetricsRegistry().counter("x", labelnames=("a", "b"))
        c.labels(b="2", a="1").inc()
        assert c.labels("1", "2").value == 1

    def test_label_errors(self):
        reg = MetricsRegistry()
        plain = reg.counter("plain")
        with pytest.raises(ValueError):
            plain.labels("v")
        labeled = reg.counter("labeled", labelnames=("k",))
        with pytest.raises(ValueError):
            labeled.labels()
        with pytest.raises(ValueError):
            labeled.labels(wrong="v")


class TestHistogram:
    def test_count_sum_mean(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 2, 4))
        for v in (0.5, 1.5, 3.0, 8.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(13.0)
        assert h.mean == pytest.approx(3.25)

    def test_quantiles(self):
        h = MetricsRegistry().histogram(
            "h", buckets=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
        )
        for v in range(1, 101):
            h.observe(v)
        # uniform over (0, 100]: interpolated quantiles land close
        assert h.quantile(0.5) == pytest.approx(50, abs=10)
        assert h.quantile(0.9) == pytest.approx(90, abs=10)
        assert h.quantile(1.0) == 100
        assert MetricsRegistry().histogram("e").quantile(0.5) == 0.0

    def test_quantile_bounds(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        h.observe(99.0)
        assert h.count == 1
        assert h.quantile(0.5) == 1.0  # clamped to the last bound

    def test_quantile_edge_cases(self):
        # empty histogram: every quantile collapses to 0.0
        e = MetricsRegistry().histogram("e", buckets=(1, 2))
        assert e.quantile(0.0) == 0.0
        assert e.quantile(1.0) == 0.0
        # q=0 is the distribution floor, q=1 its ceiling
        h = MetricsRegistry().histogram("h", buckets=(10, 20))
        h.observe(5)
        h.observe(15)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 20
        # all mass in the overflow (+Inf) bucket: clamped to the
        # last finite bound — the estimator cannot see past it
        o = MetricsRegistry().histogram("o", buckets=(1.0, 2.0))
        o.observe(50.0)
        o.observe(99.0)
        assert o.quantile(0.5) == 2.0
        assert o.quantile(1.0) == 2.0

    def test_merged_histogram_quantiles(self):
        # quantiles over a two-humped distribution: each half's
        # quantiles interpolate inside its own bucket
        bounds = (10, 20, 30, 40)
        h = MetricsRegistry().histogram("lat", buckets=bounds)
        for _ in range(3):
            h.observe(5)
            h.observe(35)
        assert h.count == 6
        assert h.sum == pytest.approx(120.0)
        assert h.quantile(0.25) == pytest.approx(5.0)
        assert h.quantile(0.75) == pytest.approx(35.0)


class TestExposition:
    def _sample_registry(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", ("code",)).labels("200").inc(3)
        reg.gauge("temp", "temperature").set(21.5)
        reg.histogram("lat_seconds", "latency", buckets=(0.1, 1)).observe(0.05)
        return reg

    def test_prometheus_format(self):
        text = self._sample_registry().to_prometheus()
        assert "# HELP req_total requests\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{code="200"} 3\n' in text
        assert "# TYPE temp gauge" in text
        assert "temp 21.5" in text
        # histograms expose cumulative buckets, sum, and count
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.05" in text
        assert "lat_seconds_count 1" in text

    def test_json_round_trip(self):
        reg = self._sample_registry()
        snap = json.loads(reg.to_json())
        assert snap["req_total"]["type"] == "counter"
        assert snap["req_total"]["series"][0]["value"] == 3
        assert snap["temp"]["value"] == 21.5
        assert snap["lat_seconds"]["value"]["count"] == 1

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert list(reg.snapshot()) == ["aa", "zz"]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_disabled_fast_path_records_nothing(self):
        t = Tracer()
        with t.span("a"):
            t.event("b")
        assert len(t) == 0
        # the disabled span is a shared no-op object
        assert t.span("a") is t.span("b")

    def test_nesting_parent_ids(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                t.event("leaf")
        events = {r.name: r for r in t.records()}
        # spans are recorded on exit: inner closes before outer
        assert [r.name for r in t.records()] == ["leaf", "inner", "outer"]
        assert events["outer"].parent is None
        assert events["inner"].parent == events["outer"].id
        assert events["leaf"].parent == events["inner"].id
        assert events["inner"].dur is not None
        assert events["leaf"].dur is None

    def test_span_attrs_and_error(self):
        t = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with t.span("work", phase="x") as sp:
                sp.set(extra=1)
                raise RuntimeError("boom")
        (rec,) = t.records()
        assert rec.attrs == {"phase": "x", "extra": 1,
                             "error": "RuntimeError"}

    def test_ring_buffer_truncation(self):
        t = Tracer(capacity=3, enabled=True)
        for i in range(10):
            t.event(f"e{i}")
        assert len(t) == 3
        assert [r.name for r in t.records()] == ["e7", "e8", "e9"]
        assert t.dropped == 7

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("s", dag="B_3"):
            t.event("e", k=1)
        path = tmp_path / "trace.jsonl"
        assert t.export_jsonl(path) == 2
        loaded = load_jsonl(str(path))
        assert loaded == t.records()
        # and from raw text too
        assert load_jsonl(t.to_jsonl()) == t.records()

    def test_clear_restarts(self):
        t = Tracer(enabled=True)
        t.event("x")
        t.clear()
        assert len(t) == 0 and t.dropped == 0


# ----------------------------------------------------------------------
# instrumentation API
# ----------------------------------------------------------------------


class TestInstrumentationAPI:
    def test_span_uses_global_tracer(self, tracer):
        with span("unit.work", n=1):
            pass
        assert [r.name for r in tracer.records()] == ["unit.work"]

    def test_profiled_times_into_histogram(self, registry, tracer):
        @profiled("unit.fn", kind="test")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert fn(2) == 3
        hist = registry.get("unit_fn_seconds")
        assert hist.labels("test").count == 2
        assert [r.name for r in tracer.records()] == ["unit.fn", "unit.fn"]

    def test_profiled_propagates_and_times_errors(self, registry):
        @profiled("unit.bad")
        def bad():
            raise ValueError("nope")

        with pytest.raises(ValueError):
            bad()
        assert registry.get("unit_bad_seconds").count == 1


# ----------------------------------------------------------------------
# wiring: search, cache, scheduler, simulation
# ----------------------------------------------------------------------


class TestSearchWiring:
    def test_search_counters_recorded(self, registry):
        chain = out_mesh_chain(3)
        stats = SearchStats()
        max_eligibility_profile(chain.dag, stats=stats)
        assert stats.states_expanded > 0
        assert registry.value(
            "search_states_expanded_total", mode="sequential"
        ) == stats.states_expanded
        assert registry.value("search_profile_total") == 1
        assert registry.value("search_frontier_peak") == stats.frontier_peak

    def test_searchstats_from_registry_view(self, registry):
        chain = out_mesh_chain(3)
        s1 = SearchStats()
        max_eligibility_profile(chain.dag, stats=s1)
        max_eligibility_profile(chain.dag, stats=SearchStats())
        totals = SearchStats.from_registry()
        assert totals.states_expanded == 2 * s1.states_expanded
        assert totals.frontier_peak == s1.frontier_peak

    def test_search_span_emitted(self, registry, tracer):
        max_eligibility_profile(out_mesh_chain(3).dag)
        names = [r.name for r in tracer.records()]
        assert "optimality.max_profile" in names

    def test_scheduler_counter_labeled_by_certificate(self, registry):
        result = schedule_dag(out_mesh_chain(3))
        assert registry.value(
            "scheduler_requests_total",
            certificate=result.certificate.value,
        ) == 1


class TestCacheWiring:
    def test_public_stat_properties(self, registry):
        cache = ProfileCache()
        dag = out_mesh_chain(3).dag
        cache.max_profile(dag)
        cache.max_profile(dag)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0
        assert cache.hit_rate == pytest.approx(0.5)

    def test_stats_method_is_snapshot(self, registry):
        cache = ProfileCache()
        dag = out_mesh_chain(3).dag
        cache.max_profile(dag)
        snap = cache.stats()
        assert snap.misses == 1 and snap.hits == 0
        cache.max_profile(dag)
        # the snapshot does not track later lookups
        assert snap.hits == 0
        assert cache.stats().hits == 1

    def test_registry_lookup_counters(self, registry):
        cache = ProfileCache()
        dag = out_mesh_chain(3).dag
        cache.max_profile(dag)
        cache.max_profile(dag)
        assert registry.value(
            "profile_cache_lookups_total", kind="profile", result="miss"
        ) == 1
        assert registry.value(
            "profile_cache_lookups_total", kind="profile", result="hit"
        ) == 1

    def test_eviction_counter(self, registry):
        cache = ProfileCache(maxsize=1)
        cache.max_profile(out_mesh_chain(2).dag)
        cache.max_profile(out_mesh_chain(3).dag)
        assert cache.evictions == 1
        assert registry.value("profile_cache_evictions_total") == 1


class TestSimulationWiring:
    def _run(self, record_trace=False):
        chain = out_mesh_chain(3)
        result = schedule_dag(chain)
        return simulate(
            chain.dag,
            make_policy("IC-OPT", result.schedule),
            clients=3,
            record_trace=record_trace,
        )

    def test_trace_record_named_fields(self, registry):
        res = self._run(record_trace=True)
        assert res.trace, "trace requested but empty"
        rec = res.trace[0]
        assert isinstance(rec, TraceRecord)
        assert rec.client_id == rec[0]
        assert rec.task == rec[1]
        assert rec.start == rec[2] and rec.end == rec[3]
        assert rec.kind == rec[4] == "done"
        # index-compatible with the legacy bare 5-tuple unpacking
        c, task, start, end, kind = rec
        assert (c, task, start, end, kind) == tuple(rec)

    def test_trace_empty_when_not_recording(self, registry):
        """Regression: the non-trace path must not build the trace."""
        res = self._run(record_trace=False)
        assert res.trace == []

    def test_gantt_renders_trace_records(self, registry):
        from repro.analysis.ascii_dag import render_gantt

        res = self._run(record_trace=True)
        out = render_gantt(res.trace, 3)
        assert "gantt" in out and "c0" in out

    def test_sim_counters(self, registry):
        res = self._run()
        n = res.completed
        assert registry.value("sim_allocations_total") == n
        assert registry.value("sim_completions_total") == n
        assert registry.value("sim_losses_total") == 0
        # the final gauge value is 0: nothing left to allocate
        assert registry.value("sim_allocatable") == 0

    def test_sim_step_gauges(self, registry):
        res = self._run()
        # at the end everything has run: no work left, all completed
        assert registry.value("sim_eligible") == 0
        assert registry.value("sim_completed") == res.completed
        # one event-loop step per allocation outcome
        assert registry.value("sim_steps_total") == res.completed

    def test_sim_quality_series(self, registry):
        res = self._run()
        assert registry.value("sim_runs_total", policy="IC-OPT") == 1
        assert registry.value(
            "sim_quality_makespan", policy="IC-OPT"
        ) == res.makespan
        assert registry.value(
            "sim_quality_utilization", policy="IC-OPT"
        ) == res.utilization
        assert registry.value(
            "sim_quality_starvation", policy="IC-OPT"
        ) == res.starvation_events
        assert registry.value(
            "sim_quality_mean_headroom", policy="IC-OPT"
        ) == res.mean_headroom
        self._run()  # a second run: counter sums, gauges track latest
        assert registry.value("sim_runs_total", policy="IC-OPT") == 2

    def test_batched_sim_records_quality(self, registry):
        from repro import api
        from repro.core.batched import level_batches

        chain = out_mesh_chain(3)
        res = api.simulate(chain.dag, batches=level_batches(chain.dag))
        assert registry.value("sim_runs_total", policy=res.policy) == 1
        assert registry.value(
            "sim_quality_makespan", policy=res.policy
        ) == res.makespan

    def test_sim_trace_events(self, registry, tracer):
        self._run()
        names = {r.name for r in tracer.records()}
        assert "sim.simulate" in names
        assert "sim.allocate" in names
        assert "sim.complete" in names
        spans = [r for r in tracer.records() if r.name == "sim.simulate"]
        allocs = [r for r in tracer.records() if r.name == "sim.allocate"]
        # allocation events nest under the simulate span
        assert all(a.parent == spans[0].id for a in allocs)
