"""E-OBS — instrumentation overhead of the observability layer.

PR 2 threaded the metrics registry and tracer through the certification
hot path (``repro.core.optimality``).  This bench proves the wiring is
effectively free: it times the PR-1 scale workload (the ``B_3``
ideal-lattice search of ``bench_optimality_scale.py``) three ways —

* **kernel** — the bare, *uninstrumented* search kernel
  (``_bit_tables`` + ``_level_bfs`` + the closed-form sink tail),
  i.e. exactly what ``max_eligibility_profile`` did before PR 2;
* **disabled** — the instrumented public path with tracing disabled
  (the default: per-call aggregate metrics only, no-op spans);
* **enabled** — the same with structured tracing turned on;
* **serving** — the disabled path measured while an
  :class:`~repro.obs.server.ObsServer` is scraped concurrently
  (~20 Hz ``GET /metrics``), i.e. the live-exposition serving path.

``overhead.disabled_pct`` and ``overhead.serving_pct`` — gated by
``tools/check_bench_regression.py`` — must stay **under 5%**: the
instrumentation budget for code that is always on.  A primitive
microbench (ns per no-op span, per counter increment, per live event)
is recorded alongside so a regression can be localized.

PR 7 added schedule-frame capture (:mod:`repro.obs.observatory`) to
the simulator under the same contract, and this bench gates it the
same way: a **frames** scenario times the simulation event loop three
ways — ``reference`` (the frozen ideal-model loop of
``tests/sim_reference.py``, which has no frame path at all),
``disabled`` (the public ``simulate()``: one store lookup + enabled
check per run — the store is resolved once, so each step pays one
pointer compare), and ``enabled`` (a live
:class:`~repro.obs.observatory.FrameStore` recording every step,
informational).  ``frames.disabled_pct`` is
gated under the same 5% budget.

Each overhead ratio alternates its legs run by run and keeps the best
of each, so a host slowdown lands on both legs alike instead of on
whichever leg happened to run during it; the scraper is paused while
the serving ratio's kernel leg runs.  All paths are asserted to
produce byte-identical profiles before any number is recorded.  Run
standalone (``python benchmarks/bench_observability.py``) or under
pytest-benchmark; the
fresh record lands in ``benchmarks/out/BENCH_observability.json`` and
the committed baseline in ``benchmarks/BENCH_observability.json``.
"""

from __future__ import annotations

import json
import time

from repro.core.optimality import (
    _bit_tables,
    _level_bfs,
    max_eligibility_profile,
)
from repro.families.butterfly_net import butterfly_dag
from repro.obs import (
    MetricsRegistry,
    Tracer,
    global_registry,
    global_tracer,
    set_global_registry,
    set_global_tracer,
)
from repro.sim import simulate
from repro.sim.heuristics import make_policy
from repro.core import schedule_dag

from _harness import OUT_DIR, reference_simulate, write_report

FRESH_RECORD = OUT_DIR / "BENCH_observability.json"

#: the PR-1 scale workload: the largest exactly certifiable butterfly.
DIM = 3
BUDGET = 20_000_000
REPEATS = 5
#: the serving path gets more repeats: each run is a few ms while
#: scrapes land every ~50 ms, so best-of needs enough samples to see
#: runs both with and without a concurrent scrape.
REPEATS_SERVING = 12
#: hard ceiling on the disabled-path overhead, in percent (gated).
DISABLED_OVERHEAD_LIMIT_PCT = 5.0
#: the frame-capture scenario workload: a larger butterfly simulated
#: under FIFO (no certification in the timed loop), so the event loop
#: — where the frame gating lives — dominates.
FRAMES_DIM = 5
FRAMES_CLIENTS = 8
#: best-of over many repeats: the gate compares two event loops of
#: equal work on a ~2 ms run, so it is really measuring scheduler
#: noise — drive it down with samples.
REPEATS_FRAMES = 50


def _kernel_profile(dag, state_budget: int = BUDGET) -> list[int]:
    """The uninstrumented sequential search: what the public path does
    minus every observability touchpoint (no clock reads, no registry,
    no span).  The reference the overhead is measured against."""
    dag.validate()
    total = len(dag)
    _nodes, children, parents_mask, nonsink_mask, init_eligible = (
        _bit_tables(dag)
    )
    n = nonsink_mask.bit_count()
    profile = [init_eligible.bit_count()]
    if n:
        maxima, _states, _peak, complete = _level_bfs(
            children, parents_mask, nonsink_mask, init_eligible,
            state_budget,
        )
        assert complete, f"{dag.name}: kernel exceeded its state budget"
        profile.extend(maxima)
    for t in range(n + 1, total + 1):
        profile.append(total - t)
    return profile


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _interleaved_best(repeats: int, *legs):
    """Best-of time and last result of each leg, the legs run in turn
    ``repeats`` times."""
    best = [float("inf")] * len(legs)
    results = [None] * len(legs)
    for _ in range(repeats):
        for i, fn in enumerate(legs):
            elapsed, results[i] = _timed(fn)
            best[i] = min(best[i], elapsed)
    return best, results


def _time_primitive(fn, n: int = 20_000) -> float:
    """Mean nanoseconds per call over ``n`` calls (loop cost included —
    an upper bound, which is the conservative direction for a gate)."""
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n * 1e9


def collect_record() -> dict:
    dag = butterfly_dag(DIM)

    # isolate this workload's metrics; keep tracing off for the
    # kernel/disabled measurements.
    old_reg = set_global_registry(MetricsRegistry())
    old_tracer = set_global_tracer(Tracer(capacity=1 << 18))
    try:
        def traced():
            global_tracer().enable()
            try:
                return max_eligibility_profile(dag, BUDGET)
            finally:
                global_tracer().disable()

        (t_kernel, t_disabled, t_enabled), \
            (p_kernel, p_disabled, p_enabled) = _interleaved_best(
                REPEATS,
                lambda: _kernel_profile(dag),
                lambda: max_eligibility_profile(dag, BUDGET),
                traced,
            )
        assert p_disabled == p_kernel, "instrumented path diverged"
        assert p_enabled == p_kernel, "traced path diverged"

        # primitive costs (disabled span is THE hot-path fast path).
        tracer = global_tracer()
        counter = global_registry().counter("bench_prim_total", "bench")
        ns_span_disabled = _time_primitive(
            lambda: tracer.span("bench.noop")
        )
        ns_counter_inc = _time_primitive(counter.inc)
        tracer.enable()
        ns_event_enabled = _time_primitive(
            lambda: tracer.event("bench.event")
        )
        tracer.disable()
        tracer.clear()

        # serving path: the same (tracing-off) search while a scraper
        # thread polls GET /metrics at ~20 Hz — the overhead a live
        # Prometheus scrape adds to a running search.
        import threading
        from urllib.request import urlopen

        from repro.obs import ObsServer
        from repro.obs.server import PROM_CONTENT_TYPE

        scrape_n = 0
        scrape_lat = 0.0
        stop = threading.Event()
        # the serving ratio's kernel leg runs with the scraper paused:
        # it sets `paused`, then waits on `idle` for a scrape already
        # under way; the scraper clears `idle` before it checks
        # `paused`, so no scrape can start inside a kernel run
        paused = threading.Event()
        idle = threading.Event()
        idle.set()
        with ObsServer() as srv:
            # warm the listener (thread + socket + first exposition)
            # outside the measured window.
            with urlopen(srv.url + "/metrics", timeout=5) as resp:
                assert resp.status == 200
                resp.read()

            def _scrape_loop():
                nonlocal scrape_n, scrape_lat
                while not stop.is_set():
                    idle.clear()
                    try:
                        if not paused.is_set():
                            t0 = time.perf_counter()
                            with urlopen(srv.url + "/metrics",
                                         timeout=5) as resp:
                                assert resp.status == 200
                                assert resp.headers["Content-Type"] == (
                                    PROM_CONTENT_TYPE
                                )
                                resp.read()
                            scrape_lat += time.perf_counter() - t0
                            scrape_n += 1
                    finally:
                        idle.set()
                    stop.wait(0.05)

            scraper = threading.Thread(target=_scrape_loop, daemon=True)
            scraper.start()
            t_serving_kernel = t_serving = float("inf")
            for _ in range(REPEATS_SERVING):
                paused.set()
                idle.wait(10)
                elapsed, _p = _timed(lambda: _kernel_profile(dag))
                paused.clear()
                t_serving_kernel = min(t_serving_kernel, elapsed)
                elapsed, p_serving = _timed(
                    lambda: max_eligibility_profile(dag, BUDGET))
                t_serving = min(t_serving, elapsed)
            stop.set()
            scraper.join(timeout=10)
        assert p_serving == p_kernel, "served path diverged"
        assert scrape_n > 0, "scraper never completed a request"

        # frame-capture scenario: the simulation event loop with the
        # frame path (a) absent (the frozen reference loop),
        # (b) present but disabled (the default), (c) recording.
        from repro.obs.observatory import (
            FrameStore,
            global_frame_store,
            set_global_frame_store,
        )
        simulate_reference = reference_simulate()
        frames_dag = butterfly_dag(FRAMES_DIM)
        old_store = set_global_frame_store(FrameStore())
        try:
            store = global_frame_store()

            def live():
                return simulate(frames_dag, make_policy("FIFO"),
                                clients=FRAMES_CLIENTS)

            def recording():
                store.enable()
                try:
                    return live()
                finally:
                    store.disable()

            (t_fr_ref, t_fr_disabled, t_fr_enabled), \
                (r_ref, r_dis, r_en) = _interleaved_best(
                    REPEATS_FRAMES,
                    lambda: simulate_reference(
                        frames_dag, make_policy("FIFO"),
                        clients=FRAMES_CLIENTS,
                    ),
                    live,
                    recording,
                )
            assert r_ref.makespan == r_dis.makespan == r_en.makespan, (
                "frame capture changed the simulation"
            )
            channel = store.get(frames_dag.fingerprint())
            frames_captured = channel.seq if channel is not None else 0
            assert frames_captured > 0, "enabled store captured nothing"
        finally:
            set_global_frame_store(old_store)

        # sim trace segment (informational): a traced simulation of
        # the same dag, counting structured records emitted.
        scheduling = schedule_dag(dag)
        tracer.enable()
        res = simulate(
            dag, make_policy("IC-OPT", scheduling.schedule),
            clients=4, record_trace=True,
        )
        tracer.disable()
        sim_events = len(tracer.records())
        assert res.completed == len(dag)
        assert len(res.trace) == res.completed + res.lost_allocations
    finally:
        set_global_registry(old_reg)
        set_global_tracer(old_tracer)

    overhead_disabled = max(0.0, (t_disabled / t_kernel - 1.0) * 100.0)
    overhead_enabled = max(0.0, (t_enabled / t_kernel - 1.0) * 100.0)
    overhead_serving = max(
        0.0, (t_serving / t_serving_kernel - 1.0) * 100.0)
    fr_disabled_pct = max(0.0, (t_fr_disabled / t_fr_ref - 1.0) * 100.0)
    fr_enabled_pct = max(0.0, (t_fr_enabled / t_fr_ref - 1.0) * 100.0)
    return {
        "schema": 3,
        "workload": f"B_{DIM} ideal-lattice search "
                    "(PR-1 scale benchmark workload)",
        "search": {
            "dag": f"B_{DIM}",
            "nodes": len(dag),
            "kernel_s": round(t_kernel, 6),
            "disabled_s": round(t_disabled, 6),
            "enabled_s": round(t_enabled, 6),
            "serving_s": round(t_serving, 6),
            "serving_kernel_s": round(t_serving_kernel, 6),
        },
        "overhead": {
            "disabled_pct": round(overhead_disabled, 3),
            "enabled_pct": round(overhead_enabled, 3),
            "serving_pct": round(overhead_serving, 3),
            "limit_disabled_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        },
        "serving": {
            "scrapes": scrape_n,
            "mean_scrape_ms": round(scrape_lat / scrape_n * 1e3, 3),
        },
        "primitives_ns": {
            "span_disabled": round(ns_span_disabled, 1),
            "counter_inc": round(ns_counter_inc, 1),
            "event_enabled": round(ns_event_enabled, 1),
        },
        "frames": {
            "dag": f"B_{FRAMES_DIM}",
            "nodes": len(frames_dag),
            "clients": FRAMES_CLIENTS,
            "reference_s": round(t_fr_ref, 6),
            "disabled_s": round(t_fr_disabled, 6),
            "enabled_s": round(t_fr_enabled, 6),
            "disabled_pct": round(fr_disabled_pct, 3),
            "enabled_pct": round(fr_enabled_pct, 3),
            "captured": frames_captured,
            "limit_disabled_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        },
        "sim_trace": {
            "allocations": len(res.trace),
            "structured_events": sim_events,
        },
    }


def _render(record: dict) -> str:
    from repro.analysis import render_table

    s, o, p = record["search"], record["overhead"], record["primitives_ns"]
    rows = [
        ("kernel (uninstrumented)", f"{s['kernel_s'] * 1e3:.3f}", "-"),
        ("instrumented, tracing off", f"{s['disabled_s'] * 1e3:.3f}",
         f"{o['disabled_pct']:.2f}%"),
        ("instrumented, tracing on", f"{s['enabled_s'] * 1e3:.3f}",
         f"{o['enabled_pct']:.2f}%"),
        ("instrumented, scraped @20Hz", f"{s['serving_s'] * 1e3:.3f}",
         f"{o['serving_pct']:.2f}%"),
    ]
    report = render_table(
        ["path", "best ms", "overhead"],
        rows,
        title=f"observability overhead on {s['dag']} "
              f"(limit {o['limit_disabled_pct']:.0f}% disabled)",
    )
    fr = record["frames"]
    report += "\n\n" + render_table(
        ["frame-capture path", "best ms", "overhead"],
        [
            ("reference (no frame path)",
             f"{fr['reference_s'] * 1e3:.3f}", "-"),
            ("store present, disabled",
             f"{fr['disabled_s'] * 1e3:.3f}",
             f"{fr['disabled_pct']:.2f}%"),
            ("store enabled, recording",
             f"{fr['enabled_s'] * 1e3:.3f}",
             f"{fr['enabled_pct']:.2f}%"),
        ],
        title=f"schedule-frame capture on {fr['dag']} sim "
              f"({fr['clients']} clients, {fr['captured']} frames; "
              f"limit {fr['limit_disabled_pct']:.0f}% disabled)",
    )
    report += (
        f"\nprimitives: no-op span {p['span_disabled']:.0f} ns, "
        f"counter.inc {p['counter_inc']:.0f} ns, "
        f"live event {p['event_enabled']:.0f} ns"
        f"\nserving: {record['serving']['scrapes']} scrapes, "
        f"{record['serving']['mean_scrape_ms']:.2f} ms mean /metrics"
        f"\nsim trace: {record['sim_trace']['allocations']} allocations, "
        f"{record['sim_trace']['structured_events']} structured events"
    )
    return report


def run() -> dict:
    record = collect_record()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-OBS_observability", _render(record))
    return record


def test_observability_overhead(benchmark):
    dag = butterfly_dag(DIM)
    benchmark(lambda: max_eligibility_profile(dag, BUDGET))
    record = run()
    assert (record["overhead"]["disabled_pct"]
            < DISABLED_OVERHEAD_LIMIT_PCT), (
        f"disabled-path instrumentation overhead "
        f"{record['overhead']['disabled_pct']}% breaches the "
        f"{DISABLED_OVERHEAD_LIMIT_PCT}% budget"
    )
    assert (record["overhead"]["serving_pct"]
            < DISABLED_OVERHEAD_LIMIT_PCT), (
        f"serving-path overhead {record['overhead']['serving_pct']}% "
        f"breaches the {DISABLED_OVERHEAD_LIMIT_PCT}% budget"
    )
    assert (record["frames"]["disabled_pct"]
            < DISABLED_OVERHEAD_LIMIT_PCT), (
        f"frame-capture disabled-path overhead "
        f"{record['frames']['disabled_pct']}% breaches the "
        f"{DISABLED_OVERHEAD_LIMIT_PCT}% budget"
    )
    assert record["frames"]["captured"] > 0
    assert record["serving"]["scrapes"] > 0
    assert record["sim_trace"]["structured_events"] > 0


if __name__ == "__main__":
    rec = run()
    print(json.dumps(rec["overhead"], indent=2))
