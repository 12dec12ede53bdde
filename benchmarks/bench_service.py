"""E-SERVICE — scheduling-as-a-service throughput, latency, and
coalescing gates.

Exercises the full ``repro.service`` stack — hardened HTTP layer,
admission pipeline, sharded registry — over real loopback HTTP and
records ``benchmarks/out/BENCH_service.json``:

* **coalesce** — a deterministic thundering herd: 16 concurrent
  submissions of one fingerprint while the certification search is
  held open, so every duplicate must join the in-flight search.  The
  search count (exactly 1) and the coalesce hit rate (15/16) are
  *machine-independent* — gated against the committed baseline by
  ``tools/check_bench_regression.py``;
* **resubmit** — every previously certified dag answered from the
  registry without any search (``cached_fraction`` = 1.0; gated);
* **throughput / latency** — concurrent ``POST /v1/simulate``
  requests (by-fingerprint, named policy, so no search cost), with
  requests/s and p50/p99 latency recorded.  Host-dependent: gated
  only under ``--absolute``.

Run standalone (``python benchmarks/bench_service.py``) or under
pytest-benchmark; the committed baseline is
``benchmarks/BENCH_service.json``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import repro.api as api
from repro.families.mesh import out_mesh_dag
from repro.obs import MetricsRegistry, set_global_registry
from repro.service import SchedulingService

from _harness import OUT_DIR, write_report

FRESH_RECORD = OUT_DIR / "BENCH_service.json"

#: distinct dag structures submitted (then resubmitted) — mesh depths
#: 2..2+N-1, all within the default exhaustive limit or certified
#: heuristically; what matters is that each has a distinct fingerprint.
N_DAGS = 10
#: concurrent submissions of one fingerprint in the coalesce phase.
HERD = 16
#: simulate-phase load: total requests and client threads.
SIM_REQUESTS = 48
SIM_THREADS = 8


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as r:
        return json.loads(r.read())


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1,
              max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _coalesce_phase(svc: SchedulingService, registry) -> dict:
    """Deterministic thundering herd: hold the leader's search open
    until every follower is parked on it, then release."""
    release = threading.Event()
    real_schedule = api.schedule

    def gated(target, **kw):
        release.wait(60)
        return real_schedule(target, **kw)

    wire = api.dag_to_dict(out_mesh_dag(N_DAGS + 4))
    searches0 = registry.value("service_searches_total")
    results: list[dict] = []
    lock = threading.Lock()

    def submit():
        body = _post(svc.url + "/v1/dags", wire)
        with lock:
            results.append(body)

    api.schedule = gated
    try:
        threads = [threading.Thread(target=submit) for _ in range(HERD)]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 60.0
        while (registry.value("service_coalesced_total") < HERD - 1
               and time.perf_counter() < deadline):
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        api.schedule = real_schedule

    searches = int(registry.value("service_searches_total") - searches0)
    coalesced = sum(1 for b in results if b["how"] == "coalesced")
    assert len(results) == HERD, "herd requests lost"
    assert searches == 1, f"herd ran {searches} searches, expected 1"
    return {
        "requests": HERD,
        "searches": searches,
        "coalesced": coalesced,
        "hit_rate": round(coalesced / HERD, 6),
    }


def collect_record() -> dict:
    registry = MetricsRegistry()
    old_reg = set_global_registry(registry)
    try:
        with SchedulingService() as svc:
            # -- submit N distinct dags ----------------------------
            wires = [api.dag_to_dict(out_mesh_dag(d))
                     for d in range(2, 2 + N_DAGS)]
            submit_lat: list[float] = []
            fingerprints = []
            for wire in wires:
                t0 = time.perf_counter()
                body = _post(svc.url + "/v1/dags", wire)
                submit_lat.append(time.perf_counter() - t0)
                fingerprints.append(body["fingerprint"])

            # -- resubmit: all answered from the registry ----------
            cached = 0
            for wire in wires:
                body = _post(svc.url + "/v1/dags", wire)
                cached += body["how"] == "cached"

            # -- coalesce: deterministic thundering herd -----------
            coalesce = _coalesce_phase(svc, registry)

            # -- simulate load: throughput + latency ---------------
            sim_lat: list[float] = []
            lat_lock = threading.Lock()

            def sim_worker(worker: int) -> None:
                for i in range(SIM_REQUESTS // SIM_THREADS):
                    fp = fingerprints[(worker + i) % len(fingerprints)]
                    t0 = time.perf_counter()
                    _post(svc.url + "/v1/simulate",
                          {"fingerprint": fp, "policy": "CRITPATH",
                           "clients": 4, "seed": worker})
                    dt = time.perf_counter() - t0
                    with lat_lock:
                        sim_lat.append(dt)

            t_load0 = time.perf_counter()
            workers = [
                threading.Thread(target=sim_worker, args=(w,))
                for w in range(SIM_THREADS)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            t_load = time.perf_counter() - t_load0
            entries = len(svc.registry)
    finally:
        set_global_registry(old_reg)

    sim_lat.sort()
    submit_lat.sort()
    return {
        "schema": 1,
        "workload": (
            f"{N_DAGS} distinct dags submitted + resubmitted, "
            f"{HERD}-way herd on one fingerprint, "
            f"{len(sim_lat)} simulate requests from "
            f"{SIM_THREADS} threads"
        ),
        "coalesce": coalesce,
        "resubmit": {
            "requests": N_DAGS,
            "cached": cached,
            "cached_fraction": round(cached / N_DAGS, 6),
        },
        "registry": {"entries": entries},
        "submit": {
            "requests": N_DAGS,
            "p50_ms": round(
                _percentile(submit_lat, 0.50) * 1e3, 3),
            "p99_ms": round(
                _percentile(submit_lat, 0.99) * 1e3, 3),
        },
        "simulate": {
            "requests": len(sim_lat),
            "threads": SIM_THREADS,
            "wall_s": round(t_load, 6),
            "requests_per_sec": round(len(sim_lat) / t_load, 3),
            "p50_ms": round(_percentile(sim_lat, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(sim_lat, 0.99) * 1e3, 3),
        },
    }


def _render(record: dict) -> str:
    from repro.analysis import render_table

    c, r = record["coalesce"], record["resubmit"]
    s = record["simulate"]
    rows = [
        ("herd coalescing",
         f"{c['requests']} reqs -> {c['searches']} search",
         f"hit rate {c['hit_rate']:.4f}"),
        ("registry resubmit",
         f"{r['requests']} reqs -> {r['cached']} cached",
         f"cached {r['cached_fraction']:.2f}"),
        ("simulate load",
         f"{s['requests']} reqs @ {s['threads']} threads",
         f"{s['requests_per_sec']}/s "
         f"p50 {s['p50_ms']}ms p99 {s['p99_ms']}ms"),
    ]
    return render_table(
        ["phase", "shape", "result"], rows,
        title="scheduling service over loopback HTTP",
    )


def run() -> dict:
    record = collect_record()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-SERVICE_service", _render(record))
    return record


def test_service_bench(benchmark):
    # time one submit+simulate round trip as the representative kernel
    registry = MetricsRegistry()
    old = set_global_registry(registry)
    try:
        with SchedulingService() as svc:
            wire = api.dag_to_dict(out_mesh_dag(4))
            body = _post(svc.url + "/v1/dags", wire)

            def round_trip():
                _post(svc.url + "/v1/simulate",
                      {"fingerprint": body["fingerprint"],
                       "policy": "CRITPATH", "clients": 4})

            benchmark(round_trip)
    finally:
        set_global_registry(old)
    record = run()
    assert record["coalesce"]["searches"] == 1
    assert record["coalesce"]["hit_rate"] >= (HERD - 1) / HERD
    assert record["resubmit"]["cached_fraction"] == 1.0


if __name__ == "__main__":
    rec = run()
    print(json.dumps(
        {"coalesce": rec["coalesce"], "simulate": rec["simulate"]},
        indent=2,
    ))
