#!/usr/bin/env python3
"""End-to-end smoke test for the scheduling service (CI gate).

Boots a real ``SchedulingService`` on an ephemeral loopback port and
drives the whole public surface over HTTP exactly the way an external
client would:

1. ``GET /healthz`` / ``GET /readyz`` — the listener is up and ready;
2. ``POST /v1/dags`` — submit a dag, expect a certified schedule;
3. resubmit the same dag — expect ``how == "cached"`` (registry hit);
4. ``GET /v1/schedules/{fingerprint}`` — fetch the stored schedule;
5. ``POST /v1/simulate`` — by fingerprint and with an inline dag;
6. ``GET /metrics`` — the Prometheus exposition carries the service
   counters; ``GET /stats`` agrees with what we just did;
7. the live observatory — ``GET /ui`` is one self-contained HTML
   response (no external assets), ``GET /v1/dags/{fp}/frame`` holds
   captured frames whose seq advances across simulations (the
   headless stand-in for watching the page animate), and one
   ``GET /v1/events`` SSE delta parses;
8. request-scoped observability — a client-supplied
   ``X-Repro-Request-Id`` round-trips onto the response (and the
   server mints one when absent), ``GET /v1/slo`` evaluates the
   declared objectives, and a seeded certification fault degrades
   one submission and leaves exactly one flight-recorder bundle
   retrievable over ``GET /v1/debug/dumps/{id}`` carrying the
   triggering request id.

Exits 0 on success, 1 with a diagnostic on the first failure.  No
arguments; stdlib only::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return json.loads(r.read())


def _get(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=30) as r:
        return r.status, r.read()


def main() -> int:
    from repro import api
    from repro.families.mesh import out_mesh_chain
    from repro.obs import MetricsRegistry, set_global_registry
    from repro.service import SchedulingService

    checks = 0

    def check(cond: bool, what: str) -> None:
        nonlocal checks
        if not cond:
            sys.exit(f"service smoke FAILED: {what}")
        checks += 1
        print(f"  ok: {what}")

    registry = MetricsRegistry()
    old = set_global_registry(registry)
    try:
        with SchedulingService() as svc:
            print(f"service listening on {svc.url}")

            status, body = _get(svc.url + "/healthz")
            check(status == 200 and body.strip() == b"ok",
                  "GET /healthz reports ok")
            status, body = _get(svc.url + "/readyz")
            check(status == 200 and body.strip() == b"ready",
                  "GET /readyz reports ready")

            wire = api.dag_to_dict(out_mesh_chain(4).dag)
            sub = _post(svc.url + "/v1/dags", wire)
            check(sub["how"] == "search" and sub["ic_optimal"],
                  f"POST /v1/dags certified ({sub['certificate']})")
            fp = sub["fingerprint"]

            again = _post(svc.url + "/v1/dags", wire)
            check(again["how"] == "cached" and again["fingerprint"] == fp,
                  "resubmission answered from the registry")

            status, body = _get(svc.url + f"/v1/schedules/{fp}")
            sched = json.loads(body)
            check(status == 200
                  and sched["schedule"]["order"],
                  "GET /v1/schedules/{fp} returns the schedule")

            sim = _post(svc.url + "/v1/simulate",
                        {"fingerprint": fp, "clients": 3, "seed": 0})
            check(sim["completed"] == wire["n"],
                  "POST /v1/simulate by fingerprint completes all tasks")
            sim2 = _post(svc.url + "/v1/simulate",
                         {"dag": wire, "policy": "FIFO", "clients": 2})
            check(sim2["completed"] == wire["n"]
                  and sim2["policy"] == "FIFO",
                  "POST /v1/simulate with inline dag + named policy")

            status, body = _get(svc.url + "/metrics")
            text = body.decode()
            check(status == 200
                  and "service_searches_total" in text
                  and "registry_stores_total" in text,
                  "GET /metrics exposes service counters")

            status, body = _get(svc.url + "/stats")
            stats = json.loads(body)
            svc_stats = stats["service"]
            check(svc_stats["registry"]["entries"] == 1
                  and svc_stats["api_version"] == api.API_VERSION,
                  "GET /stats agrees (1 registry entry, api v1)")

            try:
                _get(svc.url + "/v1/schedules/feedface")
                sys.exit("service smoke FAILED: unknown fingerprint "
                         "did not 404")
            except urllib.error.HTTPError as e:
                check(e.code == 404, "unknown fingerprint answers 404")

            # -- live observatory -------------------------------------
            with urllib.request.urlopen(svc.url + "/ui",
                                        timeout=30) as r:
                html = r.read().decode()
                ctype = r.headers.get("Content-Type", "")
                cache = r.headers.get("Cache-Control", "")
            check(r.status == 200 and ctype.startswith("text/html")
                  and "charset=utf-8" in ctype and cache == "no-store",
                  "GET /ui serves HTML, utf-8, no-store")
            externals = (html.count("https://")
                         + html.count('src="http')
                         + html.count('href="http'))
            check("</html>" in html and externals == 0,
                  "/ui is one self-contained page (no CDN/asset refs)")

            status, body = _get(svc.url + f"/v1/dags/{fp}/frame")
            framedoc = json.loads(body)
            seq_before = framedoc["latest"]
            frame = framedoc["frame"]
            check(status == 200 and seq_before >= 1
                  and frame["done"]
                  and len(frame["executed"]) == wire["n"],
                  f"GET /v1/dags/{{fp}}/frame captured the run "
                  f"(seq {seq_before}, all executed)")
            check(frame["optimal"] is not None,
                  "frames carry the certified M(t) ceiling")

            # another simulation must advance the frame seq — the
            # headless equivalent of the page animating
            _post(svc.url + "/v1/simulate",
                  {"fingerprint": fp, "clients": 2, "seed": 1})
            status, body = _get(svc.url + f"/v1/dags/{fp}/frame")
            seq_after = json.loads(body)["latest"]
            check(seq_after > seq_before,
                  f"frame seq advances across runs "
                  f"({seq_before} -> {seq_after})")

            status, body = _get(
                svc.url + f"/v1/dags/{fp}/frames?since={seq_before}")
            catchup = json.loads(body)
            check(all(f["seq"] > seq_before
                      for f in catchup["frames"])
                  and catchup["frames"],
                  "?since= cursor returns only the new frames")

            with urllib.request.urlopen(
                    svc.url + "/v1/events?timeout=0.5",
                    timeout=30) as r:
                ctype = r.headers.get("Content-Type", "")
                stream = r.read().decode()
            datum = next(ln for ln in stream.splitlines()
                         if ln.startswith("data: "))
            delta = json.loads(datum[len("data: "):])
            check(ctype.startswith("text/event-stream")
                  and delta["seq"] == seq_after
                  and delta["dags"].get(fp) == seq_after,
                  "GET /v1/events delivers a frame-seq delta (SSE)")

            # -- request correlation, SLOs, flight recorder -----------
            rid = "smoke-req-0001"
            req = urllib.request.Request(
                svc.url + "/stats",
                headers={"X-Repro-Request-Id": rid})
            with urllib.request.urlopen(req, timeout=30) as r:
                check(r.headers.get("X-Repro-Request-Id") == rid,
                      "client-supplied request id echoed on response")
            with urllib.request.urlopen(svc.url + "/healthz",
                                        timeout=30) as r:
                minted = r.headers.get("X-Repro-Request-Id")
            check(bool(minted) and minted != rid,
                  "server mints a request id when the client sends "
                  "none")

            status, body = _get(svc.url + "/v1/slo")
            slo = json.loads(body)
            check(status == 200 and slo["ok"] is True
                  and len(slo["objectives"]) >= 4,
                  "GET /v1/slo evaluates the declared objectives "
                  "(all ok)")

            # seed exactly one degradation: fail the primary
            # certification of a fresh dag so the pipeline degrades
            # to its stamped fallback and the flight recorder
            # captures a bundle correlated with our request id
            real_schedule = api.schedule
            drid = "smoke-degraded-0001"

            def failing(target, strategy="auto", **kw):
                if strategy not in ("heuristic", "anytime"):
                    raise RuntimeError(
                        "smoke: seeded certification fault")
                return real_schedule(target, strategy=strategy, **kw)

            wire2 = api.dag_to_dict(out_mesh_chain(5).dag)
            api.schedule = failing
            try:
                req = urllib.request.Request(
                    svc.url + "/v1/dags",
                    data=json.dumps(wire2).encode(),
                    headers={"Content-Type": "application/json",
                             "X-Repro-Request-Id": drid})
                with urllib.request.urlopen(req, timeout=30) as r:
                    degraded = json.loads(r.read())
                    check(r.headers.get("X-Repro-Request-Id") == drid,
                          "request id echoed on the degraded "
                          "submission too")
            finally:
                api.schedule = real_schedule
            check(degraded["how"] == "degraded",
                  "seeded fault degrades the submission "
                  f"({degraded['certificate']})")

            status, body = _get(svc.url + "/v1/debug/dumps")
            index = json.loads(body)
            hits = [d for d in index["dumps"]
                    if d["request_id"] == drid]
            check(len(hits) == 1,
                  "flight recorder holds exactly one dump for the "
                  "degraded request")
            status, body = _get(
                svc.url + "/v1/debug/dumps/" + hits[0]["id"])
            bundle = json.loads(body)
            check(status == 200
                  and bundle["reason"] == "degradation"
                  and bundle["request_id"] == drid
                  and bundle["schema"] == 1,
                  "GET /v1/debug/dumps/{id} returns the correlated "
                  "bundle")
    finally:
        set_global_registry(old)

    print(f"service smoke passed ({checks} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
