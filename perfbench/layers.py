"""Per-layer metrics of a traced run, and the coverage and
reconciliation checks over its spans.

Time metrics are self time per timed operation (``ms/op``); counts
are per timed operation (``1/op``) unless they are window totals
(``count``) or ratios.  Pipeline phases and HTTP overhead come from
the program's own ``service_phase_seconds`` and
``service_request_seconds`` histograms; everything else from the spans
:mod:`spans` records around each layer's public functions.
"""

from __future__ import annotations

import spans as spanlib
from proc import metric_sum

SUBMIT_PHASES = ("admission", "registry", "certify", "coalesce_wait",
                 "journal", "serialize")
SIMULATE_PHASES = ("admission", "queue", "simulate", "serialize")

#: every per-layer metric, in report order: (name, unit).
PER_LAYER = (
    ("http.submit.unattributed_ms", "ms/op"),
    ("http.simulate.unattributed_ms", "ms/op"),
    ("http.self_ms", "ms/op"),
    ("io.dag_from_dict_ms", "ms/op"),
    ("io.dag_to_dict_ms", "ms/op"),
    ("io.calls", "1/op"),
    *((f"pipeline.submit.{p}_ms", "ms/op") for p in SUBMIT_PHASES),
    *((f"pipeline.simulate.{p}_ms", "ms/op") for p in SIMULATE_PHASES),
    ("pipeline.batch_size_mean", "count"),
    ("pipeline.rejected", "count"),
    ("pipeline.degraded", "count"),
    ("registry.put_ms", "ms/op"),
    ("registry.get_ms", "ms/op"),
    ("registry.attach_ms", "ms/op"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("durability.append_ms", "ms/op"),
    ("durability.appends", "1/op"),
    ("durability.bytes_per_submit", "B/op"),
    ("durability.fsyncs", "count"),
    ("durability.snapshot_ms", "ms/op"),
    ("durability.recover_ms", "ms"),
    ("durability.records_applied", "count"),
    ("durability.entries_restored", "count"),
    ("api.schedule_ms", "ms/op"),
    ("api.simulate_ms", "ms/op"),
    ("api.verify_ms", "ms/op"),
    ("api.compare_ms", "ms/op"),
    ("api.simulate.recertify_ms", "ms/op"),
    ("certify.self_ms", "ms/op"),
    ("certify.calls", "1/op"),
    ("certify.library_hit_ratio", "ratio"),
    *((f"certify.kind.{k}", "1/op")
      for k in ("exact", "composed", "anytime", "heuristic")),
    ("recognition.ms", "ms/op"),
    ("recognition.recognized_ratio", "ratio"),
    ("optimality.ms", "ms/op"),
    ("optimality.states_expanded", "1/op"),
    ("composition.ms", "ms/op"),
    ("profile_cache.hit_ratio", "ratio"),
    ("dag.fingerprint_ms", "ms/op"),
    ("sim.simulate_ms.ideal", "ms/op"),
    ("sim.simulate_ms.machine", "ms/op"),
    ("sim.simulate_ms.faults", "ms/op"),
    ("sim.runs", "1/op"),
    ("sim.steps", "1/op"),
    ("machines.supersteps", "1/op"),
    ("machines.stalls", "1/op"),
    ("faults.retries", "1/op"),
    ("faults.timeouts", "1/op"),
    ("faults.speculations", "1/op"),
    ("compare.self_ms", "ms/op"),
    ("observatory.record_ms", "ms/op"),
    ("observatory.frames", "1/op"),
    ("trace.unattributed_ms", "ms/op"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
)

#: span names each workload must fire inside its timed requests — a
#: wrapper on the wrong import site would read as a silent zero.
EXPECTED = {
    "submit-cold": ("http.submit", "io.dag_from_dict", "io.dag_to_dict",
                    "registry.put", "registry.attach", "durability.append",
                    "durability.snapshot", "api.schedule", "certify",
                    "recognition", "optimality", "composition",
                    "dag.fingerprint"),
    "simulate-hot": ("http.simulate", "registry.get", "api.simulate",
                     "api.schedule", "certify", "recognition",
                     "composition", "sim.ideal", "sim.machine",
                     "observatory.record", "dag.fingerprint"),
    "restart-replay": ("http.submit", "io.dag_from_dict", "registry.put",
                       "dag.fingerprint"),
    "library-sweep": ("api.verify", "api.compare", "api.schedule",
                      "certify", "recognition", "optimality",
                      "composition", "compare.policies", "sim.ideal",
                      "sim.machine", "sim.faults", "dag.fingerprint"),
}
#: boot-time span names (outside any request) a workload must fire.
EXPECTED_BOOT = {"restart-replay": ("durability.recover",
                                    "io.dag_from_dict")}

#: largest amount (seconds) one request's span self times may exceed
#: its client-measured time before the trace counts as inconsistent.
OVERRUN_TOLERANCE_S = 0.002

#: per workload: the spans that bound one timed operation inside the
#: program, and the ``service_request_seconds`` route the service's
#: own clock files the same operation under (``None``: in process).
OPERATION_SPANS = {
    "submit-cold": (("http.submit",), "/v1/dags"),
    "simulate-hot": (("http.simulate",), "/v1/simulate"),
    "restart-replay": (("http.submit",), "/v1/dags"),
    "library-sweep": (("api.verify", "api.compare"), None),
}
#: how far the mean operation span may stray from the independent
#: clock's mean: a share of that mean plus a fixed allowance for the
#: wrapper's own bookkeeping, which the clock also sees (about 25 µs
#: per request on a 2-vCPU host; a misplaced wrapper is off by ms).
CLOCK_SHARE = 0.02
CLOCK_SLACK_S = 100e-6
#: operations the two counts may differ by (a request whose
#: accounting straddles a ``/metrics`` scrape).
CLOCK_COUNT_SLACK = 2


def check_clock(workload: str, spans, e2e_by_request: dict,
                latencies: list[float], samples: dict) -> tuple[list, str]:
    """``(problems, summary)``: reconcile the traced operation spans
    with a clock the wrappers do not own.  Service: the timed
    requests' ``http.request`` spans (around
    ``SchedulingService.dispatch``) against the service's own
    ``service_request_seconds`` over the window, which times the same
    call.  Library: the top-level ``api.verify`` / ``api.compare``
    spans against the benchmark's per-call timings around them."""
    names, route = OPERATION_SPANS[workload]
    if route is None:
        roots = {sp[0] for sp in spans if sp[1] == "op"}
        durations = [e - b for _i, n, b, e, parent, _r, _c in spans
                     if n in names and parent in roots]
        clock_n, clock_s = len(latencies), sum(latencies)
        clock = "the benchmark's per-call timings"
    else:
        durations = [e - b for _i, n, b, e, parent, rid, _c in spans
                     if n in names and parent is None
                     and rid in e2e_by_request]
        clock_n = metric_sum(samples, "service_request_seconds_count",
                             route=route)
        clock_s = metric_sum(samples, "service_request_seconds_sum",
                             route=route)
        clock = f"service_request_seconds{{route={route}}}"
    if not durations or not clock_n:
        return [f"reconciliation: no {'/'.join(names)} span or no "
                f"{clock} sample to reconcile"], ""
    problems = []
    if abs(len(durations) - clock_n) > CLOCK_COUNT_SLACK:
        problems.append(f"reconciliation: {len(durations)} "
                        f"{'/'.join(names)} spans against {clock_n:g} "
                        f"operations on {clock}")
    span_mean = sum(durations) / len(durations)
    clock_mean = clock_s / clock_n
    if abs(span_mean - clock_mean) > CLOCK_SHARE * clock_mean + \
            CLOCK_SLACK_S:
        problems.append(f"reconciliation: {'/'.join(names)} spans average "
                        f"{1e3 * span_mean:.4f} ms against "
                        f"{1e3 * clock_mean:.4f} ms on {clock}")
    summary = (f"{len(durations)} {'/'.join(names)} spans, mean "
               f"{1e3 * span_mean:.4f} ms; {clock_n:g} operations on "
               f"{clock}, mean {1e3 * clock_mean:.4f} ms")
    return problems, summary


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(workload: str, traced, untraced_p50: float,
            traced_p50: float) -> tuple[dict, list[str], dict]:
    """``(metrics, problems, table)`` for one traced run."""
    table = spanlib.self_table(traced.spans, traced.e2e_by_request)
    rows = table["rows"]
    ops = max(1, traced.attempted)
    s = traced.samples
    problems = []

    def ms(*names) -> float:
        return 1e3 * sum(rows.get(n, {}).get("self_s", 0.0)
                         for n in names) / ops

    def calls(*names) -> int:
        return sum(rows.get(n, {}).get("calls", 0) for n in names)

    def count(key: str) -> float:
        return table["counts"].get(key, 0.0)

    def tel(name, **labels) -> float:
        return metric_sum(s, name, **labels)

    def http_unattributed(route, phases) -> float:
        n = tel("service_request_seconds_count", route=route)
        total = tel("service_request_seconds_sum", route=route)
        parts = sum(tel("service_phase_seconds_sum", route=route, phase=p)
                    for p in phases)
        return 1e3 * _ratio(total - parts, n)

    def phase(route, p) -> float:
        n = tel("service_request_seconds_count", route=route)
        return 1e3 * _ratio(
            tel("service_phase_seconds_sum", route=route, phase=p), n)

    by_id = {sp[0]: sp for sp in traced.spans}
    recertify = sum(
        e - b for _i, name, b, e, parent, rid, _c in traced.spans
        if name == "api.schedule" and rid in traced.e2e_by_request
        and parent in by_id and by_id[parent][1] == "api.simulate")
    boot = [sp for sp in traced.spans if sp[5] is None]
    recover = sum(e - b for _i, name, b, e, *_ in boot
                  if name == "durability.recover")
    sims = ("sim.ideal", "sim.machine", "sim.faults")
    appends = tel("journal_appends_total")
    m = {
        "http.submit.unattributed_ms":
            http_unattributed("/v1/dags", SUBMIT_PHASES),
        "http.simulate.unattributed_ms":
            http_unattributed("/v1/simulate", SIMULATE_PHASES),
        "http.self_ms": ms("http.submit", "http.simulate", "http.other"),
        "io.dag_from_dict_ms": ms("io.dag_from_dict"),
        "io.dag_to_dict_ms": ms("io.dag_to_dict"),
        "io.calls": calls("io.dag_from_dict", "io.dag_to_dict") / ops,
        **{f"pipeline.submit.{p}_ms": phase("/v1/dags", p)
           for p in SUBMIT_PHASES},
        **{f"pipeline.simulate.{p}_ms": phase("/v1/simulate", p)
           for p in SIMULATE_PHASES},
        "pipeline.batch_size_mean": _ratio(
            tel("service_batched_requests_total"),
            tel("service_batches_total")),
        "pipeline.rejected": tel("service_rejected_total"),
        "pipeline.degraded": tel("service_degraded_total"),
        "registry.put_ms": ms("registry.put"),
        "registry.get_ms": ms("registry.get"),
        "registry.attach_ms": ms("registry.attach"),
        "registry.hit_ratio": _ratio(
            tel("registry_lookups_total", result="hit"),
            tel("registry_lookups_total")),
        "registry.evictions": tel("registry_evictions_total"),
        "durability.append_ms": ms("durability.append"),
        "durability.appends": appends / ops,
        "durability.bytes_per_submit":
            count("durability.append.bytes") / ops,
        "durability.fsyncs": tel("journal_fsyncs_total"),
        "durability.snapshot_ms": ms("durability.snapshot"),
        "durability.recover_ms": 1e3 * recover,
        "durability.records_applied":
            traced.info.get("records_applied", 0.0),
        "durability.entries_restored":
            traced.info.get("entries_restored", 0.0),
        "api.schedule_ms": ms("api.schedule"),
        "api.simulate_ms": ms("api.simulate"),
        "api.verify_ms": ms("api.verify"),
        "api.compare_ms": ms("api.compare"),
        "api.simulate.recertify_ms": 1e3 * recertify / ops,
        "certify.self_ms": ms("certify"),
        "certify.calls": calls("certify") / ops,
        "certify.library_hit_ratio": _ratio(
            tel("certify_block_cache_lookups_total", result="hit"),
            tel("certify_block_cache_lookups_total", result="hit")
            + tel("certify_block_cache_lookups_total", result="miss")),
        **{f"certify.kind.{k}": count(f"certify.kind.{k}") / ops
           for k in ("exact", "composed", "anytime", "heuristic")},
        "recognition.ms": ms("recognition"),
        "recognition.recognized_ratio": _ratio(
            count("recognition.recognized"), calls("recognition")),
        "optimality.ms": ms("optimality"),
        "optimality.states_expanded":
            tel("search_states_expanded_total") / ops,
        "composition.ms": ms("composition"),
        "profile_cache.hit_ratio": _ratio(
            tel("profile_cache_lookups_total", result="hit"),
            tel("profile_cache_lookups_total")),
        "dag.fingerprint_ms": ms("dag.fingerprint"),
        "sim.simulate_ms.ideal": ms("sim.ideal"),
        "sim.simulate_ms.machine": ms("sim.machine"),
        "sim.simulate_ms.faults": ms("sim.faults"),
        "sim.runs": calls(*sims) / ops,
        "sim.steps": tel("sim_steps_total") / ops,
        "machines.supersteps":
            sum(count(f"{n}.supersteps") for n in sims) / ops,
        "machines.stalls": sum(count(f"{n}.stalls") for n in sims) / ops,
        "faults.retries": tel("sim_retries_total") / ops,
        "faults.timeouts": tel("sim_timeouts_total") / ops,
        "faults.speculations": tel("sim_speculations_total") / ops,
        "compare.self_ms": ms("compare.policies"),
        "observatory.record_ms": ms("observatory.record"),
        "observatory.frames": tel("obs_frames_captured_total") / ops,
        # the in-process root span is the benchmark's own boundary:
        # its self time is time no layer span covers
        "trace.unattributed_ms":
            1e3 * (table["unattributed_s"]
                   + rows.get("op", {}).get("self_s", 0.0)) / ops,
        "trace.overhead_pct":
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "error_rate": _ratio(traced.failed, traced.attempted),
    }

    # -- coverage: every wrapper the workload must exercise fired
    for name in EXPECTED[workload]:
        if not calls(name):
            problems.append(f"coverage: {name} never fired")
    boot_names = {sp[1] for sp in boot}
    for name in EXPECTED_BOOT.get(workload, ()):
        if name not in boot_names:
            problems.append(f"coverage: {name} never fired at boot")
    # -- reconciliation.  Self times plus trace.unattributed sum to the
    # end-to-end time by construction (unattributed is the remainder),
    # so the checks that can fail are against clocks the spans do not
    # define: the client's per-request time, and the program's own
    # (or the benchmark's per-call) operation timings.
    clock_problems, table["clock"] = check_clock(
        workload, traced.spans, traced.e2e_by_request, traced.latencies, s)
    problems += clock_problems
    if table["worst_overrun_s"] > OVERRUN_TOLERANCE_S:
        problems.append(f"reconciliation: spans exceed a request's "
                        f"end-to-end time by "
                        f"{1e3 * table['worst_overrun_s']:.3f} ms")
    missing = set(traced.e2e_by_request) - {sp[5] for sp in traced.spans}
    if missing:
        problems.append(f"reconciliation: {len(missing)} timed requests "
                        f"left no span")
    return m, problems, table


def render_table(table: dict, ops: int) -> list[str]:
    """The self-time table, heaviest first, unattributed row last."""
    rows = sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_s"])
    e2e = table["e2e_s"] or 1.0
    lines = [f"{'span':<22}{'calls/op':>10}{'self ms/op':>12}{'share':>8}"]
    for name, r in rows:
        lines.append(f"{name:<22}{r['calls'] / ops:>10.2f}"
                     f"{1e3 * r['self_s'] / ops:>12.4f}"
                     f"{100 * r['self_s'] / e2e:>7.1f}%")
    un = table["unattributed_s"]
    lines.append(f"{'trace.unattributed':<22}{'':>10}"
                 f"{1e3 * un / ops:>12.4f}{100 * un / e2e:>7.1f}%")
    lines.append(f"reconciliation: {table.get('clock', '')}")
    return lines
