"""The live in-terminal dashboard behind ``repro watch``.

Polls an :class:`~repro.obs.server.ObsServer`'s ``/stats`` endpoint
and renders the registry snapshot as refreshing tables: the
simulation's per-step series (eligible / allocatable / completed
gauges), the per-policy quality series (makespan, utilization,
starvation, mean headroom — the heuristic-vs-IC-optimal comparison,
live), and the search/cache/scheduler counters.  Zero dependencies:
``urllib`` for the poll, ANSI clear-screen for the refresh.

The renderer is a pure function of the ``/stats`` JSON
(:func:`render_dashboard`), so it is golden-testable without a
network; :func:`watch` adds the poll-render-sleep loop.  Snapshot
decoding (values, labeled series, number formatting) comes from
:mod:`repro.obs.exposition`, the same helper the servers encode with.

:func:`fetch_stats` and :func:`fetch_traces` retry reset connections
through the shared bounded-backoff helper (:mod:`repro.retry` —
servers restart; one refused poll should not kill a ``watch``
session), and :func:`fetch_traces` follows the ``/traces?since=``
cursor so repeated polls ship only new records instead of the full
ring buffer.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

from ..retry import retry_call
from .exposition import format_number as _fmt
from .exposition import snapshot_series as _series
from .exposition import snapshot_value as _value

__all__ = ["fetch_stats", "fetch_traces", "render_dashboard", "watch"]

#: ANSI: clear screen + cursor home (the refresh between frames).
_CLEAR = "\x1b[2J\x1b[H"


def _is_reset(exc: BaseException) -> bool:
    """A connection reset, bare or wrapped in a ``URLError``."""
    return isinstance(exc, ConnectionResetError) or isinstance(
        getattr(exc, "reason", None), ConnectionResetError
    )


def fetch_stats(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/stats`` and parse the JSON payload.

    ``url`` is the server root (e.g. ``http://127.0.0.1:9100``); a
    trailing slash or an explicit ``/stats`` suffix are both accepted.
    A connection reset mid-poll (server restarting, listener cycling)
    is retried with a short jittered backoff before the error
    propagates.
    """
    base = url.rstrip("/")
    if not base.endswith("/stats"):
        base += "/stats"

    def poll() -> dict:
        with urllib.request.urlopen(base, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))

    return retry_call(
        poll, attempts=2, base_delay=0.05,
        retry_on=(ConnectionResetError, urllib.error.URLError),
        should_retry=_is_reset,
    )


def fetch_traces(url: str, since: int = 0,
                 timeout: float = 5.0) -> tuple[list[dict], int]:
    """GET ``<url>/traces?since=<seq>``: the trace records appended
    after cursor ``since``, plus the new cursor.

    Returns ``(records, latest_seq)`` where ``latest_seq`` comes from
    the server's ``X-Repro-Trace-Seq`` header (falling back to
    ``since + len(records)`` for older servers).  Feed ``latest_seq``
    back as ``since`` on the next poll so repeated scrapes ship only
    the delta, not the whole ring buffer.  Reset connections retry
    like :func:`fetch_stats`.
    """
    base = url.rstrip("/")
    if not base.endswith("/traces"):
        base += "/traces"
    sep = "&" if "?" in base else "?"

    def poll() -> tuple[list[dict], int]:
        with urllib.request.urlopen(
            f"{base}{sep}since={int(since)}", timeout=timeout
        ) as resp:
            body = resp.read().decode("utf-8")
            header = resp.headers.get("X-Repro-Trace-Seq")
        records = [json.loads(line) for line in body.splitlines() if line]
        latest = (int(header) if header is not None
                  else since + len(records))
        return records, latest

    return retry_call(
        poll, attempts=2, base_delay=0.05,
        retry_on=(ConnectionResetError, urllib.error.URLError),
        should_retry=_is_reset,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _histogram_totals(metric: dict) -> tuple[int, float]:
    """``(count, sum)`` for a histogram snapshot entry, labeled
    children summed."""
    leaves = (
        [e["value"] for e in metric["series"]]
        if "series" in metric
        else [metric.get("value", {})]
    )
    count = sum(int(v.get("count", 0)) for v in leaves)
    total = sum(float(v.get("sum", 0.0)) for v in leaves)
    return count, total


def render_dashboard(stats: dict) -> str:
    """Render one ``/stats`` payload as the dashboard text frame.

    Tolerates sparse payloads: an empty registry snapshot, a missing
    ``service`` section, and histograms with zero observations all
    render (with zeros / omitted tables) rather than raising.
    """
    from ..analysis import render_table

    metrics = stats.get("metrics", {})
    tracer = stats.get("tracer", {})
    sections: list[str] = []

    up = stats.get("uptime_seconds", 0.0)
    sections.append(
        f"repro observability — server up {up:.1f}s, "
        f"{'ready' if stats.get('ready', True) else 'NOT READY'}; "
        f"tracer {'on' if tracer.get('enabled') else 'off'} "
        f"({tracer.get('retained', 0)} records, "
        f"{tracer.get('dropped', 0)} dropped)"
    )

    # -- live simulation series ---------------------------------------
    sim_rows = [
        ("eligible now", _fmt(_value(metrics, "sim_eligible"))),
        ("allocatable now", _fmt(_value(metrics, "sim_allocatable"))),
        ("completed now", _fmt(_value(metrics, "sim_completed"))),
        ("steps", _fmt(_value(metrics, "sim_steps_total"))),
        ("allocations", _fmt(_value(metrics, "sim_allocations_total"))),
        ("completions", _fmt(_value(metrics, "sim_completions_total"))),
        ("losses", _fmt(_value(metrics, "sim_losses_total"))),
        ("starvation", _fmt(_value(metrics, "sim_starvation_total"))),
    ]
    sections.append(render_table(["simulation", "value"], sim_rows))

    # -- per-policy quality series ------------------------------------
    runs = _series(metrics, "sim_runs_total")
    if runs:
        mk = _series(metrics, "sim_quality_makespan")
        ut = _series(metrics, "sim_quality_utilization")
        st = _series(metrics, "sim_quality_starvation")
        hr = _series(metrics, "sim_quality_mean_headroom")
        rows = [
            (
                policy[0],
                _fmt(runs[policy]),
                _fmt(mk.get(policy, 0.0)),
                _fmt(ut.get(policy, 0.0)),
                _fmt(st.get(policy, 0)),
                _fmt(hr.get(policy, 0.0)),
            )
            for policy in sorted(runs)
        ]
        sections.append(
            render_table(
                ["policy", "runs", "makespan", "util", "starv",
                 "headroom"],
                rows,
                title="latest per-policy quality",
            )
        )

    # -- search / cache / scheduler -----------------------------------
    search_rows = []
    for (mode,), count in sorted(
        _series(metrics, "search_profile_total").items()
    ):
        search_rows.append((f"searches ({mode})", _fmt(count)))
    search_rows += [
        ("states expanded",
         _fmt(_value(metrics, "search_states_expanded_total"))),
        ("frontier peak", _fmt(_value(metrics, "search_frontier_peak"))),
        ("cache lookups",
         _fmt(_value(metrics, "profile_cache_lookups_total"))),
        ("scheduler requests",
         _fmt(_value(metrics, "scheduler_requests_total"))),
    ]
    sections.append(render_table(["search/cache", "value"], search_rows))

    # -- call-latency histograms (zero-observation safe) --------------
    lat_rows = []
    for name in sorted(metrics):
        metric = metrics[name]
        if not isinstance(metric, dict) or metric.get("type") != "histogram":
            continue
        count, total = _histogram_totals(metric)
        mean = total / count if count else 0.0
        lat_rows.append(
            (name, _fmt(count), _fmt(total), _fmt(mean) if count else "-")
        )
    if lat_rows:
        sections.append(
            render_table(["histogram", "count", "sum", "mean"], lat_rows)
        )

    # -- service-level objectives (evaluated on the snapshot) ---------
    from .slo import evaluate

    slo_rows = [
        (
            r["name"],
            "ok" if r["ok"] else "VIOLATED",
            _fmt(r["value"]),
            _fmt(r["threshold"]),
            r["detail"],
        )
        for r in evaluate(metrics)
    ]
    sections.append(
        render_table(["slo", "state", "value", "budget", "detail"],
                     slo_rows)
    )

    # -- scheduling-service section (when serving one) ----------------
    service = stats.get("service")
    if isinstance(service, dict):
        reg = service.get("registry") or {}
        pipe = service.get("pipeline") or {}
        svc_rows = [
            ("api version", str(service.get("api_version", "?"))),
            ("registry entries", _fmt(reg.get("entries", 0))),
            ("registry shards", _fmt(reg.get("shards", 0))),
            ("certified", _fmt(reg.get("certified", 0))),
            ("largest shard", _fmt(reg.get("largest_shard", 0))),
            ("max inflight", _fmt(pipe.get("max_inflight", 0))),
            ("strategy", str(pipe.get("strategy", "?"))),
        ]
        sections.append(render_table(["service", "value"], svc_rows))
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# the watch loop
# ----------------------------------------------------------------------


def watch(
    url: str,
    interval: float = 2.0,
    count: int | None = None,
    clear: bool = True,
    out=None,
) -> int:
    """Poll ``url`` and render the dashboard every ``interval`` seconds.

    ``count`` bounds the number of frames (``None`` = until
    interrupted); ``clear`` uses ANSI clear-screen between frames (off
    for piped output).  A poll that fails (server not up yet, or gone)
    renders a waiting notice instead of aborting, so ``repro watch``
    can be started before the workload.  Returns a process exit code.
    """
    out = out if out is not None else sys.stdout
    frame = 0
    try:
        while count is None or frame < count:
            if frame:
                time.sleep(interval)
            frame += 1
            try:
                body = render_dashboard(fetch_stats(url))
            except (urllib.error.URLError, OSError, ValueError) as e:
                body = f"waiting for {url} ... ({e})"
            if clear:
                out.write(_CLEAR)
            out.write(body + "\n")
            out.flush()
    except KeyboardInterrupt:
        pass
    return 0
