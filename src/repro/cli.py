"""Command-line interface.

::

    python -m repro families
    python -m repro schedule mesh 6
    python -m repro schedule diamond 3 --show-dag
    python -m repro verify prefix 4
    python -m repro verify N8 --metrics json
    python -m repro simulate butterfly 4 --clients 8 --seed 1
    python -m repro simulate mesh 4 --trace /tmp/trace.jsonl
    python -m repro priority N4 L
    python -m repro batch mesh 4 --capacity 3
    python -m repro stats --format prom
    python -m repro serve --port 8080
    python -m repro serve --port 8080 --data-dir var/repro --fsync always
    python -m repro journal stat --data-dir var/repro
    python -m repro serve-metrics --port 9100
    python -m repro watch --url http://127.0.0.1:9100
    python -m repro observe --url http://127.0.0.1:8080
    python -m repro slo --url http://127.0.0.1:8080
    python -m repro debug dump --url http://127.0.0.1:8080
    python -m repro observe --snapshot docs/observatory.svg

Every operational verb goes through the stable :mod:`repro.api`
facade (``api.schedule`` / ``api.verify`` / ``api.compare`` /
``api.batch`` / ``api.priority``); the CLI adds only construction
(families, blocks), rendering, and the observability flags.  ``repro
serve`` runs the scheduling service of :mod:`repro.service`
(``docs/SERVICE.md``).

``schedule``, ``verify``, and ``simulate`` accept the observability
flags ``--metrics {json,prom}`` (dump the process metrics registry
after the command), ``--trace FILE`` (enable structured tracing and
export the JSONL trace to FILE), and ``--serve-metrics PORT`` (serve
the HTTP exposition endpoints for the duration of the command);
``repro stats`` prints the registry on its own, ``repro
serve-metrics`` runs the exposition service standalone, ``repro
watch`` renders a live dashboard from a served ``/stats`` endpoint,
and ``repro observe`` points a browser at a server's live
observatory page (``/ui``) — or, with ``--snapshot FILE``, dumps one
rendered SVG schedule frame headlessly (for CI and docs).  ``repro
slo`` evaluates a running server's service-level objectives
(``/v1/slo``; exit code doubles as a health gate) and ``repro debug
dump`` lists or fetches the degradation flight recorder's bundles
(``/v1/debug/dumps``).  See ``docs/OBSERVABILITY.md``.

Family names: ``diamond DEPTH``, ``mesh DEPTH``, ``in-mesh DEPTH``,
``butterfly DIM``, ``prefix WIDTH``, ``dlt WIDTH``, ``dlt-tree WIDTH``,
``matmul`` (no parameter), ``out-tree DEPTH``, ``in-tree DEPTH``,
``paths K``.  Block names for ``priority``: V, V3, L (Λ), W4, M3, N8,
C4, B, ...
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Sequence

from . import api
from .analysis import render_series, render_table
from .analysis.ascii_dag import render_dag
from .blocks import block

__all__ = ["main", "build_family"]

FAMILY_HELP = {
    "diamond": "complete binary diamond of the given depth (Fig. 2)",
    "mesh": "out-mesh of the given depth (Fig. 5)",
    "in-mesh": "in-mesh / pyramid of the given depth (Fig. 5)",
    "butterfly": "butterfly network B_d (Figs. 8-10)",
    "prefix": "parallel-prefix dag P_n (Fig. 11)",
    "dlt": "DLT dag L_n = P_n ⇑ T_n (Fig. 13)",
    "dlt-tree": "ternary-tree DLT dag L'_n (Fig. 15)",
    "matmul": "matrix-multiplication dag M (Fig. 17; no parameter)",
    "out-tree": "complete binary out-tree of the given depth",
    "in-tree": "complete binary in-tree of the given depth",
    "paths": "graph-paths dag for K powers (Fig. 16)",
    "sorting": "bitonic sorting network on n wires (§5.2)",
}


def build_family(name: str, param: int | None):
    """Construct the named family chain (CLI surface of
    :mod:`repro.families`)."""
    from .families import (
        butterfly_net,
        diamond,
        dlt,
        matmul_dag,
        mesh,
        paths,
        prefix,
        trees,
    )

    def sorting():
        # repro.compute imports numpy: load it only for this family
        from .compute.sorting import sorting_network_chain

        return sorting_network_chain(param)

    need_param = name != "matmul"
    if need_param and param is None:
        raise SystemExit(f"family {name!r} needs a size parameter")
    builders = {
        "diamond": lambda: diamond.complete_diamond(param),
        "mesh": lambda: mesh.out_mesh_chain(param),
        "in-mesh": lambda: mesh.in_mesh_chain(param),
        "butterfly": lambda: butterfly_net.butterfly_chain(param),
        "prefix": lambda: prefix.prefix_chain(param),
        "dlt": lambda: dlt.dlt_prefix_chain(param),
        "dlt-tree": lambda: dlt.dlt_tree_chain(param),
        "matmul": matmul_dag.matmul_chain,
        "out-tree": lambda: trees.complete_out_tree(param),
        "in-tree": lambda: trees.complete_in_tree(param),
        "paths": lambda: paths.graph_paths_chain(param),
        "sorting": sorting,
    }
    if name not in builders:
        raise SystemExit(
            f"unknown family {name!r}; known: {', '.join(sorted(builders))}"
        )
    return builders[name]()


def _parse_block(spec: str):
    m = re.fullmatch(r"([A-Za-zΛ]+?)(\d+)?", spec)
    if not m:
        raise SystemExit(f"bad block spec {spec!r} (try V, L, W4, N8, C4, B)")
    kind, num = m.group(1), m.group(2)
    return block(kind, int(num) if num else None)


def cmd_families(_args) -> int:
    rows = sorted(FAMILY_HELP.items())
    print(render_table(["family", "description"], rows))
    return 0


def cmd_schedule(args) -> int:
    chain = build_family(args.family, args.param)
    result = api.schedule(
        chain, strategy=args.strategy, budget=args.budget,
        cache=not args.no_cache,
    )
    print(chain.dag.summary())
    print("composite type:", chain.type_string())
    print(f"certificate: {result.certificate} (kind={result.kind}, "
          f"strategy={result.strategy})")
    if result.bounds is not None:
        lo, hi = result.bounds
        print(f"loss bounds: [{lo}, {hi}]")
    for name, fingerprint, source in result.provenance:
        print(f"  block {name}: {source} ({fingerprint[:12]})")
    print(render_series("E(t)", result.profile, max_items=40))
    if args.show_dag:
        print(render_dag(chain.dag))
    return 0


def cmd_verify(args) -> int:
    target = _family_or_block(args.family, args.param)
    result = api.verify(
        target, strategy=args.strategy, budget=args.budget,
        cache=not args.no_cache,
    )
    print(f"certificate: {result.certificate} (kind={result.kind}, "
          f"strategy={result.strategy})")
    print(
        f"exhaustive check: ratio={result.ratio:.3f} "
        f"deficit={result.deficit} ic_optimal={result.ic_optimal}"
    )
    # process-lifetime search/cache totals, read from the metrics
    # registry (the library records them there; docs/OBSERVABILITY.md)
    from .obs import global_registry
    from .obs.exposition import snapshot_series, snapshot_value

    snap = global_registry().snapshot()
    print(
        f"search: states_expanded="
        f"{int(snapshot_value(snap, 'search_states_expanded_total'))} "
        f"frontier_peak="
        f"{int(snapshot_value(snap, 'search_frontier_peak'))}"
    )
    lookups = snapshot_series(snap, "profile_cache_lookups_total")
    hits = sum(v for k, v in lookups.items() if k[-1] == "hit")
    misses = sum(v for k, v in lookups.items() if k[-1] == "miss")
    total = hits + misses
    print(
        f"cache: hits={int(hits)} misses={int(misses)} "
        f"evictions="
        f"{int(snapshot_value(snap, 'profile_cache_evictions_total'))} "
        f"hit_rate={hits / total if total else 0.0:.3f}"
    )
    return 0 if result.ic_optimal else 1


def _family_or_block(name: str, param: int | None):
    """A family chain, or — when ``name`` is no known family but parses
    as a block spec (V, L, W4, N8, C4, B, ...) — the catalog block's
    dag, so ``repro verify N8`` certifies a single block."""
    if name in FAMILY_HELP:
        return build_family(name, param)
    try:
        dag, _sched = _parse_block(name)
    except (SystemExit, KeyError):
        raise SystemExit(
            f"unknown family or block {name!r}; "
            "try `repro families` or a block spec like N8"
        ) from None
    return dag


def cmd_simulate(args) -> int:
    from .exceptions import SimulationError

    chain = build_family(args.family, args.param)
    clients = [
        api.ClientSpec(speed=s, dropout=args.dropout)
        for s in ([1.0] * args.clients if not args.hetero else
                  [0.5, 1.0, 2.0, 4.0] * ((args.clients + 3) // 4))
    ][: args.clients]
    fault_plan = None
    server_policy = None
    machine = api.MachineSpec()
    try:
        if args.faults:
            fault_plan = api.FaultPlan.parse(args.faults,
                                             n_clients=args.clients)
        if args.server_policy is not None:
            server_policy = api.ServerPolicy.parse(args.server_policy)
        elif fault_plan is not None:
            server_policy = api.ServerPolicy()
        if args.machine is not None:
            machine = api.MachineSpec.parse(args.machine)
    except SimulationError as exc:
        raise SystemExit(f"error: {exc}") from None
    result = api.compare(
        chain, clients=clients, seed=args.seed,
        server_policy=server_policy, fault_plan=fault_plan,
        machine=machine,
    )
    title = f"{chain.dag.name}: {args.clients} clients (seed {args.seed})"
    if fault_plan is not None:
        title += f", faults: {fault_plan.name}"
    if machine.kind != "ideal":
        title += f", machine: {machine}"
    print(
        render_table(
            ["policy", "makespan", "starvation", "idle", "util",
             "headroom", "seed"],
            result.rows,
            title=title,
        )
    )
    if machine.kind != "ideal":
        rows = [
            (
                name,
                r.machine_report.supersteps,
                round(r.machine_report.barrier_cost, 3),
                r.machine_report.placement_stalls,
                r.machine_report.spills,
                r.machine_report.peak_memory,
                round(r.machine_report.duration_max_factor, 3),
            )
            for name, r in result.comparison.results.items()
            if r.machine_report is not None
        ]
        print()
        print(
            render_table(
                ["policy", "supersteps", "barrier-cost", "stalls",
                 "spills", "peak-mem", "max-slowdown"],
                rows,
                title=f"machine report ({machine})",
            )
        )
    if server_policy is not None:
        rows = [
            (
                name,
                r.fault_report.retries,
                r.fault_report.timeouts_fired,
                r.fault_report.speculative_wins,
                round(r.fault_report.wasted_replica_time, 3),
                len(r.fault_report.quarantined_clients),
                r.completed,
            )
            for name, r in result.comparison.results.items()
            if r.fault_report is not None
        ]
        print()
        print(
            render_table(
                ["policy", "retries", "timeouts", "spec-wins",
                 "replica-waste", "quarantined", "completed"],
                rows,
                title="fault report",
            )
        )
    return 0


def cmd_priority(args) -> int:
    g1, s1 = _parse_block(args.block1)
    g2, s2 = _parse_block(args.block2)
    rel = api.priority(g1, g2, left_schedule=s1, right_schedule=s2)
    print(f"{rel.left} ▷ {rel.right}: {rel.forward}")
    print(f"{rel.right} ▷ {rel.left}: {rel.backward}")
    return 0


def cmd_batch(args) -> int:
    chain = build_family(args.family, args.param)
    result = api.batch(chain, capacity=args.capacity)
    rows = []
    for name, rounds, util in result.rows:
        if name == "levels":
            rows.append(("levels (cap ∞)", rounds, "-"))
        else:
            rows.append((name, rounds, f"{util:.3f}"))
    print(
        render_table(
            ["batcher", "rounds", "utilization"],
            rows,
            title=f"{result.dag_name}, capacity {args.capacity} "
                  f"(lower bound {result.lower_bound})",
        )
    )
    return 0


def cmd_stats(args) -> int:
    from .obs import global_registry

    reg = global_registry()
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        print(reg.to_json(indent=2))
    elif fmt == "prom":
        print(reg.to_prometheus(), end="")
    else:
        snap = reg.snapshot()
        if not snap:
            print("(no metrics recorded in this process yet)")
            return 0
        rows = []
        for name, m in snap.items():
            if "series" in m:
                for s in m["series"]:
                    labels = ",".join(
                        f"{k}={v}" for k, v in s["labels"].items()
                    )
                    rows.append((name, m["type"], labels,
                                 _stat_value(s["value"])))
            else:
                rows.append((name, m["type"], "-", _stat_value(m["value"])))
        print(render_table(["metric", "type", "labels", "value"], rows))
    if getattr(args, "reset", False):
        reg.reset()
    return 0


def _stat_value(v) -> str:
    """Render a snapshot value; histograms show count/mean."""
    if isinstance(v, dict):
        count = v.get("count", 0)
        mean = v.get("sum", 0.0) / count if count else 0.0
        return f"n={count} mean={mean:.6f}s"
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def cmd_serve_metrics(args) -> int:
    import time

    from .obs import ObsServer

    with ObsServer(host=args.host, port=args.port) as srv:
        print(
            f"serving observability endpoints on {srv.url} "
            "(/metrics /stats /healthz /readyz /traces); Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


#: ``repro serve`` exit code when the listener cannot bind (port
#: already in use / permission denied) — distinct from crashes so
#: supervisors and the chaos harness can tell "misconfigured" apart
#: from "broken".
SERVE_EXIT_BIND = 2


def cmd_serve(args) -> int:
    import errno
    import signal
    import threading

    from .service import PipelineConfig, SchedulingService

    cfg = PipelineConfig(
        max_inflight=args.max_inflight,
        exhaustive_limit=args.exhaustive_limit,
        state_budget=args.state_budget,
        strategy=args.strategy,
        budget=args.budget,
    )
    svc = SchedulingService(
        host=args.host, port=args.port, pipeline_config=cfg,
        frames=not args.no_frames,
        access_log=args.access_log,
        dump_dir=args.dump_dir,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    try:
        svc.start()
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            print(
                f"error: cannot listen on {args.host}:{args.port}: "
                f"{exc.strerror or exc} — is another service already "
                f"bound there?  (pick a different --port, or stop the "
                f"other process)",
                file=sys.stderr,
            )
            return SERVE_EXIT_BIND
        raise
    # drain-on-signal: SIGTERM (systemd/k8s stop) and SIGINT (Ctrl-C)
    # both finish in-flight requests, flush+snapshot the journal, and
    # exit 0 — a supervised restart must look like a clean deploy
    stop = threading.Event()

    def _drain(signum, _frame):
        print(f"repro serve: received "
              f"{signal.Signals(signum).name}, draining",
              file=sys.stderr)
        stop.set()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        banner = (
            f"scheduling service on {svc.url} "
            "(POST /v1/dags, GET /v1/schedules/{fp}, POST /v1/simulate, "
            "/healthz /readyz /metrics /stats); "
            f"live observatory at {svc.url}/ui; Ctrl-C to stop"
        )
        if svc.durability is not None and svc.recovery is not None:
            rec = svc.recovery
            banner += (
                f"\ndurable state in {args.data_dir} (fsync="
                f"{args.fsync}): recovered {rec.entries_restored} "
                f"entries ({rec.certified_restored} certified) in "
                f"{rec.seconds:.3f}s"
            )
            if rec.anomalies:
                banner += "; anomalies: " + "; ".join(rec.anomalies)
        print(banner, file=sys.stderr)
        stop.wait(args.duration)  # duration=None waits forever
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        svc.stop()
    return 0


def cmd_journal(args) -> int:
    """``repro journal {stat,verify,compact}``: offline tools for a
    service data dir (``docs/SERVICE.md``).

    ``stat`` summarizes the journal and snapshots read-only;
    ``verify`` replays everything through full validation (checksums,
    schedule re-execution, profile equality) without modifying disk —
    exit 1 when anything is corrupt; ``compact`` replays then writes
    a fresh snapshot and truncates the journal.
    """
    import os
    from collections import Counter

    from .service.durability import (
        JOURNAL_FILE,
        SNAPSHOT_FILE,
        SNAPSHOT_PREV_FILE,
        DurabilityManager,
        scan_journal,
    )

    data_dir = args.data_dir
    if not os.path.isdir(data_dir):
        raise SystemExit(f"no such data dir: {data_dir!r}")

    if args.action == "stat":
        scan = scan_journal(os.path.join(data_dir, JOURNAL_FILE))
        by_type = Counter(str(r.get("type", "?")) for r in scan.records)
        seqs = [r["seq"] for r in scan.records
                if isinstance(r.get("seq"), int)]
        rows = [
            ("journal records", str(len(scan.records))),
            ("journal bytes (valid prefix)", str(scan.good_bytes)),
            ("journal bytes (torn tail)", str(scan.torn_bytes)),
            ("seq range",
             f"{min(seqs)}..{max(seqs)}" if seqs else "-"),
        ]
        rows += [(f"records: {t}", str(n))
                 for t, n in sorted(by_type.items())]
        for fname in (SNAPSHOT_FILE, SNAPSHOT_PREV_FILE):
            path = os.path.join(data_dir, fname)
            rows.append((
                fname,
                f"{os.path.getsize(path)} bytes"
                if os.path.exists(path) else "absent",
            ))
        print(render_table(["journal", "value"], rows,
                           title=f"data dir: {data_dir}"))
        return 0

    mgr = DurabilityManager(data_dir)
    if args.action == "verify":
        report = mgr.recover(truncate=False)
        rows = [(k, str(v)) for k, v in report.to_dict().items()
                if k != "anomalies"]
        print(render_table(["recovery", "value"], rows,
                           title=f"data dir: {data_dir}"))
        if report.anomalies:
            for issue in report.anomalies:
                print(f"journal verify: {issue}", file=sys.stderr)
            return 1
        print("journal verify: clean")
        return 0

    # compact: replay (repairing any torn tail), snapshot, truncate
    report = mgr.recover()
    if not mgr.snapshot_now():
        print(f"journal compact failed: {mgr.last_error}",
              file=sys.stderr)
        return 1
    stats = mgr.stats()
    print(
        f"journal compact: {report.entries_restored} entries "
        f"({report.certified_restored} certified) -> "
        f"{stats['snapshot_bytes']} byte snapshot, journal reset to "
        f"{stats['journal_bytes']} bytes"
    )
    return 0


def cmd_watch(args) -> int:
    from .obs import watch

    return watch(
        args.url,
        interval=args.interval,
        count=args.count,
        clear=not args.no_clear,
    )


def _fetch_json(url: str, timeout: float = 10.0) -> dict:
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raise SystemExit(f"{url}: HTTP {exc.code} {exc.reason}") from exc
    except urllib.error.URLError as exc:
        raise SystemExit(f"{url}: {exc.reason}") from exc


def cmd_slo(args) -> int:
    """``repro slo``: evaluate a server's service-level objectives.

    Fetches ``<url>/v1/slo`` and prints one row per objective.  Exit
    code 0 when every objective holds, 1 when any is violated — so
    the verb doubles as a scriptable health gate
    (``repro slo --url ... && deploy``).
    """
    payload = _fetch_json(args.url.rstrip("/") + "/v1/slo")
    rows = [
        (
            o["name"],
            "ok" if o["ok"] else "VIOLATED",
            f"{o['value']:.6g}",
            f"{o['threshold']:.6g}",
            o["detail"],
        )
        for o in payload.get("objectives", [])
    ]
    print(render_table(["slo", "state", "value", "budget", "detail"],
                       rows))
    ok = bool(payload.get("ok", False))
    if not ok:
        print("slo: VIOLATED", file=sys.stderr)
    return 0 if ok else 1


def cmd_debug(args) -> int:
    """``repro debug dump``: list or fetch flight-recorder bundles.

    Without ``--id``, prints the dump index of ``<url>/v1/debug/dumps``
    (one row per retained bundle).  With ``--id``, fetches the full
    bundle JSON and prints it (or writes it to ``--out FILE``).
    """
    import json

    base = args.url.rstrip("/")
    if args.id is None:
        payload = _fetch_json(base + "/v1/debug/dumps")
        dumps = payload.get("dumps", [])
        if not dumps:
            print("no flight-recorder dumps captured")
            return 0
        rows = [
            (
                d["id"],
                d["reason"],
                d.get("request_id") or "-",
                str(d.get("spans", 0)),
                str(d.get("faults", 0)),
                (d.get("detail") or "")[:60],
            )
            for d in dumps
        ]
        print(render_table(
            ["dump", "reason", "request", "spans", "faults", "detail"],
            rows,
        ))
        print(f"dump dir: {payload.get('dump_dir')}", file=sys.stderr)
        return 0
    bundle = _fetch_json(base + "/v1/debug/dumps/" + args.id)
    body = json.dumps(bundle, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
        print(f"debug dump {args.id} -> {args.out}")
    else:
        print(body)
    return 0


def cmd_observe(args) -> int:
    if args.url is None:
        if not args.snapshot:
            raise SystemExit(
                "observe needs --url URL (point at a running repro "
                "server) or --snapshot FILE (headless local demo)"
            )
        return _observe_local_snapshot(args)
    base = args.url.rstrip("/")
    if args.snapshot:
        return _observe_remote_snapshot(base, args.snapshot)
    ui = base + "/ui"
    print(f"observatory: {ui}")
    if not args.no_browser:
        import webbrowser

        webbrowser.open(ui)
    return 0


def _write_snapshot(path: str, svg: str, name: str, n_frames: int) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"observatory snapshot: {name}, {n_frames} frames -> {path}")
    return 0


def _observe_local_snapshot(args) -> int:
    """Headless demo: certify + simulate a family locally with frame
    capture on, then render one mid-run frame as SVG."""
    from .obs.observatory import global_frame_store, render_frame_svg

    chain = build_family(args.family, args.param)
    sched = api.schedule(chain)
    store = global_frame_store()
    was_enabled = store.enabled
    store.enable()
    store.set_profile(chain.dag, sched.profile)
    try:
        api.simulate(chain, clients=args.clients, seed=args.seed)
    finally:
        store.enabled = was_enabled
    ch = store.get(chain.dag.fingerprint())
    frames = ch.frames if ch is not None else []
    if not frames:
        raise SystemExit("simulation recorded no frames")
    achieved = [len(f.eligible) for f in frames]
    # the widest frontier is the frame worth looking at
    pick = max(frames, key=lambda f: len(f.eligible))
    svg = render_frame_svg(
        ch.graph,
        pick.to_payload(),
        achieved=achieved,
        profile=ch.profile,
        title=(
            f"{ch.name} — {args.clients} clients, step {pick.step}: "
            f"{len(pick.executed)}/{ch.graph['n']} executed, "
            f"{len(pick.eligible)} eligible"
        ),
    )
    return _write_snapshot(args.snapshot, svg, ch.name, len(frames))


def _observe_remote_snapshot(base: str, path: str) -> int:
    """Render the most recently active dag of a running server."""
    import json as _json
    import urllib.request

    from .obs.observatory import render_frame_svg

    def get(p: str) -> dict:
        with urllib.request.urlopen(base + p, timeout=5) as resp:
            return _json.loads(resp.read().decode("utf-8"))

    dags = get("/v1/frames").get("dags", {})
    active = {fp: d for fp, d in dags.items() if d.get("latest")}
    if not active:
        raise SystemExit(
            f"no frames recorded on {base} yet "
            "(POST /v1/simulate first, or check frame capture is on)"
        )
    fp = max(active, key=lambda k: active[k]["latest"])
    graph = get(f"/v1/dags/{fp}/graph")
    latest = get(f"/v1/dags/{fp}/frame")
    frames = get(f"/v1/dags/{fp}/frames")["frames"]
    achieved = [f["eligible_count"] for f in frames]
    svg = render_frame_svg(graph, latest["frame"], achieved=achieved)
    return _write_snapshot(path, svg, latest.get("name", fp[:12]),
                           len(frames))


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics",
        choices=("json", "prom"),
        help="after the command, dump the process metrics registry in "
        "the chosen exposition format (see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="enable structured tracing and export the JSONL trace "
        "to FILE when the command finishes",
    )
    p.add_argument(
        "--serve-metrics",
        metavar="PORT",
        type=int,
        help="serve the HTTP observability endpoints (/metrics, "
        "/stats, ...) on this port for the duration of the command "
        "(0 = ephemeral; the bound URL is printed to stderr)",
    )


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        choices=("auto", "compositional", "exhaustive", "anytime",
                 "heuristic"),
        default="auto",
        help="certification strategy (docs/CERTIFICATION.md); "
        "default %(default)s",
    )
    p.add_argument(
        "--budget",
        type=int,
        metavar="STATES",
        help="anytime state budget: return the best schedule found "
        "within this many enumerated ideal states, with certified "
        "loss bounds",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed certification cache",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IC-Scheduling Theory reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list buildable dag families")

    p = sub.add_parser("schedule", help="build and schedule a family dag")
    p.add_argument("family")
    p.add_argument("param", nargs="?", type=int)
    p.add_argument("--show-dag", action="store_true")
    _add_search_flags(p)
    _add_obs_flags(p)

    p = sub.add_parser(
        "verify", help="exhaustively verify IC-optimality "
        "(family or catalog block spec)"
    )
    p.add_argument("family", help="family name or block spec (e.g. N8)")
    p.add_argument("param", nargs="?", type=int)
    _add_search_flags(p)
    _add_obs_flags(p)

    p = sub.add_parser("simulate", help="IC server policy comparison")
    p.add_argument("family")
    p.add_argument("param", nargs="?", type=int)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--hetero", action="store_true")
    p.add_argument(
        "--faults",
        metavar="SPEC",
        help="chaos script: a scenario name (churn, stragglers, flaky, "
        "blackout; optionally NAME:seed=N) or an event list like "
        "'crash:0@2,stall:1@1.5x4,join@5,corrupt=0.1' "
        "(see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--server-policy",
        metavar="SPEC",
        help="fault-tolerance policy as key=value pairs: timeout, "
        "retries, backoff, jitter, speculate (factor or 'off'), "
        "replicas, critical, quarantine; e.g. "
        "'timeout=4,retries=3,speculate=off' (implied default policy "
        "when --faults is given)",
    )
    p.add_argument(
        "--machine",
        metavar="SPEC",
        help="machine model: KIND[:key=val,...] with kinds ideal, "
        "bsp (g, L), memcap (cap, spill), hetero (spread, seed); "
        "e.g. 'bsp:g=1,L=2' or 'memcap:cap=3' "
        "(see docs/MACHINES.md)",
    )
    _add_obs_flags(p)

    p = sub.add_parser(
        "stats", help="print the process metrics registry"
    )
    p.add_argument(
        "--format", choices=("table", "json", "prom"), default="table"
    )
    p.add_argument(
        "--reset", action="store_true",
        help="zero every metric after printing",
    )

    p = sub.add_parser(
        "serve-metrics",
        help="serve the observability HTTP endpoints standalone",
    )
    p.add_argument("--port", type=int, default=9100)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--duration",
        type=float,
        help="serve for this many seconds then exit "
        "(default: until interrupted)",
    )

    p = sub.add_parser(
        "serve",
        help="run the scheduling service (HTTP JSON API over the "
        "dag registry and request pipeline; see docs/SERVICE.md)",
    )
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--duration",
        type=float,
        help="serve for this many seconds then exit "
        "(default: until interrupted)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=32,
        help="concurrent requests (submissions and simulations "
        "together) admitted before backpressure answers 429 "
        "(default %(default)s)",
    )
    p.add_argument(
        "--exhaustive-limit", type=int, default=24,
        help="largest nonsink count certified exhaustively "
        "(default %(default)s)",
    )
    p.add_argument(
        "--state-budget", type=int, default=500_000,
        help="ideal-state cap per certification search "
        "(default %(default)s)",
    )
    p.add_argument(
        "--strategy",
        choices=("auto", "compositional", "exhaustive", "anytime",
                 "heuristic"),
        default="auto",
        help="certification strategy served by the pipeline "
        "(docs/CERTIFICATION.md); default %(default)s",
    )
    p.add_argument(
        "--budget",
        type=int,
        metavar="STATES",
        help="anytime state budget used when degrading "
        "(bounded-loss fallback instead of the bare heuristic)",
    )
    p.add_argument(
        "--no-frames",
        action="store_true",
        help="disable schedule-frame capture (the /ui observatory "
        "shows no live frames; zero per-step capture cost)",
    )
    p.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON line per request to stderr "
        "(request id, route, status, duration)",
    )
    p.add_argument(
        "--dump-dir",
        metavar="DIR",
        help="directory for flight-recorder dump bundles (default: a "
        "private temp dir, created lazily on first dump)",
    )
    p.add_argument(
        "--data-dir",
        metavar="DIR",
        help="durable state directory (write-ahead journal + "
        "snapshots): admitted dags and certified schedules survive "
        "crashes and replay on boot (docs/ROBUSTNESS.md); default: "
        "in-memory only",
    )
    p.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="journal fsync policy with --data-dir: 'always' = "
        "zero-loss, 'interval' = bounded loss on power failure "
        "(process kills lose nothing), 'never' = flush only "
        "(default %(default)s)",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=1024,
        metavar="N",
        help="journal appends between automatic snapshot+truncate "
        "cycles with --data-dir (0 disables; default %(default)s)",
    )

    p = sub.add_parser(
        "journal",
        help="offline tools for a --data-dir journal: stat, verify "
        "(deep validation, exit 1 on corruption), compact",
    )
    p.add_argument(
        "action", choices=("stat", "verify", "compact"),
        help="'stat': summarize read-only; 'verify': full replay "
        "validation without touching disk; 'compact': snapshot + "
        "truncate",
    )
    p.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="the service data directory to inspect",
    )

    p = sub.add_parser(
        "slo",
        help="evaluate a running server's service-level objectives "
        "(/v1/slo); exit 0 when all hold, 1 on violation",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="root URL of a running repro server (default %(default)s)",
    )

    p = sub.add_parser(
        "debug",
        help="inspect the degradation flight recorder of a running "
        "server (/v1/debug/dumps)",
    )
    p.add_argument(
        "action", choices=("dump",),
        help="'dump': list retained bundles, or fetch one with --id",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="root URL of a running repro server (default %(default)s)",
    )
    p.add_argument(
        "--id", help="fetch this bundle (full JSON) instead of listing"
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the fetched bundle to FILE instead of stdout",
    )

    p = sub.add_parser(
        "watch",
        help="live in-terminal dashboard over a served /stats endpoint",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:9100",
        help="root URL of a running exposition server "
        "(default %(default)s)",
    )
    p.add_argument("--interval", type=float, default=2.0)
    p.add_argument(
        "--count",
        type=int,
        help="render this many frames then exit "
        "(default: until interrupted)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="do not clear the screen between frames (for piped output)",
    )

    p = sub.add_parser(
        "observe",
        help="open the live observatory (/ui) of a running server, or "
        "dump one rendered SVG schedule frame headlessly (--snapshot)",
    )
    p.add_argument(
        "--url",
        help="root URL of a running repro server (repro serve or "
        "serve-metrics); omitted with --snapshot, a local demo "
        "simulation is captured instead",
    )
    p.add_argument(
        "--snapshot",
        metavar="FILE",
        help="write one rendered SVG frame to FILE and exit "
        "(headless; used for CI and docs/observatory.svg)",
    )
    p.add_argument(
        "--no-browser",
        action="store_true",
        help="print the /ui URL instead of opening a browser",
    )
    p.add_argument(
        "--family", default="mesh",
        help="demo family for local --snapshot mode "
        "(default %(default)s)",
    )
    p.add_argument(
        "--param", type=int, default=4,
        help="demo family size parameter (default %(default)s)",
    )
    p.add_argument(
        "--clients", type=int, default=3,
        help="demo simulation clients (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="demo simulation seed (default %(default)s)",
    )

    p = sub.add_parser("priority", help="test the ▷ relation on blocks")
    p.add_argument("block1")
    p.add_argument("block2")

    p = sub.add_parser("batch", help="batched scheduling (cf. [20])")
    p.add_argument("family")
    p.add_argument("param", nargs="?", type=int)
    p.add_argument("--capacity", type=int, default=4)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    When the chosen subcommand carries the observability flags,
    ``--trace FILE`` enables the process tracer for the duration of
    the command and exports its JSONL records to FILE afterwards,
    ``--metrics {json,prom}`` dumps the metrics registry once the
    command finishes (even on a nonzero exit), and
    ``--serve-metrics PORT`` serves the HTTP exposition endpoints
    while the command runs (URL printed to stderr, so a concurrent
    ``repro watch`` or Prometheus scraper can observe it live).
    """
    args = make_parser().parse_args(argv)
    handlers = {
        "families": cmd_families,
        "schedule": cmd_schedule,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "priority": cmd_priority,
        "batch": cmd_batch,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "journal": cmd_journal,
        "serve-metrics": cmd_serve_metrics,
        "watch": cmd_watch,
        "observe": cmd_observe,
        "slo": cmd_slo,
        "debug": cmd_debug,
    }
    trace_file = getattr(args, "trace", None)
    metrics_fmt = getattr(args, "metrics", None)
    serve_port = getattr(args, "serve_metrics", None)
    if trace_file is None and metrics_fmt is None and serve_port is None:
        return handlers[args.command](args)

    from .obs import global_registry, global_tracer

    tracer = global_tracer()
    was_enabled = tracer.enabled
    if trace_file:
        tracer.enable()
    server = None
    if serve_port is not None:
        from .obs import ObsServer

        server = ObsServer(port=serve_port).start()
        print(f"metrics: serving on {server.url}", file=sys.stderr)
    try:
        rc = handlers[args.command](args)
    finally:
        if trace_file:
            tracer.enabled = was_enabled
            n = tracer.export_jsonl(trace_file)
            print(f"trace: {n} records -> {trace_file}", file=sys.stderr)
        if metrics_fmt == "json":
            print(global_registry().to_json(indent=2))
        elif metrics_fmt == "prom":
            print(global_registry().to_prometheus(), end="")
        if server is not None:
            server.stop()
    return rc


if __name__ == "__main__":
    sys.exit(main())
