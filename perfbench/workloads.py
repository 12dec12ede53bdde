"""The four workloads: submit-cold, simulate-hot, restart-replay,
library-sweep.

Each returns an :class:`Outcome`: the raw timings of its window, its
set-up samples, the telemetry the program exported over the window,
the correctness-check failures, and (traced runs only) the span table.
``run.py`` turns outcomes into metrics.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracles
from client import closed_loop, get_all
from proc import HERE, ServiceProcess, child_env, metric_sum, vmhwm_mb

#: boots per run whose spawn→ready times make ``setup_s``: service
#: boots, or fresh interpreters importing ``repro.api``.  One boot is
#: CPU-bound for about half a second and the host's speed swings from
#: one second to the next, so the median of nine, split around the
#: window, spans the whole run rather than its first seconds.
BOOTS = 9
#: of those, the boots before the window (the last one serves it).
BOOTS_BEFORE = 5
#: closed-loop clients of the timed window (the container's nproc).
CLIENTS = 2
#: clients used for untimed fills (registry fill, replay data dir).
FILL_CLIENTS = 16
#: submit-cold: dags submitted before the window ends; all but the
#: window's own are submitted before it opens.  The stream passes the
#: registry's 2,048 entries inside the window (at least 52 spills land
#: there) while a 1,000-sample window holds about two journal
#: snapshots: their four stalled requests stay inside the slowest 1%,
#: and the p99 reads the steady tail, not how many stalls happened.
SUBMIT_STREAM = 2100
#: library-sweep: facade calls per window, per required sample (3,000
#: calls, about 12 s, untraced): the workload is CPU-bound, and a
#: longer window averages out the host's second-to-second speed swings.
#: Twice as long a window did not steady it further: the host's speed
#: also drifts over minutes, which no window that fits a run outlasts.
SWEEP_CALLS_PER_SAMPLE = 3
#: restart-replay: dags journaled before the restart.
REPLAY_DAGS = 400


@dataclass
class Outcome:
    setup: list[float] = field(default_factory=list)
    #: seconds per timed operation, in issue order
    latencies: list[float] = field(default_factory=list)
    #: operations completed in the window and the window's length
    ops: int = 0
    wall: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: human-readable correctness failures (empty = correct)
    problems: list[str] = field(default_factory=list)
    #: program telemetry: window deltas of exported counters
    telemetry: dict = field(default_factory=dict)
    #: window-delta metric samples (parsed exposition) for layer maths
    samples: dict = field(default_factory=dict)
    #: traced runs: request id -> e2e seconds, and the span list
    e2e_by_request: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


#: exported counters recorded beside the timings of every run.
TELEMETRY = (
    ("search_states_expanded_total", {}),
    ("certify_block_cache_lookups_total", {"result": "hit"}),
    ("certify_block_cache_lookups_total", {"result": "miss"}),
    ("profile_cache_lookups_total", {"result": "hit"}),
    ("profile_cache_lookups_total", {"result": "miss"}),
    ("registry_lookups_total", {"result": "hit"}),
    ("registry_lookups_total", {"result": "miss"}),
    ("registry_evictions_total", {}),
    ("journal_appends_total", {}),
    ("journal_fsyncs_total", {}),
    ("journal_snapshots_total", {}),
    ("service_searches_total", {}),
    ("service_schedule_cached_total", {}),
    ("service_degraded_total", {}),
    ("service_rejected_total", {}),
    ("service_batches_total", {}),
    ("service_batched_requests_total", {}),
    ("obs_frames_captured_total", {}),
    ("sim_runs_total", {}),
    ("sim_machine_runs_total", {}),
    ("sim_steps_total", {}),
    ("sim_retries_total", {}),
    ("sim_timeouts_total", {}),
    ("sim_speculations_total", {}),
)


def telemetry(samples: dict) -> dict:
    out = {}
    for name, labels in TELEMETRY:
        key = name + "".join(f"{{{k}={v}}}" for k, v in labels.items())
        out[key] = metric_sum(samples, name, **labels)
    return out


# -- service plumbing ------------------------------------------------------
class Service:
    """Boots ``repro serve`` ``BOOTS`` times, timing each to ready:
    ``BOOTS_BEFORE`` before the window, the last of which stays up to
    serve it, and the rest after.  With ``traced`` the serving boot
    goes through the span-recording launcher."""

    def __init__(self, workdir: Path, extra, traced: bool,
                 prepare=None) -> None:
        self.workdir = workdir
        self.extra = list(extra)
        self.traced = traced
        self.prepare = prepare or (lambda: None)
        self.spans_path = workdir / "spans.json"
        self.setup: list[float] = []
        self.proc: ServiceProcess | None = None

    def _timed_boot(self, launcher=None) -> ServiceProcess:
        self.prepare()
        proc = ServiceProcess(self.workdir, self.extra, launcher)
        try:
            self.setup.append(proc.wait_ready())
        except BaseException:
            proc.stop()
            raise
        return proc

    def boot(self) -> ServiceProcess:
        for _ in range(BOOTS_BEFORE - 1):
            self._timed_boot().kill()  # only its readiness was wanted
        launcher = None
        if self.traced:
            launcher = [sys.executable, str(HERE / "launch.py"),
                        str(self.spans_path)]
        self.proc = self._timed_boot(launcher)
        return self.proc

    def finish(self, out: Outcome) -> None:
        """Stop the serving boot, collect its spans when traced, then
        time the boots that follow the window."""
        if self.proc is None:
            return
        rc = self.proc.stop()
        self.proc = None
        if rc != 0:
            out.problems.append(f"service exited with {rc}")
        if self.traced:
            out.spans = json.loads(self.spans_path.read_text())
        for _ in range(BOOTS - BOOTS_BEFORE):
            self._timed_boot().kill()


def _window(out: Outcome, proc: ServiceProcess, path: str, bodies,
            seconds: float, min_samples: int):
    """One timed closed-loop window with telemetry deltas around it."""
    before = proc.metrics()
    samples, wall = closed_loop(proc.port, path, bodies, seconds,
                                threads=CLIENTS, min_samples=min_samples)
    after = proc.metrics()
    out.rss_mb = proc.vmhwm_mb()
    service = proc.stats()["service"]
    out.info["registry"] = {k: service["registry"][k]
                            for k in ("entries", "certified")}
    if service["durability"] is not None:
        out.info["journal"] = {k: service["durability"][k] for k in
                               ("seq", "entries", "journal_bytes",
                                "snapshot_bytes")}
    out.samples = delta(after, before)
    out.telemetry = telemetry(out.samples)
    out.latencies = [s.seconds for s in samples]
    out.ops = sum(1 for s in samples if s.status == 200)
    out.wall = wall
    out.attempted = len(samples)
    out.e2e_by_request = {s.request_id: s.seconds for s in samples}
    return samples


def _fill(proc: ServiceProcess, bodies) -> list:
    """Untimed: submit every body once from ``FILL_CLIENTS`` clients."""
    samples, _ = closed_loop(proc.port, "/v1/dags", bodies, 0.0,
                             threads=FILL_CLIENTS, min_samples=len(bodies),
                             limit=len(bodies), id_prefix="fill")
    return samples


def _decode(sample) -> dict | None:
    try:
        return json.loads(sample.body)
    except ValueError:
        return None


# -- submit-cold ------------------------------------------------------------
def submit_cold(seed: int, seconds: float, min_samples: int, traced: bool,
                workdir: Path) -> Outcome:
    out = Outcome()
    # far more distinct dags than the fastest window submits
    n_fill = SUBMIT_STREAM - min_samples
    stream = gen.submit_stream(seed, n_fill + 6000)
    fill, timed = stream[:n_fill], stream[n_fill:]
    data = workdir / "data"

    def fresh_dir():
        shutil.rmtree(data, ignore_errors=True)

    svc = Service(workdir, ["--data-dir", str(data)], traced, fresh_dir)
    proc = svc.boot()
    try:
        filled = _fill(proc, [json.dumps(w).encode() for _, w in fill])
        out.problems += oracles.check_statuses(filled, "fill submit")
        bodies = [json.dumps(w).encode() for _, w in timed]
        samples = _window(out, proc, "/v1/dags", bodies, seconds,
                          min_samples)
        if out.attempted > len(bodies):
            out.problems.append("submit stream ran out: dags repeated")
    finally:
        svc.finish(out)
    out.setup = svc.setup
    wrong = oracles.check_submits(samples, timed)
    out.failed = sum(1 for s in samples if s.status != 200) + len(wrong)
    out.problems += wrong[:5]
    out.problems += oracles.check_anytime(
        [w for cls, w in timed[:out.attempted] if cls != "heuristic"][:40])
    kinds = Counter(b.get("kind") for b in map(_decode, samples) if b)
    out.info["kinds"] = dict(kinds)
    for kind in ("composed", "exact", "heuristic"):
        if not kinds.get(kind):
            out.problems.append(f"no {kind} certificate in the stream")
    if not out.telemetry["registry_evictions_total"]:
        out.problems.append("stream never spilled the registry")
    if not out.telemetry["journal_snapshots_total"]:
        out.problems.append("no journal snapshot in the window")
    return out


# -- simulate-hot -----------------------------------------------------------
def simulate_hot(seed: int, seconds: float, min_samples: int,
                 traced: bool, workdir: Path) -> Outcome:
    out = Outcome()
    hot = gen.hot_set(seed)
    svc = Service(workdir, [], traced)
    proc = svc.boot()
    try:
        warm = _fill(proc, [json.dumps(w).encode() for w in hot])
        out.problems += oracles.check_statuses(warm, "warm-up submit")
        fps = [json.loads(s.body)["fingerprint"] for s in warm]
        requests = gen.simulate_requests(seed, fps, 8000)
        bodies = [json.dumps(r).encode() for r in requests]
        samples = _window(out, proc, "/v1/simulate", bodies, seconds,
                          min_samples)
    finally:
        svc.finish(out)
    out.setup = svc.setup
    by_fp = {fp: w for fp, w in zip(fps, hot)}
    wrong = oracles.check_simulates(samples, requests, by_fp, seed)
    out.failed = sum(1 for s in samples if s.status != 200) + len(wrong)
    out.problems += wrong[:5]
    out.info["dags"] = len(hot)
    return out


# -- restart-replay ---------------------------------------------------------
def restart_replay(seed: int, seconds: float, min_samples: int,
                   traced: bool, workdir: Path) -> Outcome:
    out = Outcome()
    # the data directory comes from the submit-cold generator under a
    # different seed than any submit-cold run uses
    journaled = [w for _, w in gen.submit_stream(-1 - seed, REPLAY_DAGS)]
    built = workdir / "built"
    data = workdir / "data"
    before: dict[str, tuple[dict, bytes]] = {}
    proc = ServiceProcess(workdir, ["--data-dir", str(built)])
    try:
        proc.wait_ready()
        first = _fill(proc, [json.dumps(w).encode() for w in journaled])
        out.problems += oracles.check_statuses(first, "journal build")
        bodies = [json.loads(s.body) for s in first]
        fetched = get_all(proc.port, [b["schedule_path"] for b in bodies],
                          FILL_CLIENTS)
        for body, (status, sched) in zip(bodies, fetched):
            if status != 200:
                out.problems.append(f"GET schedule -> {status}")
            before[body["fingerprint"]] = (body, sched)
    finally:
        # a crash, not a drain: the next boot replays the journal
        # records themselves rather than a shutdown snapshot
        proc.kill()

    def fresh_copy():
        shutil.rmtree(data, ignore_errors=True)
        shutil.copytree(built, data)

    rng = random.Random(f"replay:{seed}")
    order = list(range(len(journaled)))
    bodies = [json.dumps(journaled[rng.choice(order)]).encode()
              for _ in range(8000)]
    svc = Service(workdir, ["--data-dir", str(data)], traced, fresh_copy)
    proc = svc.boot()
    try:
        recovery = proc.stats()["service"]["durability"]["recovery"]
        samples = _window(out, proc, "/v1/dags", bodies, seconds,
                          min_samples)
        wrong = oracles.check_resubmits(samples, before)
        wrong += oracles.check_schedules(proc.port, before, FILL_CLIENTS)
    finally:
        svc.finish(out)
    out.setup = svc.setup
    out.failed = sum(1 for s in samples if s.status != 200) + len(wrong)
    out.problems += wrong[:5]
    out.info["records_applied"] = recovery["records_applied"]
    out.info["entries_restored"] = recovery["entries_restored"]
    out.info["journaled_dags"] = len(journaled)
    return out


# -- library-sweep ----------------------------------------------------------
FAULT_PLANS = (None, "blackout", "flaky")


def _library_setup(workdir: Path, boots: int) -> list[float]:
    """Fresh interpreter + ``import repro.api``, ``boots`` times."""
    env = child_env(workdir)
    times = []
    for _ in range(boots):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.api"],
                       env=env, cwd=str(workdir), check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def sweep_one(api, dag, plans, policy, latencies=None):
    """One dag fully processed: ``api.verify`` plus the whole
    machine × fault-plan ``api.compare`` grid, each call timed into
    ``latencies`` when given.  Returns ``(verify result, grid)``."""
    def timed(fn, **kwargs):
        t0 = time.perf_counter()
        res = fn(dag, **kwargs)
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        return res

    verified = timed(api.verify)
    grid = [timed(api.compare, machine=machine, fault_plan=plan,
                  server_policy=None if plan is None else policy)
            for machine in gen.MACHINES for plan in plans]
    return verified, grid


def summarize(verified, grid) -> tuple:
    """What the checks need from one dag's sweep: the verify verdict,
    the schedule profile, whether every grid cell ran every policy,
    and the grid's table rows."""
    complete = all(len(c.policies) == 6 and c.best_policy is not None
                   for c in grid)
    return (verified.bounds, verified.ic_optimal,
            list(verified.schedule.profile), complete,
            [c.rows for c in grid])


def library_sweep(seed: int, seconds: float, min_samples: int,
                  traced: bool, workdir: Path) -> Outcome:
    out = Outcome()
    out.setup = _library_setup(workdir, BOOTS_BEFORE)
    from repro import api
    from repro.obs import global_registry
    from repro.obs.exposition import prometheus_body
    from proc import parse_prometheus

    # far more dags than the fastest window processes
    corpus = gen.sweep_corpus(seed, 1500)
    dags = [api.dag_from_dict(w) for w in corpus]
    plans = [None] + [api.FaultPlan.parse(p, n_clients=4)
                      for p in FAULT_PLANS[1:]]
    policy = api.ServerPolicy()
    # lazy imports and first-call set-up happen before the window; the
    # process-wide caches then start empty, so a traced run in the
    # same process starts from the state the untraced one did
    for w in gen.sweep_corpus(-1 - seed, 4):
        sweep_one(api, api.dag_from_dict(w), plans, policy)
    from repro.core.certify import global_block_library
    from repro.core.profile_cache import global_profile_cache

    global_block_library().clear()
    global_profile_cache().clear()
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    before = parse_prometheus(prometheus_body(global_registry()))
    results = []
    call_latencies: list[float] = []
    min_calls = SWEEP_CALLS_PER_SAMPLE * min_samples
    start = time.perf_counter()
    try:
        i = 0
        while i < len(dags) and (time.perf_counter() < start + seconds
                                 or len(call_latencies) < min_calls):
            rid = f"pb-{i}"
            t0 = time.perf_counter()
            if recorder is not None:
                with recorder.root(rid):
                    res = sweep_one(api, dags[i], plans, policy,
                                    call_latencies)
            else:
                res = sweep_one(api, dags[i], plans, policy,
                                call_latencies)
            out.e2e_by_request[rid] = time.perf_counter() - t0
            # keep a summary only: retaining every result object would
            # grow the heap, and with it garbage-collection time
            results.append(summarize(*res))
            i += 1
        out.wall = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()
            out.spans = recorder.spans
    after = parse_prometheus(prometheus_body(global_registry()))
    out.samples = delta(after, before)
    out.telemetry = telemetry(out.samples)
    out.latencies = call_latencies
    out.ops = out.attempted = len(results)
    out.rss_mb = vmhwm_mb()
    out.setup += _library_setup(workdir, BOOTS - BOOTS_BEFORE)
    wrong = oracles.check_sweep(
        dags, results,
        lambda dag: summarize(*sweep_one(api, dag, plans, policy)))
    wrong += oracles.check_anytime(corpus[:40])
    out.failed = len(wrong)
    out.problems += wrong[:5]
    out.info["calls"] = len(call_latencies)
    return out


WORKLOADS = {
    "submit-cold": submit_cold,
    "simulate-hot": simulate_hot,
    "restart-replay": restart_replay,
    "library-sweep": library_sweep,
}
