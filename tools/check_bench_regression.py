#!/usr/bin/env python3
"""Gate perf regressions in the IC-optimality certification hot path.

Compares a fresh ``BENCH_optimality.json`` (written by
``benchmarks/bench_optimality_scale.py`` to ``benchmarks/out/``)
against the committed baseline (``benchmarks/BENCH_optimality.json``)
and exits nonzero when any guarded metric regresses by more than the
threshold (default 20%).  When a fresh ``BENCH_observability.json``
(written by ``benchmarks/bench_observability.py``) is present, the
observability layer's disabled-path and serving-path (concurrently
scraped ``/metrics``) overheads are gated against the recorded
absolute limit (5%) as well — and, on schema-3 records, the
simulator's schedule-frame-capture disabled path against the same
budget and its frame count exactly against the committed record.
When a fresh ``BENCH_faults.json``
(written by ``benchmarks/bench_faults.py``) is present, the
fault-tolerance layer is gated too: the faults-disabled dispatch
overhead against its absolute 5% budget, and the deterministic canned
chaos scenarios (fault counts exactly, makespans within the
threshold) against the committed ``benchmarks/BENCH_faults.json``
baseline.  When a fresh ``BENCH_service.json`` (written by
``benchmarks/bench_service.py``) is present, the scheduling service
is gated: the deterministic herd-coalescing phase (exactly one
search, hit rate at baseline) and registry resubmit fraction against
the committed ``benchmarks/BENCH_service.json`` baseline, with
simulate-phase throughput added under ``--absolute``.
When a fresh ``BENCH_certify.json`` (written by
``benchmarks/bench_certify.py``) is present, the certification engine
is gated: the deterministic states-expanded counts per family, the
warm-library zero-search invariant, and the headline claim that
compositional certification of ``B_3`` expands at least 10x fewer
states than the exhaustive search (``docs/CERTIFICATION.md``).
When a fresh ``BENCH_durability.json`` (written by
``benchmarks/bench_durability.py``) is present, the durability layer
is gated: the journal-disabled submit overhead against its absolute
5% budget, the deterministic journal accounting (records per submit)
and recovery counts (entries/certificates restored, zero invalid
records) exactly against the committed baseline, and the 200-entry
replay wall time against the absolute pin the record carries.
When a fresh ``BENCH_machines.json`` (written by
``benchmarks/bench_machines.py``) is present, the pluggable machine
layer is gated: the ideal-machine dispatch overhead against its
absolute 5% budget, and the deterministic machine x policy makespan
sweep exactly against the committed
``benchmarks/BENCH_machines.json`` baseline.
Baselines are read from the committed
copies in ``benchmarks/`` only — paths under ``benchmarks/out/``
(gitignored fresh-run output) are rejected.

Guarded metrics — chosen to be *machine-independent* so the gate is
meaningful on any CI host:

* ``largest.speedup_vs_legacy`` — the engine-vs-reference ratio on the
  largest certified dag (both sides timed on the same host, so the
  ratio cancels host speed); must not drop by more than the threshold.
* ``largest.states_expanded`` — deterministic search-effort count;
  must not *grow* by more than the threshold (an algorithmic
  regression signal even when timings are noisy).
* ``sim_server.cache_hit_rate`` — must not drop by more than the
  threshold (a wiring regression signal: the server stopped reusing
  certifications).

``--absolute`` additionally guards per-size ``states_per_sec``
(host-dependent; only meaningful when baseline and fresh record come
from the same machine).

Usage::

    python benchmarks/bench_optimality_scale.py        # writes fresh record
    python tools/check_bench_regression.py             # gate vs baseline
    python tools/check_bench_regression.py --threshold 0.1 --absolute

See ``docs/PERFORMANCE.md`` for how these numbers are produced and
how to refresh the baseline after an intentional change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "benchmarks" / "BENCH_optimality.json"
DEFAULT_FRESH = REPO / "benchmarks" / "out" / "BENCH_optimality.json"
OBS_BASELINE = REPO / "benchmarks" / "BENCH_observability.json"
OBS_FRESH = REPO / "benchmarks" / "out" / "BENCH_observability.json"
FAULTS_BASELINE = REPO / "benchmarks" / "BENCH_faults.json"
FAULTS_FRESH = REPO / "benchmarks" / "out" / "BENCH_faults.json"
SERVICE_BASELINE = REPO / "benchmarks" / "BENCH_service.json"
SERVICE_FRESH = REPO / "benchmarks" / "out" / "BENCH_service.json"
CERTIFY_BASELINE = REPO / "benchmarks" / "BENCH_certify.json"
CERTIFY_FRESH = REPO / "benchmarks" / "out" / "BENCH_certify.json"
DURABILITY_BASELINE = REPO / "benchmarks" / "BENCH_durability.json"
DURABILITY_FRESH = REPO / "benchmarks" / "out" / "BENCH_durability.json"
MACHINES_BASELINE = REPO / "benchmarks" / "BENCH_machines.json"
MACHINES_FRESH = REPO / "benchmarks" / "out" / "BENCH_machines.json"


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: record {path} not found "
                 "(run benchmarks/bench_optimality_scale.py first)")


def compare(baseline: dict, fresh: dict, threshold: float,
            absolute: bool = False) -> list[str]:
    """Return a list of regression messages (empty = pass)."""
    failures: list[str] = []

    def must_not_drop(label: str, base: float, new: float) -> None:
        if base > 0 and new < base * (1.0 - threshold):
            failures.append(
                f"{label}: {new:g} fell more than {threshold:.0%} below "
                f"baseline {base:g}"
            )

    def must_not_grow(label: str, base: float, new: float) -> None:
        if new > base * (1.0 + threshold):
            failures.append(
                f"{label}: {new:g} exceeds baseline {base:g} by more "
                f"than {threshold:.0%}"
            )

    must_not_drop(
        "largest.speedup_vs_legacy",
        baseline["largest"]["speedup_vs_legacy"],
        fresh["largest"]["speedup_vs_legacy"],
    )
    must_not_grow(
        "largest.states_expanded",
        baseline["largest"]["states_expanded"],
        fresh["largest"]["states_expanded"],
    )
    must_not_drop(
        "sim_server.cache_hit_rate",
        baseline["sim_server"]["cache_hit_rate"],
        fresh["sim_server"]["cache_hit_rate"],
    )
    if absolute:
        base_sizes = {s["dag"]: s for s in baseline["sizes"]}
        for s in fresh["sizes"]:
            b = base_sizes.get(s["dag"])
            if b is None:
                continue
            must_not_drop(
                f"{s['dag']}.states_per_sec",
                b["states_per_sec"],
                s["states_per_sec"],
            )
    return failures


def compare_observability(fresh: dict,
                          baseline: dict | None) -> list[str]:
    """Gate the observability record (empty list = pass).

    The disabled-path overhead is a *budget*, not a relative metric:
    the committed record carries its own absolute limit
    (``overhead.limit_disabled_pct``, 5%) and any fresh measurement
    above it fails regardless of what the baseline measured — timing
    percentages are too noisy for relative thresholds, but the
    always-on instrumentation cost must never exceed its budget.
    The frame count of the capture scenario is deterministic (one
    frame per simulation step), so it must equal the baseline's
    exactly: a dropped or doubled frame changes it.
    """
    failures: list[str] = []
    overhead = fresh.get("overhead", {})
    limit = overhead.get("limit_disabled_pct", 5.0)
    pct = overhead.get("disabled_pct")
    if pct is None:
        failures.append(
            "observability record lacks overhead.disabled_pct"
        )
    elif pct >= limit:
        failures.append(
            f"overhead.disabled_pct: {pct}% breaches the "
            f"{limit}% instrumentation budget"
        )
    # the serving path (scraped /metrics) shares the same budget;
    # absent on schema-1 records, gated whenever recorded.
    serving = overhead.get("serving_pct")
    if serving is not None and serving >= limit:
        failures.append(
            f"overhead.serving_pct: {serving}% breaches the "
            f"{limit}% instrumentation budget"
        )
    # schedule-frame capture (schema 3+): the simulator's frame path
    # shares the disabled-is-free budget — disabled capture must cost
    # nothing measurable against the no-frame-path reference.
    frames = fresh.get("frames")
    if frames is not None:
        fr_limit = frames.get("limit_disabled_pct", limit)
        fr_pct = frames.get("disabled_pct")
        if fr_pct is None:
            failures.append(
                "observability record lacks frames.disabled_pct"
            )
        elif fr_pct >= fr_limit:
            failures.append(
                f"frames.disabled_pct: {fr_pct}% breaches the "
                f"{fr_limit}% frame-capture budget"
            )
        captured = frames.get("captured")
        expected = (baseline or {}).get("frames", {}).get("captured")
        if not captured:
            failures.append(
                "frames scenario captured no frames while enabled"
            )
        elif expected is not None and captured != expected:
            failures.append(
                f"frames.captured: {captured} != baseline {expected} "
                "(deterministic frame count drifted)"
            )
    return failures


def compare_faults(fresh: dict, baseline: dict | None,
                   threshold: float) -> list[str]:
    """Gate the fault-tolerance record (empty list = pass).

    Two kinds of guard:

    * the faults-*disabled* dispatch overhead is an absolute budget
      carried by the record (``overhead.limit_disabled_pct``, 5%) —
      the realistic failure model must cost nothing when unused;
    * the canned chaos scenarios are *deterministic and
      machine-independent* (seeded simulation), so their fault counts
      must match the baseline exactly and their makespans within the
      relative threshold; every scenario must complete all tasks.  A
      drift means the chaos semantics changed — a deliberate,
      baseline-updating decision, never an accident.
    """
    failures: list[str] = []
    overhead = fresh.get("overhead", {})
    limit = overhead.get("limit_disabled_pct", 5.0)
    pct = overhead.get("disabled_pct")
    if pct is None:
        failures.append("faults record lacks overhead.disabled_pct")
    elif pct >= limit:
        failures.append(
            f"faults overhead.disabled_pct: {pct}% breaches the "
            f"{limit}% faults-disabled budget"
        )
    scen = fresh.get("scenarios", {})
    nodes = scen.get("nodes")
    base_scen = (baseline or {}).get("scenarios", {}).get("results", {})
    for name, r in scen.get("results", {}).items():
        if r.get("completed") != nodes:
            failures.append(
                f"scenario {name}: completed {r.get('completed')} of "
                f"{nodes} tasks (permanent loss)"
            )
        b = base_scen.get(name)
        if b is None:
            continue
        for key in ("retries", "timeouts", "speculative_wins",
                    "lost_allocations"):
            if r.get(key) != b.get(key):
                failures.append(
                    f"scenario {name}.{key}: {r.get(key)} != baseline "
                    f"{b.get(key)} (deterministic count drifted)"
                )
        bm, fm = b.get("makespan", 0.0), r.get("makespan", 0.0)
        if bm > 0 and abs(fm - bm) > bm * threshold:
            failures.append(
                f"scenario {name}.makespan: {fm:g} drifted more than "
                f"{threshold:.0%} from baseline {bm:g}"
            )
    return failures


def compare_service(fresh: dict, baseline: dict | None,
                    threshold: float,
                    absolute: bool = False) -> list[str]:
    """Gate the scheduling-service record (empty list = pass).

    The coalesce and resubmit phases are *deterministic and
    machine-independent* (the bench holds the search open until the
    whole herd is parked on it), so they are gated hard:

    * ``coalesce.searches`` must stay exactly 1 — more means the
      single-flight layer stopped deduplicating concurrent
      certification requests;
    * ``coalesce.hit_rate`` must not drop below the baseline;
    * ``resubmit.cached_fraction`` must not drop — resubmitted dags
      must be answered from the registry without a search.

    ``--absolute`` additionally guards simulate-phase throughput
    (host-dependent; only meaningful when baseline and fresh come
    from the same machine).
    """
    failures: list[str] = []
    coalesce = fresh.get("coalesce", {})
    if coalesce.get("searches") != 1:
        failures.append(
            f"service coalesce.searches: {coalesce.get('searches')} "
            "!= 1 (the herd must share a single certification search)"
        )
    base = baseline or {}
    base_rate = base.get("coalesce", {}).get("hit_rate", 0.0)
    rate = coalesce.get("hit_rate", 0.0)
    if rate < base_rate:
        failures.append(
            f"service coalesce.hit_rate: {rate} fell below baseline "
            f"{base_rate}"
        )
    base_cached = base.get("resubmit", {}).get("cached_fraction", 0.0)
    cached = fresh.get("resubmit", {}).get("cached_fraction", 0.0)
    if cached < base_cached:
        failures.append(
            f"service resubmit.cached_fraction: {cached} fell below "
            f"baseline {base_cached}"
        )
    if absolute:
        base_rps = base.get("simulate", {}).get("requests_per_sec")
        rps = fresh.get("simulate", {}).get("requests_per_sec", 0.0)
        if base_rps and rps < base_rps * (1.0 - threshold):
            failures.append(
                f"service simulate.requests_per_sec: {rps:g} fell "
                f"more than {threshold:.0%} below baseline "
                f"{base_rps:g}"
            )
    return failures


def compare_certify(fresh: dict, baseline: dict | None,
                    threshold: float) -> list[str]:
    """Gate the certification-engine record (empty list = pass).

    States-expanded counts are deterministic and machine-independent
    (the lattice enumeration has no timing or randomness), so the
    guards are tight:

    * the headline ``B_3`` compositional-vs-exhaustive ratio must stay
      at or above the absolute floor the record carries
      (``headline.min_ratio``, the paper-facing 10x claim) — and must
      not drop below the committed baseline by more than the
      threshold;
    * per family, ``states_compositional`` must not grow past the
      baseline by more than the threshold (recognition or the block
      library got lazier), and ``states_warm`` must stay exactly 0
      (a warm library re-certifies without any search).
    """
    failures: list[str] = []
    headline = fresh.get("headline", {})
    ratio = headline.get("ratio") or 0.0
    floor = headline.get("min_ratio", 10.0)
    if ratio < floor:
        failures.append(
            f"certify headline.ratio: {ratio}x below the {floor}x "
            f"floor on {headline.get('family')}"
        )
    base_families = {
        f["family"]: f
        for f in (baseline or {}).get("families", [])
    }
    for f in fresh.get("families", []):
        if f.get("states_warm", 0) != 0:
            failures.append(
                f"certify {f['family']}.states_warm: "
                f"{f['states_warm']} != 0 (warm library still searches)"
            )
        b = base_families.get(f["family"])
        if b is None:
            continue
        if f["states_compositional"] > \
                b["states_compositional"] * (1.0 + threshold):
            failures.append(
                f"certify {f['family']}.states_compositional: "
                f"{f['states_compositional']} exceeds baseline "
                f"{b['states_compositional']} by more than "
                f"{threshold:.0%}"
            )
        if b.get("ratio") and f.get("ratio") and \
                f["ratio"] < b["ratio"] * (1.0 - threshold):
            failures.append(
                f"certify {f['family']}.ratio: {f['ratio']}x fell "
                f"more than {threshold:.0%} below baseline "
                f"{b['ratio']}x"
            )
    return failures


def compare_durability(fresh: dict,
                       baseline: dict | None) -> list[str]:
    """Gate the durability record (empty list = pass).

    Three kinds of guard:

    * the journal-*disabled* submit overhead is an absolute budget the
      record carries (``overhead.limit_disabled_pct``, 5%) — a service
      that never opts into durability must not pay for the journal
      hooks;
    * the journal accounting and recovery counts are *deterministic
      and machine-independent* (fixed workload, CRC-verified scan), so
      they must match the baseline exactly: records per submit (the
      write-amplification contract), entries and certificates
      restored, and zero invalid records on a clean journal.  A drift
      means the journal format or replay semantics changed — a
      deliberate, baseline-updating decision, never an accident;
    * the replay wall time is gated against the absolute
      ``recovery.limit_seconds`` pin the record carries — generous for
      any host, but a backstop against an accidentally quadratic
      replay.
    """
    failures: list[str] = []
    overhead = fresh.get("overhead", {})
    limit = overhead.get("limit_disabled_pct", 5.0)
    pct = overhead.get("disabled_pct")
    if pct is None:
        failures.append("durability record lacks overhead.disabled_pct")
    elif pct >= limit:
        failures.append(
            f"durability overhead.disabled_pct: {pct}% breaches the "
            f"{limit}% journal-disabled budget"
        )
    recovery = fresh.get("recovery", {})
    if recovery.get("records_invalid", 0) != 0:
        failures.append(
            f"durability recovery.records_invalid: "
            f"{recovery.get('records_invalid')} != 0 on a clean journal"
        )
    replay_s = recovery.get("journal_replay_s", 0.0)
    pin = recovery.get("limit_seconds", 10.0)
    if replay_s >= pin:
        failures.append(
            f"durability recovery.journal_replay_s: {replay_s}s "
            f"breaches the {pin}s replay pin"
        )
    base = baseline or {}
    base_journal = base.get("journal", {})
    per_submit = fresh.get("journal", {}).get("records_per_submit")
    base_per_submit = base_journal.get("records_per_submit")
    if base_per_submit is not None and per_submit != base_per_submit:
        failures.append(
            f"durability journal.records_per_submit: {per_submit} != "
            f"baseline {base_per_submit} (write amplification drifted)"
        )
    base_recovery = base.get("recovery", {})
    for key in ("entries_restored", "certified_restored",
                "records_applied"):
        if key not in base_recovery:
            continue
        if recovery.get(key) != base_recovery[key]:
            failures.append(
                f"durability recovery.{key}: {recovery.get(key)} != "
                f"baseline {base_recovery[key]} "
                f"(deterministic count drifted)"
            )
    return failures


def compare_machines(fresh: dict,
                     baseline: dict | None) -> list[str]:
    """Gate the machine-model record (empty list = pass).

    Two kinds of guard:

    * the *ideal*-machine dispatch overhead is an absolute budget the
      record carries (``overhead.limit_ideal_pct``, 5%) — the
      pluggable machine layer must cost nothing on the default path
      (which is additionally asserted byte-identical inside the
      bench before the record is written);
    * the machine x policy sweep is *deterministic and
      machine-independent* (seeded event-driven simulation), so every
      cell's makespan must match the committed baseline exactly, and
      no family/machine/policy cell may disappear.  A drift means a
      machine model's semantics changed — a deliberate,
      baseline-updating decision, never an accident.
    """
    failures: list[str] = []
    overhead = fresh.get("overhead", {})
    limit = overhead.get("limit_ideal_pct", 5.0)
    pct = overhead.get("ideal_pct")
    if pct is None:
        failures.append("machines record lacks overhead.ideal_pct")
    elif pct >= limit:
        failures.append(
            f"machines overhead.ideal_pct: {pct}% breaches the "
            f"{limit}% ideal-dispatch budget"
        )
    base_fams = (baseline or {}).get("sweep", {}).get("families", {})
    fresh_fams = fresh.get("sweep", {}).get("families", {})
    for fam_name, base_fam in base_fams.items():
        fam = fresh_fams.get(fam_name)
        if fam is None:
            failures.append(
                f"machines sweep lost family {fam_name!r}"
            )
            continue
        for machine, base_cell in base_fam.get("machines", {}).items():
            cell = fam.get("machines", {}).get(machine)
            if cell is None:
                failures.append(
                    f"machines sweep {fam_name} lost machine "
                    f"{machine!r}"
                )
                continue
            for policy, bm in base_cell.get("makespans", {}).items():
                fm = cell.get("makespans", {}).get(policy)
                if fm != bm:
                    failures.append(
                        f"machines {fam_name}/{machine}/{policy} "
                        f"makespan: {fm} != baseline {bm} "
                        f"(deterministic cell drifted)"
                    )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="?", type=pathlib.Path,
                    default=DEFAULT_FRESH,
                    help=f"fresh record (default: {DEFAULT_FRESH})")
    ap.add_argument("--baseline", type=pathlib.Path,
                    default=DEFAULT_BASELINE,
                    help=f"committed baseline (default: {DEFAULT_BASELINE})")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed relative regression (default: 0.20)")
    ap.add_argument("--absolute", action="store_true",
                    help="also guard host-dependent throughput metrics")
    ap.add_argument("--obs-fresh", type=pathlib.Path, default=OBS_FRESH,
                    help="fresh observability record (gated when "
                         f"present; default: {OBS_FRESH})")
    ap.add_argument("--faults-fresh", type=pathlib.Path,
                    default=FAULTS_FRESH,
                    help="fresh fault-tolerance record (gated when "
                         f"present; default: {FAULTS_FRESH})")
    ap.add_argument("--faults-baseline", type=pathlib.Path,
                    default=FAULTS_BASELINE,
                    help="committed fault-tolerance baseline "
                         f"(default: {FAULTS_BASELINE})")
    ap.add_argument("--service-fresh", type=pathlib.Path,
                    default=SERVICE_FRESH,
                    help="fresh scheduling-service record (gated when "
                         f"present; default: {SERVICE_FRESH})")
    ap.add_argument("--service-baseline", type=pathlib.Path,
                    default=SERVICE_BASELINE,
                    help="committed scheduling-service baseline "
                         f"(default: {SERVICE_BASELINE})")
    ap.add_argument("--certify-fresh", type=pathlib.Path,
                    default=CERTIFY_FRESH,
                    help="fresh certification-engine record (gated "
                         f"when present; default: {CERTIFY_FRESH})")
    ap.add_argument("--certify-baseline", type=pathlib.Path,
                    default=CERTIFY_BASELINE,
                    help="committed certification-engine baseline "
                         f"(default: {CERTIFY_BASELINE})")
    ap.add_argument("--durability-fresh", type=pathlib.Path,
                    default=DURABILITY_FRESH,
                    help="fresh durability record (gated when "
                         f"present; default: {DURABILITY_FRESH})")
    ap.add_argument("--durability-baseline", type=pathlib.Path,
                    default=DURABILITY_BASELINE,
                    help="committed durability baseline "
                         f"(default: {DURABILITY_BASELINE})")
    ap.add_argument("--machines-fresh", type=pathlib.Path,
                    default=MACHINES_FRESH,
                    help="fresh machine-model record (gated when "
                         f"present; default: {MACHINES_FRESH})")
    ap.add_argument("--machines-baseline", type=pathlib.Path,
                    default=MACHINES_BASELINE,
                    help="committed machine-model baseline "
                         f"(default: {MACHINES_BASELINE})")
    args = ap.parse_args(argv)

    # Baselines live in benchmarks/ only; benchmarks/out/ holds fresh
    # (gitignored) run output, and a baseline read from there would
    # silently gate a run against itself.
    out_dir = (REPO / "benchmarks" / "out").resolve()
    for base_path in (args.baseline, args.faults_baseline,
                      args.service_baseline, args.certify_baseline,
                      args.durability_baseline, args.machines_baseline):
        if out_dir in base_path.resolve().parents:
            sys.exit(
                f"error: baseline {base_path} is inside benchmarks/out/ "
                "(fresh-run output); baselines are the committed copies "
                "in benchmarks/"
            )

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    failures = compare(baseline, fresh, args.threshold, args.absolute)

    obs_note = "no fresh observability record (gate skipped)"
    obs_fresh_path = args.obs_fresh
    if obs_fresh_path.exists():
        obs_fresh = _load(obs_fresh_path)
        obs_baseline = (
            _load(OBS_BASELINE) if OBS_BASELINE.exists() else None
        )
        failures.extend(compare_observability(obs_fresh, obs_baseline))
        obs_note = (
            f"obs disabled-path overhead "
            f"{obs_fresh['overhead']['disabled_pct']}%, serving "
            f"{obs_fresh['overhead'].get('serving_pct', 'n/a')}%, "
            f"frame capture "
            f"{obs_fresh.get('frames', {}).get('disabled_pct', 'n/a')}%"
        )

    faults_note = "no fresh faults record (gate skipped)"
    if args.faults_fresh.exists():
        faults_fresh = _load(args.faults_fresh)
        faults_baseline = (
            _load(args.faults_baseline)
            if args.faults_baseline.exists() else None
        )
        failures.extend(
            compare_faults(faults_fresh, faults_baseline, args.threshold)
        )
        faults_note = (
            f"faults-disabled overhead "
            f"{faults_fresh['overhead']['disabled_pct']}%"
        )

    service_note = "no fresh service record (gate skipped)"
    if args.service_fresh.exists():
        service_fresh = _load(args.service_fresh)
        service_baseline = (
            _load(args.service_baseline)
            if args.service_baseline.exists() else None
        )
        failures.extend(
            compare_service(service_fresh, service_baseline,
                            args.threshold, args.absolute)
        )
        service_note = (
            f"service coalesce {service_fresh['coalesce']['hit_rate']} "
            f"@ {service_fresh['coalesce']['searches']} search"
        )

    certify_note = "no fresh certify record (gate skipped)"
    if args.certify_fresh.exists():
        certify_fresh = _load(args.certify_fresh)
        certify_baseline = (
            _load(args.certify_baseline)
            if args.certify_baseline.exists() else None
        )
        failures.extend(
            compare_certify(certify_fresh, certify_baseline,
                            args.threshold)
        )
        certify_note = (
            f"certify B_3 ratio "
            f"{certify_fresh['headline']['ratio']}x"
        )

    durability_note = "no fresh durability record (gate skipped)"
    if args.durability_fresh.exists():
        durability_fresh = _load(args.durability_fresh)
        durability_baseline = (
            _load(args.durability_baseline)
            if args.durability_baseline.exists() else None
        )
        failures.extend(
            compare_durability(durability_fresh, durability_baseline)
        )
        durability_note = (
            f"journal-disabled overhead "
            f"{durability_fresh['overhead']['disabled_pct']}%, replay "
            f"{durability_fresh['recovery']['journal_replay_s']}s"
        )

    machines_note = "no fresh machines record (gate skipped)"
    if args.machines_fresh.exists():
        machines_fresh = _load(args.machines_fresh)
        machines_baseline = (
            _load(args.machines_baseline)
            if args.machines_baseline.exists() else None
        )
        failures.extend(
            compare_machines(machines_fresh, machines_baseline)
        )
        machines_note = (
            f"ideal-machine overhead "
            f"{machines_fresh['overhead']['ideal_pct']}%"
        )

    if failures:
        print("PERF REGRESSION:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(
        f"ok: no guarded metric regressed more than {args.threshold:.0%} "
        f"(largest speedup {fresh['largest']['speedup_vs_legacy']}x, "
        f"sim cache hit rate {fresh['sim_server']['cache_hit_rate']}, "
        f"{obs_note}, {faults_note}, {service_note}, {certify_note}, "
        f"{durability_note}, {machines_note})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
