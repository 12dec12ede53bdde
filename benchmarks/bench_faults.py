"""E-FAULTS — fault-tolerance machinery cost and chaos-scenario gates.

PR 4 added the realistic failure model (``repro.sim.faults``): the
public ``simulate()`` now runs a fault-tolerant server when a
``server_policy`` / ``fault_plan`` is given.  This bench proves the
fault path costs nothing when unused and stays deterministic when
used.  It times the simulation of a ``B_7`` butterfly three ways —

* **kernel** — the frozen ideal-model event loop
  (``tests/sim_reference.py``), the baseline the ideal path is held
  to;
* **disabled** — the public ``simulate()`` with faults left off
  (default arguments): the kernel's ideal server.  Gated
  **under 5%** by ``tools/check_bench_regression.py`` — the
  faults-disabled budget mirroring the observability budget;
* **engine** — ``simulate()`` through the fault-tolerant server with
  the default :class:`~repro.sim.faults.ServerPolicy` and *no* fault
  plan (informational: what timeout/speculation bookkeeping costs when
  armed but never firing).

The kernel and disabled paths are asserted byte-identical before any
number is recorded.  Each canned chaos scenario (churn, stragglers,
flaky, blackout) is then run on a ``B_4`` butterfly with fixed seeds;
the resulting makespans and fault counts are **deterministic and
machine-independent**, so the regression gate compares them against
the committed baseline directly — a drift means the chaos semantics
changed, which must be a deliberate, baseline-updating decision.

Run standalone (``python benchmarks/bench_faults.py``) or under
pytest-benchmark; the fresh record lands in
``benchmarks/out/BENCH_faults.json`` and the committed baseline in
``benchmarks/BENCH_faults.json``.
"""

from __future__ import annotations

import json
import time

from repro.families.butterfly_net import butterfly_dag
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_global_registry,
    set_global_tracer,
)
from repro.sim import FAULT_SCENARIOS, FaultPlan, ServerPolicy, simulate
from repro.sim.heuristics import make_policy

from _harness import OUT_DIR, reference_simulate, write_report

FRESH_RECORD = OUT_DIR / "BENCH_faults.json"

#: timing workload: big enough (1024 nodes, ~tens of ms) that the
#: dispatch overhead is measured against a stable denominator.
DIM = 7
#: chaos-scenario workload: small enough that all four scenarios run
#: in well under a second.
SCENARIO_DIM = 4
CLIENTS = 8
SCENARIO_CLIENTS = 6
SEED = 1
REPEATS = 5
#: hard ceiling on the faults-disabled dispatch overhead, in percent
#: (gated by tools/check_bench_regression.py).
DISABLED_OVERHEAD_LIMIT_PCT = 5.0


def _best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def collect_record() -> dict:
    dag = butterfly_dag(DIM)
    simulate_reference = reference_simulate()

    # isolate this workload's metrics; tracing stays off throughout
    # (the fault path must be cheap in the default configuration).
    old_reg = set_global_registry(MetricsRegistry())
    old_tracer = set_global_tracer(Tracer())
    try:
        t_kernel, r_kernel = _best_of(
            REPEATS,
            lambda: simulate_reference(
                dag, make_policy("CRITPATH"), clients=CLIENTS, seed=SEED
            ),
        )
        t_disabled, r_disabled = _best_of(
            REPEATS,
            lambda: simulate(
                dag, make_policy("CRITPATH"), clients=CLIENTS, seed=SEED
            ),
        )
        assert r_disabled == r_kernel, (
            "faults-disabled simulate() diverged from the reference loop"
        )
        t_engine, r_engine = _best_of(
            REPEATS,
            lambda: simulate(
                dag, make_policy("CRITPATH"), clients=CLIENTS,
                seed=SEED, server_policy=ServerPolicy(),
            ),
        )
        # the armed-but-idle engine must agree on the physics even
        # though its bookkeeping differs.
        assert r_engine.completed == r_kernel.completed
        assert abs(r_engine.makespan - r_kernel.makespan) < 1e-9, (
            "fault server makespan diverged with no faults injected"
        )
        assert r_engine.fault_report is not None
        assert r_engine.fault_report.retries == 0

        scenario_dag = butterfly_dag(SCENARIO_DIM)
        scenarios: dict[str, dict] = {}
        for name in sorted(FAULT_SCENARIOS):
            plan = FaultPlan.scenario(
                name, n_clients=SCENARIO_CLIENTS, seed=0
            )
            res = simulate(
                scenario_dag, make_policy("CRITPATH"),
                clients=SCENARIO_CLIENTS, seed=SEED, fault_plan=plan,
            )
            rep = res.fault_report
            assert res.completed == len(scenario_dag), (
                f"scenario {name!r} lost tasks permanently"
            )
            scenarios[name] = {
                "makespan": round(res.makespan, 6),
                "completed": res.completed,
                "retries": rep.retries,
                "timeouts": rep.timeouts_fired,
                "speculative_wins": rep.speculative_wins,
                "lost_allocations": res.lost_allocations,
            }
    finally:
        set_global_registry(old_reg)
        set_global_tracer(old_tracer)

    overhead_disabled = max(0.0, (t_disabled / t_kernel - 1.0) * 100.0)
    overhead_engine = max(0.0, (t_engine / t_kernel - 1.0) * 100.0)
    return {
        "schema": 1,
        "workload": f"B_{DIM} simulation under CRITPATH "
                    f"({CLIENTS} clients)",
        "sim": {
            "dag": f"B_{DIM}",
            "nodes": len(dag),
            "clients": CLIENTS,
            "kernel_s": round(t_kernel, 6),
            "disabled_s": round(t_disabled, 6),
            "engine_s": round(t_engine, 6),
        },
        "overhead": {
            "disabled_pct": round(overhead_disabled, 3),
            "engine_pct": round(overhead_engine, 3),
            "limit_disabled_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        },
        "scenarios": {
            "dag": f"B_{SCENARIO_DIM}",
            "nodes": len(scenario_dag),
            "clients": SCENARIO_CLIENTS,
            "seed": SEED,
            "results": scenarios,
        },
    }


def _render(record: dict) -> str:
    from repro.analysis import render_table

    s, o = record["sim"], record["overhead"]
    rows = [
        ("frozen reference loop", f"{s['kernel_s'] * 1e3:.3f}", "-"),
        ("simulate(), faults off", f"{s['disabled_s'] * 1e3:.3f}",
         f"{o['disabled_pct']:.2f}%"),
        ("fault server, no faults", f"{s['engine_s'] * 1e3:.3f}",
         f"{o['engine_pct']:.2f}%"),
    ]
    report = render_table(
        ["path", "best ms", "overhead"],
        rows,
        title=f"fault-path overhead on {s['dag']} "
              f"(limit {o['limit_disabled_pct']:.0f}% disabled)",
    )
    scen_rows = [
        (name, r["makespan"], r["retries"], r["timeouts"],
         r["speculative_wins"], r["completed"])
        for name, r in record["scenarios"]["results"].items()
    ]
    report += "\n\n" + render_table(
        ["scenario", "makespan", "retries", "timeouts", "spec-wins",
         "completed"],
        scen_rows,
        title=f"chaos scenarios on {record['scenarios']['dag']} "
              f"({record['scenarios']['clients']} clients, "
              f"seed {record['scenarios']['seed']})",
    )
    return report


def run() -> dict:
    record = collect_record()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-FAULTS_faults", _render(record))
    return record


def test_fault_path_overhead(benchmark):
    dag = butterfly_dag(SCENARIO_DIM)
    plan = FaultPlan.scenario("churn", n_clients=SCENARIO_CLIENTS)
    benchmark(
        lambda: simulate(
            dag, make_policy("CRITPATH"), clients=SCENARIO_CLIENTS,
            seed=SEED, fault_plan=plan,
        )
    )
    record = run()
    assert (record["overhead"]["disabled_pct"]
            < DISABLED_OVERHEAD_LIMIT_PCT), (
        f"faults-disabled dispatch overhead "
        f"{record['overhead']['disabled_pct']}% breaches the "
        f"{DISABLED_OVERHEAD_LIMIT_PCT}% budget"
    )
    for name, r in record["scenarios"]["results"].items():
        assert r["completed"] == record["scenarios"]["nodes"], name


if __name__ == "__main__":
    rec = run()
    print(json.dumps(rec["overhead"], indent=2))
