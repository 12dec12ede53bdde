"""E-MACHINES — machine-model overhead budget and crossover sweep.

The pluggable machine layer (``repro.sim.machines``) answers ROADMAP
item 3: *when does IC-optimality still win once communication and
memory are not free?*  This bench guards both halves of that feature:

* **overhead** — the ``machine=`` dispatch must cost nothing when the
  machine is ideal.  The frozen ideal-model event loop
  (``tests/sim_reference.py``) is timed against the public
  ``simulate(..., machine="ideal")`` and the two results are asserted
  byte-identical before any number is recorded; the relative overhead
  is gated **under 5%** by ``tools/check_bench_regression.py``
  (mirroring the observability / faults / durability budgets);
* **sweep** — IC-OPT and the baselines (FIFO, RANDOM, plus the
  DAGPS-inspired PACKING and TROUBLESOME) race across every machine
  model on two workload families.  Seeded event-driven simulation is
  **deterministic and machine-independent**, so the per-cell makespans
  are compared against the committed baseline exactly — a drift means
  the machine semantics changed, which must be a deliberate,
  baseline-updating decision.  The rendered report names, per family x
  machine, whether IC-OPT still wins (the EXPERIMENTS.md E-MACHINES
  verdicts come from here).

Run standalone (``python benchmarks/bench_machines.py``) or under
pytest-benchmark; the fresh record lands in
``benchmarks/out/BENCH_machines.json`` and the committed baseline in
``benchmarks/BENCH_machines.json``.
"""

from __future__ import annotations

import json
import time

from repro.core import schedule_dag
from repro.families.butterfly_net import butterfly_dag
from repro.families.mesh import out_mesh_dag
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_global_registry,
    set_global_tracer,
)
from repro.sim import compare_policies, make_policy, simulate

from _harness import OUT_DIR, reference_simulate, write_report

FRESH_RECORD = OUT_DIR / "BENCH_machines.json"

#: timing workload: large enough that dispatch overhead is measured
#: against a stable denominator.
DIM = 7
CLIENTS = 8
SEED = 1
REPEATS = 5
#: hard ceiling on the ideal-machine dispatch overhead, in percent
#: (gated by tools/check_bench_regression.py).
IDEAL_OVERHEAD_LIMIT_PCT = 5.0

#: sweep configuration: every machine x policy cell is deterministic.
SWEEP_CLIENTS = 4
SWEEP_SEED = 0
MACHINES = (
    "ideal",
    "bsp:g=1,L=2",
    "memcap:cap=2",
    "hetero:spread=0.5,seed=1",
)
POLICIES = ("FIFO", "RANDOM", "PACKING", "TROUBLESOME")


def _families() -> dict:
    return {
        "B_4": butterfly_dag(4),
        "M_6": out_mesh_dag(6),
    }


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

    old_reg = set_global_registry(MetricsRegistry())
    old_tracer = set_global_tracer(Tracer())
    try:
        t_kernel, r_kernel = _best_of(
            REPEATS,
            lambda: simulate_reference(
                dag, make_policy("CRITPATH"), clients=CLIENTS, seed=SEED
            ),
        )
        t_ideal, r_ideal = _best_of(
            REPEATS,
            lambda: simulate(
                dag, make_policy("CRITPATH"), clients=CLIENTS,
                seed=SEED, machine="ideal",
            ),
        )
        assert r_ideal == r_kernel, (
            "simulate(machine='ideal') diverged from the reference loop"
        )

        sweep: dict[str, dict] = {}
        for fam_name, fam_dag in _families().items():
            sched = schedule_dag(fam_dag).schedule
            per_machine: dict[str, dict] = {}
            for machine in MACHINES:
                cmp = compare_policies(
                    fam_dag, sched, clients=SWEEP_CLIENTS,
                    policies=POLICIES, seed=SWEEP_SEED,
                    machine=None if machine == "ideal" else machine,
                )
                makespans = {
                    name: round(res.makespan, 6)
                    for name, res in cmp.results.items()
                }
                for name, res in cmp.results.items():
                    assert res.completed == len(fam_dag), (
                        f"{fam_name}/{machine}/{name} lost tasks"
                    )
                best = min(makespans, key=makespans.get)
                per_machine[machine] = {
                    "makespans": makespans,
                    "best": best,
                    "ic_wins": makespans["IC-OPT"] <= makespans[best],
                }
            sweep[fam_name] = {
                "nodes": len(fam_dag),
                "machines": per_machine,
            }
    finally:
        set_global_registry(old_reg)
        set_global_tracer(old_tracer)

    overhead_ideal = max(0.0, (t_ideal / t_kernel - 1.0) * 100.0)
    return {
        "schema": 1,
        "workload": f"B_{DIM} simulation under CRITPATH "
                    f"({CLIENTS} clients)",
        "sim": {
            "dag": f"B_{DIM}",
            "nodes": len(dag),
            "clients": CLIENTS,
            "kernel_s": round(t_kernel, 6),
            "ideal_s": round(t_ideal, 6),
        },
        "overhead": {
            "ideal_pct": round(overhead_ideal, 3),
            "limit_ideal_pct": IDEAL_OVERHEAD_LIMIT_PCT,
        },
        "sweep": {
            "clients": SWEEP_CLIENTS,
            "seed": SWEEP_SEED,
            "policies": ["IC-OPT", *POLICIES],
            "families": sweep,
        },
    }


def _render(record: dict) -> str:
    from repro.analysis import render_table

    s, o = record["sim"], record["overhead"]
    report = render_table(
        ["path", "best ms", "overhead"],
        [
            ("frozen reference loop", f"{s['kernel_s'] * 1e3:.3f}", "-"),
            ("simulate(machine='ideal')", f"{s['ideal_s'] * 1e3:.3f}",
             f"{o['ideal_pct']:.2f}%"),
        ],
        title=f"machine-dispatch overhead on {s['dag']} "
              f"(limit {o['limit_ideal_pct']:.0f}%)",
    )
    sweep = record["sweep"]
    for fam_name, fam in sweep["families"].items():
        rows = []
        for machine, cell in fam["machines"].items():
            m = cell["makespans"]
            rows.append((
                machine,
                *(m[p] for p in sweep["policies"]),
                cell["best"],
                "yes" if cell["ic_wins"] else "NO",
            ))
        report += "\n\n" + render_table(
            ["machine", *sweep["policies"], "best", "IC wins"],
            rows,
            title=f"{fam_name} ({fam['nodes']} nodes, "
                  f"{sweep['clients']} clients, seed {sweep['seed']})",
        )
    return report


def run() -> dict:
    record = collect_record()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-MACHINES_machines", _render(record))
    return record


def test_machine_sweep(benchmark):
    dag = butterfly_dag(4)
    sched = schedule_dag(dag).schedule
    benchmark(
        lambda: simulate(
            dag, make_policy("IC-OPT", sched), clients=SWEEP_CLIENTS,
            seed=SWEEP_SEED, machine="bsp:g=1,L=2",
        )
    )


if __name__ == "__main__":
    run()
