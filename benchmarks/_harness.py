"""Shared helpers for the benchmark/experiment harness.

Each bench regenerates one experiment row of DESIGN.md: it rebuilds the
paper artifact (figure dag / boxed claim), verifies the claim, renders
the reproduced rows/series with :mod:`repro.analysis.reporting`, and
writes them to ``benchmarks/out/<experiment>.txt`` (also echoed to
stdout, visible with ``pytest -s``).  pytest-benchmark times the
representative kernel of each experiment.
"""

from __future__ import annotations

import importlib.util
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"
REPO = pathlib.Path(__file__).resolve().parent.parent


def reference_simulate():
    """The frozen ideal-model event loop (``tests/sim_reference.py``):
    the baseline the ideal-path overhead budgets are measured against."""
    path = REPO / "tests" / "sim_reference.py"
    spec = importlib.util.spec_from_file_location("sim_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.simulate_reference


def write_report(experiment: str, text: str) -> None:
    """Persist (and echo) one experiment's regenerated artifact."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {experiment} ===\n{text}")


def policy_table(dag, schedule, clients=8, seed=0):
    """The standard IC-OPT-vs-baselines simulation table used by
    several experiments."""
    from repro.analysis import render_table
    from repro.sim import compare_policies

    cmp = compare_policies(dag, schedule, clients=clients, seed=seed)
    n = clients if isinstance(clients, int) else len(clients)
    return render_table(
        ["policy", "makespan", "starvation", "idle", "util",
         "headroom", "seed"],
        cmp.table_rows(),
        title=f"{dag.name}: {n} clients",
    )
