#!/usr/bin/env python3
"""Write (or check) the simulator golden fixture ``tests/data/sim_golden.json``.

The fixture pins the event-driven simulator's exact output across
every machine model crossed with every server side: no fault
machinery, the default :class:`~repro.sim.faults.ServerPolicy`, each
canned chaos scenario, and a custom corruption plan under
``replicas=2``.  Dags, policies, client sets and ``comm_per_input``
rotate across the cells, and every run records its trace.

Each cell stores the makespan and a SHA-256 over the whole
:class:`~repro.sim.server.SimulationResult` (trace, headroom series,
idle time, utilization, fault and machine reports), serialized
canonically so the digest does not depend on ``PYTHONHASHSEED``.  A
cell whose run raises stores the error instead.  Run from the
repository root::

    python tools/gen_sim_golden.py           # rewrite the fixture
    python tools/gen_sim_golden.py --check   # exit 1 on any drift

The fixture is a regression pin: regenerate it only for a deliberate,
reviewed change of simulation semantics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import schedule_dag  # noqa: E402
from repro.families.butterfly_net import butterfly_dag  # noqa: E402
from repro.families.matmul_dag import strassen_dag  # noqa: E402
from repro.families.mesh import out_mesh_dag  # noqa: E402
from repro.families.prefix import prefix_dag  # noqa: E402
from repro.sim import (  # noqa: E402
    FAULT_SCENARIOS,
    ClientSpec,
    FaultPlan,
    ServerPolicy,
    make_policy,
    simulate,
)
from repro.sim.server import TraceRecord  # noqa: E402

FIXTURE = REPO / "tests" / "data" / "sim_golden.json"

MACHINES = ("ideal", "bsp:g=1,L=2", "memcap:cap=2",
            "hetero:spread=0.5,seed=1")
SERVERS = ("none", "policy", *sorted(FAULT_SCENARIOS), "corrupt")
DAGS = {
    "B_3": lambda: butterfly_dag(3),
    "M_5": lambda: out_mesh_dag(5),
    "P_8": lambda: prefix_dag(8),
    "Strassen": strassen_dag,
}
POLICIES = ("FIFO", "CRITPATH", "RANDOM", "IC-OPT", "TROUBLESOME",
            "LIFO", "PACKING")
CLIENT_SETS = {
    "unit": [ClientSpec() for _ in range(4)],
    "hetero": [
        ClientSpec(speed=1.0),
        ClientSpec(speed=2.0, dropout=0.3),
        ClientSpec(speed=0.5, dropout=0.2, slowdown=3.0),
        ClientSpec(speed=1.5),
        ClientSpec(speed=0.75, dropout=0.4),
    ],
    "lossy": [
        ClientSpec(loss=0.2),
        ClientSpec(speed=1.5, loss=0.1),
        ClientSpec(loss=0.3, dropout=0.2),
    ],
}
SEED = 3


def cells() -> list[dict]:
    """Every (machine, server) pair, with the other inputs rotated."""
    out = []
    i = 0
    for machine in MACHINES:
        for server in SERVERS:
            dag = list(DAGS)[i % len(DAGS)]
            policy = POLICIES[(i + i // len(SERVERS)) % len(POLICIES)]
            clients = list(CLIENT_SETS)[i % len(CLIENT_SETS)]
            comm = (0.0, 0.5)[(i // 2) % 2]
            out.append({
                "id": f"{machine}|{server}|{dag}|{policy}|{clients}"
                      f"|comm={comm}",
                "machine": machine, "server": server, "dag": dag,
                "policy": policy, "clients": clients, "comm": comm,
            })
            i += 1
    return out


def _server_kwargs(server: str, n_clients: int) -> dict:
    if server == "none":
        return {}
    if server == "policy":
        return {"server_policy": ServerPolicy()}
    if server == "corrupt":
        return {"server_policy": ServerPolicy(replicas=2),
                "fault_plan": FaultPlan(corrupt_rate=0.1, seed=2,
                                        name="corrupt")}
    return {"fault_plan": FaultPlan.scenario(server, n_clients=n_clients,
                                             seed=SEED)}


def run_cell(cell: dict):
    """Simulate one cell; returns the :class:`SimulationResult`."""
    dag = DAGS[cell["dag"]]()
    if cell["policy"] == "IC-OPT":
        policy = make_policy("IC-OPT", schedule_dag(dag).schedule)
    else:
        policy = make_policy(cell["policy"])
    clients = CLIENT_SETS[cell["clients"]]
    return simulate(
        dag, policy, clients, seed=SEED,
        comm_per_input=cell["comm"], record_trace=True,
        machine=None if cell["machine"] == "ideal" else cell["machine"],
        **_server_kwargs(cell["server"], len(clients)),
    )


def _canon(value):
    """A JSON-ready form whose serialization is hash-seed independent
    (nodes by ``repr``, floats by their exact ``repr``)."""
    if isinstance(value, TraceRecord):
        return [value.client_id, repr(value.task), value.start,
                value.end, value.kind]
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(result) -> str:
    """SHA-256 over every field of a :class:`SimulationResult`."""
    blob = json.dumps(_canon(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pin(cell: dict) -> dict:
    """The fixture entry for one cell."""
    try:
        result = run_cell(cell)
    except Exception as exc:  # a deterministic failure is pinned too
        return {"id": cell["id"],
                "error": f"{type(exc).__name__}: {exc}"}
    return {"id": cell["id"], "makespan": result.makespan,
            "sha256": digest(result)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the fixture instead of "
                         "rewriting it")
    args = ap.parse_args(argv)
    entries = [pin(cell) for cell in cells()]
    if args.check:
        expected = json.loads(FIXTURE.read_text())["cells"]
        drift = [e["id"] for e, x in zip(entries, expected) if e != x]
        if len(entries) != len(expected):
            drift.append(f"{len(entries)} cells != {len(expected)}")
        for line in drift:
            print(f"DRIFT: {line}")
        return 1 if drift else 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps({"seed": SEED, "cells": entries},
                                  indent=1) + "\n")
    print(f"wrote {len(entries)} cells -> {FIXTURE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
