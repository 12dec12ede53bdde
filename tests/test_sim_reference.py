"""Differential test: the simulation kernel against the frozen ideal loop.

:func:`repro.sim.server.simulate` with no server policy, fault plan or
machine must reproduce :func:`tests.sim_reference.simulate_reference`
exactly — makespan, accounting, headroom series and trace — on random
dags and random heterogeneous, dropout-prone and lossy clients.
"""

from __future__ import annotations

import random

from repro.core.dag import ComputationDag
from repro.sim import ClientSpec, make_policy, simulate

from .sim_reference import simulate_reference

CASES = 240
POLICIES = ("FIFO", "LIFO", "RANDOM", "MAXOUT", "CRITPATH", "PACKING",
            "TROUBLESOME")


def random_case(seed: int) -> dict:
    """A random low→high dag of 2–40 nodes plus random clients."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    density = rng.uniform(0.02, 0.4)
    names = ([f"t{i}" for i in range(n)] if rng.random() < 0.5
             else list(range(n)))
    arcs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]
    dag = ComputationDag(nodes=names, arcs=arcs, name=f"rand{seed}")
    clients = [
        ClientSpec(
            speed=rng.uniform(0.25, 3.0),
            dropout=rng.choice((0.0, rng.uniform(0.0, 0.5))),
            slowdown=rng.uniform(1.0, 5.0),
            loss=rng.choice((0.0, 0.0, rng.uniform(0.0, 0.4))),
        )
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.5:
        work = rng.choice((1.0, 0.5, 2.0))
    else:
        weights = {v: rng.uniform(0.1, 3.0) for v in names}
        work = weights.__getitem__
    return {
        "dag": dag,
        "policy": rng.choice(POLICIES),
        "clients": clients,
        "work": work,
        "seed": rng.randrange(1000),
        "comm": rng.choice((0.0, 0.0, rng.uniform(0.0, 1.0))),
    }


def _run(fn, case: dict):
    return fn(case["dag"], make_policy(case["policy"]), case["clients"],
              case["work"], case["seed"], case["comm"], True)


def test_kernel_matches_frozen_reference():
    mismatched = []
    lossy = 0
    for seed in range(CASES):
        case = random_case(seed)
        expected = _run(simulate_reference, case)
        got = _run(simulate, case)
        if got != expected:
            mismatched.append(seed)
        lossy += expected.lost_allocations > 0
    assert not mismatched, f"kernel diverged on case seeds {mismatched}"
    # the generator must exercise the requeue path, not just clean runs
    assert lossy >= CASES // 10
