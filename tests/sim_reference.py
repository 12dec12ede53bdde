"""The frozen ideal-model simulator: the reference for the event loop.

``simulate_reference`` is the ideal-model event loop exactly as
``repro.sim.server`` ran it before the ideal, machine and fault loops
became one kernel, minus its observatory frame capture.  It is kept
unchanged as an oracle: ``tests/test_sim_reference.py`` checks the
live :func:`repro.sim.server.simulate` against it on random dags, and
``benchmarks/bench_{faults,machines,observability}.py`` time it as the
baseline of their ideal-path overhead budgets.  Do not edit it to
follow the kernel; it is the thing the kernel is checked against.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence

from repro.core.dag import ComputationDag, Node
from repro.exceptions import SimulationError
from repro.obs import global_registry, global_tracer, span
from repro.sim.heuristics import Policy
from repro.sim.server import (
    ClientSpec,
    SimulationResult,
    TraceRecord,
    _record_quality,
)

__all__ = ["simulate_reference"]


def simulate_reference(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
) -> SimulationResult:
    """The ideal-model event loop (instant loss detection, no
    timeouts/retries/replication), frozen; see the module docstring."""
    if isinstance(clients, int):
        clients = [ClientSpec() for _ in range(clients)]
    if not clients:
        raise SimulationError("need at least one client")
    work_fn = work if callable(work) else (lambda _v, _w=float(work): _w)
    rng = random.Random(seed)
    policy.attach(dag)

    reg = global_registry()
    m_alloc = reg.counter("sim_allocations_total",
                          "tasks handed to clients")
    m_done = reg.counter("sim_completions_total",
                         "task results received by the server")
    m_lost = reg.counter("sim_losses_total",
                         "allocations lost (client vanished)")
    m_starve = reg.counter(
        "sim_starvation_total",
        "client requests that found no allocatable task")
    g_allocatable = reg.gauge(
        "sim_allocatable",
        "allocatable (eligible, unallocated) tasks at the latest "
        "simulation step")
    g_eligible = reg.gauge(
        "sim_eligible",
        "ELIGIBLE unexecuted tasks (allocatable + in flight) at the "
        "latest simulation step")
    g_completed = reg.gauge(
        "sim_completed",
        "tasks completed at the latest simulation step")
    m_steps = reg.counter(
        "sim_steps_total", "simulation event-loop steps processed")
    tracer = global_tracer()

    pending_parents = {v: dag.indegree(v) for v in dag.nodes}
    # allocatable = eligible and not yet handed to a client, in
    # eligibility order (FIFO semantics for the baseline).
    allocatable: list[Node] = [v for v in dag.nodes if pending_parents[v] == 0]
    allocated: set[Node] = set()
    done: set[Node] = set()

    # event queue: (time, tiebreak, kind, payload)
    counter = itertools.count()
    events: list[tuple[float, int, str, int, Node | None]] = []
    idle_clients: list[int] = []
    idle_since: dict[int, float] = {}
    busy_time = 0.0
    idle_time = 0.0
    starvation = 0
    headroom: list[tuple[float, int]] = [(0.0, len(allocatable))]

    lost_allocations = 0
    wasted_work = 0.0
    trace: list[TraceRecord] = []

    def try_allocate(client_id: int, now: float) -> bool:
        nonlocal busy_time, lost_allocations, wasted_work
        if not allocatable:
            return False
        task = policy.select(allocatable)
        allocatable.remove(task)
        allocated.add(task)
        spec = clients[client_id]
        duration = work_fn(task) / spec.speed
        if spec.dropout and rng.random() < spec.dropout:
            duration *= spec.slowdown
        duration += comm_per_input * dag.indegree(task)
        lost = bool(spec.loss) and rng.random() < spec.loss
        if lost:
            lost_allocations += 1
            wasted_work += duration
        else:
            busy_time += duration
        kind = "lost" if lost else "done"
        m_alloc.inc()
        tracer.event("sim.allocate", client=client_id, task=str(task),
                     t=now, kind=kind)
        if record_trace:
            trace.append(
                TraceRecord(client_id, task, now, now + duration, kind)
            )
        heapq.heappush(
            events, (now + duration, next(counter), kind, client_id, task)
        )
        return True

    def publish_step() -> None:
        # the per-step series the live dashboard (`repro watch`)
        # renders: latest-value gauges, one write each per event.
        g_allocatable.set(len(allocatable))
        g_eligible.set(len(allocatable) + len(allocated))
        g_completed.set(len(done))

    with span("sim.simulate", dag=dag.name, policy=policy.name,
              clients=len(clients)):
        now = 0.0
        for cid in range(len(clients)):
            if not try_allocate(cid, now):
                starvation += 1
                m_starve.inc()
                idle_clients.append(cid)
                idle_since[cid] = now
        headroom.append((now, len(allocatable)))
        publish_step()

        while events:
            now, _tb, kind, cid, task = heapq.heappop(events)
            m_steps.inc()
            assert task is not None
            if kind == "lost":
                # server detects the loss; the task goes back in the pool
                allocated.discard(task)
                allocatable.append(task)
                m_lost.inc()
                tracer.event("sim.loss", client=cid, task=str(task), t=now)
            else:
                allocated.discard(task)
                done.add(task)
                m_done.inc()
                tracer.event("sim.complete", client=cid, task=str(task),
                             t=now)
                for child in dag.children(task):
                    pending_parents[child] -= 1
                    if pending_parents[child] == 0:
                        allocatable.append(child)
            # wake idle clients while work exists
            while idle_clients and allocatable:
                wid = idle_clients.pop(0)
                idle_time += now - idle_since.pop(wid)
                try_allocate(wid, now)
            # the finishing client requests again
            if not try_allocate(cid, now):
                if len(done) < len(dag):
                    starvation += 1
                    m_starve.inc()
                idle_clients.append(cid)
                idle_since[cid] = now
            headroom.append((now, len(allocatable)))
            publish_step()

    if len(done) != len(dag):
        raise SimulationError(
            f"simulation stalled: {len(done)}/{len(dag)} tasks done"
        )
    for wid in idle_clients:
        # trailing idleness up to makespan
        idle_time += now - idle_since.pop(wid, now)
    makespan = now
    util = (
        busy_time / (len(clients) * makespan) if makespan > 0 else 1.0
    )
    result = SimulationResult(
        policy=policy.name,
        makespan=makespan,
        starvation_events=starvation,
        idle_time=idle_time,
        utilization=util,
        headroom_series=headroom,
        completed=len(done),
        lost_allocations=lost_allocations,
        wasted_work=wasted_work,
        trace=trace,
    )
    _record_quality(reg, result)
    return result
