"""The event-driven IC server/client simulation.

This is the assessment substrate standing in for the external
simulation studies the paper cites ([15], [19] — Condor/DAGMan traces
we do not have; see DESIGN.md "Substitutions").  The model:

* an **IC server** owns the dag and allocates one task per client
  request, chosen among ELIGIBLE-and-unallocated tasks by the active
  :class:`~repro.sim.heuristics.Policy`;
* **remote clients** pull work: each requests a task immediately, and
  again as soon as it finishes one; a client that finds no allocatable
  task goes idle — a **starvation event**, the "gridlock" precursor of
  Section 1 — and is woken by the next task completion;
* task *k* takes ``work(k) / speed(client)`` time units; heterogeneous
  speeds make completion order diverge from allocation order, which is
  precisely the regime where eligibility headroom pays off.

Every run goes through one event loop, :class:`_Kernel`: one frontier,
one event heap, one registration of the ``sim_*`` metrics, one
observatory frame publisher and one result assembly.  A machine model
(:mod:`repro.sim.machines`) plugs into it through the
:class:`~repro.sim.machines.MachineModel` hooks; the ideal machine is
``None`` and skips them.  The server is the one behaviour that
differs, and :func:`simulate` picks it from its inputs: without a
``server_policy`` or ``fault_plan`` the kernel is the ideal server
below; with either, :mod:`repro.sim.faults` runs its fault-tolerant
server (timeouts, backoff, speculation, replicas, quarantine, scripted
faults) on the same kernel.

Reported metrics: makespan, client utilization, starvation counts and
idle time, and the eligible/allocatable headroom time-series.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.specs import MachineSpec
    from .faults import FaultPlan, FaultReport, ServerPolicy
    from .machines import MachineModel, MachineReport

from ..exceptions import SimulationError
from ..core.dag import ComputationDag, Node
from ..obs import global_registry, global_tracer, span
from ..obs.context import current_request_id
from ..obs.observatory import global_frame_store
from .heuristics import Policy
from .machines import _record_machine, resolve_machine

__all__ = [
    "ClientSpec",
    "SimulationResult",
    "TraceRecord",
    "simulate",
]


class TraceRecord(NamedTuple):
    """One allocation in a simulation trace.

    Index-compatible with the bare ``(client_id, task, start, end,
    kind)`` tuples earlier versions recorded, so positional consumers
    (``analysis.ascii_dag.render_gantt``, archived traces) keep
    working; new code should use the field names.
    """

    #: index of the client the task was allocated to
    client_id: int
    #: the task (dag node)
    task: Node
    #: allocation time
    start: float
    #: completion (or loss-detection) time
    end: float
    #: ``"done"`` or ``"lost"``
    kind: str


@dataclass(frozen=True)
class ClientSpec:
    """A remote client.

    ``speed``
        Relative speed; a task of work *w* computes in ``w / speed``.
    ``dropout`` / ``slowdown``
        Probability that a task's result is late, and the factor by
        which it is delayed when so.
    ``loss``
        Probability that a task's result never arrives at all — the
        client vanished.  The server detects the loss after the task's
        nominal duration, returns the task to the allocatable pool (it
        was never executed, so no recomputation rule is violated), and
        the wasted client time is accounted.  This is the failure mode
        behind the paper's "gridlock" concern: already-allocated tasks
        that block progress.  Must be < 1 so runs terminate.
    """

    speed: float = 1.0
    dropout: float = 0.0
    slowdown: float = 4.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.speed > 0.0:
            raise SimulationError(
                f"client speed must be > 0, got {self.speed}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise SimulationError(
                f"dropout probability must be in [0, 1), got "
                f"{self.dropout}"
            )
        if not self.slowdown >= 1.0:
            raise SimulationError(
                f"slowdown factor must be >= 1, got {self.slowdown}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise SimulationError(
                f"loss probability must be in [0, 1), got {self.loss}"
            )


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    policy: str
    makespan: float
    #: requests that found no allocatable task (computation unfinished)
    starvation_events: int
    #: total client-time spent idle waiting for work
    idle_time: float
    #: busy_time / (n_clients * makespan)
    utilization: float
    #: (time, allocatable_count) sampled at every event
    headroom_series: list[tuple[float, int]] = field(repr=False, default_factory=list)
    #: number of tasks executed (== |dag| on success)
    completed: int = 0
    #: allocations whose result was lost (client vanished)
    lost_allocations: int = 0
    #: client-time burnt on lost allocations
    wasted_work: float = 0.0
    #: per-allocation :class:`TraceRecord` entries; populated only
    #: when ``simulate(..., record_trace=True)`` (guaranteed empty —
    #: not merely discarded — on the non-trace path)
    trace: list[TraceRecord] = field(repr=False, default_factory=list)
    #: fault-path accounting (:class:`~repro.sim.faults.FaultReport`);
    #: ``None`` on the ideal (no server policy, no fault plan) path
    fault_report: "FaultReport | None" = None
    #: machine-model accounting
    #: (:class:`~repro.sim.machines.MachineReport`); ``None`` on the
    #: ideal machine (the default), so ideal results stay byte-
    #: identical to the pre-machine simulator
    machine_report: "MachineReport | None" = None

    @property
    def mean_headroom(self) -> float:
        """Time-averaged allocatable-task count."""
        if len(self.headroom_series) < 2:
            return 0.0
        area = 0.0
        for (t0, h), (t1, _h1) in zip(
            self.headroom_series, self.headroom_series[1:]
        ):
            area += h * (t1 - t0)
        span = self.headroom_series[-1][0] - self.headroom_series[0][0]
        return area / span if span > 0 else 0.0


def simulate(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    *,
    server_policy: "ServerPolicy | None" = None,
    fault_plan: "FaultPlan | None" = None,
    machine: "MachineSpec | MachineModel | str | None" = None,
) -> SimulationResult:
    """Simulate executing ``dag`` on remote clients under ``policy``.

    Parameters
    ----------
    clients:
        Client specs, or an int for that many unit-speed clients.
    work:
        Per-task work (callable or constant).
    seed:
        Drives dropout sampling and work jitter reproducibly.
    comm_per_input:
        Internet transfer cost per task input (future thrust 3 of
        Section 8): a task with indegree ``k`` pays an extra
        ``comm_per_input * k`` before computing — *not* scaled by
        client speed, since it is network- not CPU-bound.  Coarsening
        a dag reduces total indegree (cut arcs), which is exactly the
        granularity trade-off of Figs. 3/7.
    record_trace:
        Record one :class:`TraceRecord` per allocation into
        ``SimulationResult.trace``.  Off by default; the trace list
        stays empty (nothing is even appended) on the non-trace path.
    server_policy / fault_plan:
        Switch to the realistic failure model of
        :mod:`repro.sim.faults`: timeout-based loss detection, retry
        with backoff, speculative re-execution, k-replication, and
        quarantine under an injected chaos script.  Passing either (a
        :class:`~repro.sim.faults.ServerPolicy` /
        :class:`~repro.sim.faults.FaultPlan`) runs the fault-tolerant
        server via :func:`~repro.sim.faults.simulate_with_faults` and
        populates ``SimulationResult.fault_report``; the default (both
        ``None``) keeps the ideal server and its exact event sequence.
    machine:
        A machine model (``docs/MACHINES.md``): a spec string
        (``"bsp:g=1.0"``), a :class:`~repro.api.specs.MachineSpec`, or
        a ready :class:`~repro.sim.machines.MachineModel`.  ``None``
        and ``"ideal"`` keep today's free-communication semantics
        (pinned by ``benchmarks/bench_machines.py``); any other kind
        threads the model's hooks through the kernel — under either
        server, so fault plans compose with any machine — and
        populates ``SimulationResult.machine_report``.

    Allocation/completion/loss/starvation counts, the per-step
    eligibility / allocatable / completed gauges, and (on completion)
    the per-policy ``sim_quality_*`` series are recorded into the
    process-wide metrics registry — this is what ``repro watch``
    renders live; with tracing enabled, every allocation outcome also
    emits a structured trace event under the ``sim.simulate`` span.
    """
    model = None if machine is None else resolve_machine(machine)
    if server_policy is not None or fault_plan is not None:
        from .faults import simulate_with_faults

        return simulate_with_faults(
            dag, policy, clients, work, seed, comm_per_input,
            record_trace, server_policy=server_policy,
            fault_plan=fault_plan, machine=model,
        )
    return _Kernel(dag, policy, clients, work, seed, comm_per_input,
                   record_trace, model).run()


class _Attempt:
    """One allocation of a task to a client.  The ideal server runs at
    most one attempt per task; the fault-tolerant server may race
    several (retries against written-off stragglers, speculative
    copies, eager replicas) and tracks their fate in the flags."""

    __slots__ = ("task", "client", "start", "duration", "nominal", "lost",
                 "speculative", "replica", "delay", "arrived",
                 "written_off", "vanished", "vanish_time", "traced")

    def __init__(self, task: Node, client: int, start: float,
                 duration: float, nominal: float, lost: bool,
                 speculative: bool, replica: bool) -> None:
        self.task = task
        self.client = client
        self.start = start
        self.duration = duration  # true wall time until the result arrives
        self.nominal = nominal    # the server's expectation (no slowdown)
        self.lost = lost          # result silently never arrives
        self.speculative = speculative
        self.replica = replica
        self.delay = 0.0          # accrued stall delay, applied at finish
        self.arrived = False
        self.written_off = False
        self.vanished = False     # client crashed mid-flight
        self.vanish_time = 0.0
        self.traced = False


class _Kernel:
    """The simulation event loop behind :func:`simulate`.

    It owns the frontier (pending-parent counts, the allocatable list in
    eligibility order, the done set, live attempts per task), one event
    heap of ``(time, tiebreak, kind, item)`` entries, the ``sim_*``
    metrics, the observatory frame publisher and the result assembly.
    The machine model, if any, is consulted through its hooks.

    This class is also the *ideal server*: a lost result is noticed when
    it was due and its task requeued at once, idle clients are served
    before the client that just finished, and trace records are written
    at allocation.  :class:`repro.sim.faults._FaultServer` overrides the
    server hooks (``_request``, ``_dispatch``, ``_launched``,
    ``_on_finish``, ``_stalled``, ``_settle``, ``_capacity``) and adds
    its own event kinds.
    """

    __slots__ = (
        "dag", "policy", "clients", "work_fn", "rng", "comm_per_input",
        "record_trace", "machine", "span_attrs", "reg", "tracer",
        "m_alloc", "m_done", "m_lost", "m_starve", "m_steps",
        "g_allocatable", "g_eligible", "g_completed",
        "total", "children", "indegree", "pending_parents", "allocatable",
        "done", "done_order", "in_flight", "backing_off",
        "current", "idle", "idle_since", "busy_time", "idle_time",
        "starvation", "lost_allocations", "wasted_work", "headroom",
        "trace", "fault_report", "events", "_tb", "handlers",
        "frame_store", "channel", "frame_events", "frame_step",
    )

    def __init__(self, dag: ComputationDag, policy: Policy,
                 clients: Sequence[ClientSpec] | int,
                 work: Callable[[Node], float] | float, seed: int,
                 comm_per_input: float, record_trace: bool,
                 machine: "MachineModel | None") -> None:
        if isinstance(clients, int):
            clients = [ClientSpec() for _ in range(clients)]
        else:
            clients = list(clients)
        if not clients:
            raise SimulationError("need at least one client")
        self.dag = dag
        self.policy = policy
        self.clients = clients
        self.work_fn = (work if callable(work)
                        else (lambda _v, _w=float(work): _w))
        #: client-behaviour stream (dropout/loss draws)
        self.rng = random.Random(seed)
        self.comm_per_input = comm_per_input
        self.record_trace = record_trace
        self.machine = machine
        policy.attach(dag)
        if machine is not None:
            machine.attach(dag, len(clients), self.work_fn)
        self.span_attrs = {"dag": dag.name, "policy": policy.name,
                           "clients": len(clients)}
        if machine is not None:
            self.span_attrs["machine"] = machine.kind

        reg = self.reg = global_registry()
        self.m_alloc = reg.counter("sim_allocations_total",
                                   "tasks handed to clients")
        self.m_done = reg.counter("sim_completions_total",
                                  "task results received by the server")
        self.m_lost = reg.counter("sim_losses_total",
                                  "allocations lost (client vanished)")
        self.m_starve = reg.counter(
            "sim_starvation_total",
            "client requests that found no allocatable task")
        self.g_allocatable = reg.gauge(
            "sim_allocatable",
            "allocatable (eligible, unallocated) tasks at the latest "
            "simulation step")
        self.g_eligible = reg.gauge(
            "sim_eligible",
            "ELIGIBLE unexecuted tasks (allocatable + in flight) at the "
            "latest simulation step")
        self.g_completed = reg.gauge(
            "sim_completed",
            "tasks completed at the latest simulation step")
        self.m_steps = reg.counter(
            "sim_steps_total", "simulation event-loop steps processed")
        self.tracer = global_tracer()

        # -- frontier -------------------------------------------------
        # adjacency read once, in the dag's own child order
        nodes = dag.nodes
        self.total = len(nodes)
        self.children: dict[Node, list[Node]] = {v: [] for v in nodes}
        self.indegree = dict.fromkeys(nodes, 0)
        for u, v in dag.arcs:
            self.children[u].append(v)
            self.indegree[v] += 1
        self.pending_parents = dict(self.indegree)
        #: eligible and not yet handed to a client, in eligibility
        #: order (FIFO semantics for the baseline)
        self.allocatable: list[Node] = [
            v for v, k in self.indegree.items() if k == 0
        ]
        self.done: set[Node] = set()
        #: ``done`` in completion order, append-only (a task never
        #: leaves ``done``): each frame keeps this list and its length
        self.done_order: list[Node] = []
        #: task -> its live attempts in launch order: what the server
        #: believes is in flight
        self.in_flight: dict[Node, list[_Attempt]] = {}
        #: failed tasks waiting out a retry backoff (fault server only)
        self.backing_off: set[Node] = set()

        # -- clients and accounting -----------------------------------
        self.current: list[_Attempt | None] = [None] * len(clients)
        self.idle: list[int] = []
        self.idle_since: dict[int, float] = {}
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.starvation = 0
        self.lost_allocations = 0
        self.wasted_work = 0.0
        self.headroom: list[tuple[float, int]] = [
            (0.0, len(self.allocatable))
        ]
        self.trace: list[TraceRecord] = []
        self.fault_report: "FaultReport | None" = None

        self.events: list[tuple] = []
        self._tb = itertools.count()
        self.handlers = {"finish": self._on_finish,
                         "release": self._on_release}

        # -- observatory frame capture (docs/OBSERVABILITY.md §7) -----
        # resolved once per run, like the tracer's enabled flag: with
        # the global store disabled (the default) `channel` stays None
        # and each step pays one pointer comparison.
        self.frame_store = global_frame_store()
        self.channel = (
            self.frame_store.channel(dag, clients=len(clients),
                                     policy=policy.name)
            if self.frame_store.enabled else None
        )
        self.frame_events: list[dict] = []
        self.frame_step = 0

    def _push(self, time: float, kind: str, item) -> None:
        heapq.heappush(self.events, (time, next(self._tb), kind, item))

    # -- allocation ---------------------------------------------------
    def _launch(self, cid: int, task: Node, now: float,
                speculative: bool = False, replica: bool = False) -> None:
        """Start an attempt of ``task`` on client ``cid``."""
        spec = self.clients[cid]
        compute = self.work_fn(task)
        machine = self.machine
        if machine is not None:
            # the machine transforms the task's work (hetero duration
            # factors) before the client-speed division
            compute = machine.duration(task, cid, compute)
            machine.on_start(task, cid, now)
        base = compute / spec.speed
        duration = base
        if spec.dropout and self.rng.random() < spec.dropout:
            duration *= spec.slowdown
        comm = self.comm_per_input * self.indegree[task]
        duration += comm
        lost = bool(spec.loss) and self.rng.random() < spec.loss
        att = _Attempt(task, cid, now, duration, base + comm, lost,
                       speculative, replica)
        self.in_flight.setdefault(task, []).append(att)
        self.current[cid] = att
        self.m_alloc.inc()
        self._push(now + duration, "finish", att)
        self._launched(att, now)

    def _launched(self, att: _Attempt, now: float) -> None:
        """Server hook: account a fresh attempt.  The ideal server
        books its time and writes its trace record up front."""
        if att.lost:
            self.lost_allocations += 1
            self.wasted_work += att.duration
        else:
            self.busy_time += att.duration
        kind = "lost" if att.lost else "done"
        if self.tracer.enabled:
            self.tracer.event("sim.allocate", client=att.client,
                              task=str(att.task), t=now, kind=kind)
        if self.record_trace:
            self.trace.append(TraceRecord(
                att.client, att.task, now, now + att.duration, kind))

    def _request(self, cid: int, now: float) -> None:
        """Server hook: free client ``cid`` asks for work.  It gets the
        policy's pick among the tasks the machine will place on it, or
        goes idle — a starvation event when nothing is allocatable."""
        allocatable = self.allocatable
        if allocatable:
            machine = self.machine
            if machine is None:
                pool = allocatable
            else:
                pool = [t for t in allocatable
                        if machine.placeable(t, cid, now)]
            if pool:
                task = self.policy.select(pool)
                allocatable.remove(task)
                self._launch(cid, task, now)
                return
            # work exists but the machine refuses to place it here
            # (barrier wait, memory-full client): idle without a
            # starvation count — the dag is not the bottleneck
            machine.note_stall()
        elif len(self.done) < self.total:
            self.starvation += 1
            self.m_starve.inc()
        self.idle.append(cid)
        self.idle_since[cid] = now

    def _dispatch(self, now: float) -> None:
        """Server hook: hand allocatable tasks to idle clients, in idle
        order; with a machine, the first idle client it will place
        anything on goes next (each placement can change what is
        placeable elsewhere)."""
        idle, allocatable, machine = self.idle, self.allocatable, self.machine
        while idle and allocatable:
            if machine is None:
                cid = idle.pop(0)
                pool = allocatable
            else:
                for i, cid in enumerate(idle):
                    pool = [t for t in allocatable
                            if machine.placeable(t, cid, now)]
                    if pool:
                        del idle[i]
                        break
                else:
                    break
            self.idle_time += now - self.idle_since.pop(cid)
            task = self.policy.select(pool)
            allocatable.remove(task)
            self._launch(cid, task, now)

    # -- frontier updates ---------------------------------------------
    def _complete(self, att: _Attempt, now: float) -> None:
        """``att`` delivered the winning result: its task is done and
        children whose last parent this was become ELIGIBLE."""
        task, cid = att.task, att.client
        if self.machine is not None:
            release = self.machine.on_complete(task, cid, now)
            if release is not None:
                self._push(release, "release", None)
        self.done.add(task)
        self.done_order.append(task)
        self.m_done.inc()
        if self.tracer.enabled:
            self.tracer.event("sim.complete", client=cid, task=str(task),
                              t=now)
        pending = self.pending_parents
        for child in self.children[task]:
            pending[child] -= 1
            if pending[child] == 0:
                self.allocatable.append(child)

    # -- event handlers -----------------------------------------------
    def _on_finish(self, att: _Attempt, now: float) -> int | None:
        """Server hook: an attempt's result is due.  Returns the client
        that asks for work once idle clients have been served (the
        ideal server's order), or ``None``."""
        task, cid = att.task, att.client
        self.current[cid] = None
        del self.in_flight[task]    # the ideal server's only attempt
        if not att.lost:
            self._complete(att, now)
            return cid
        # the server notices the loss now; the task goes back in the
        # pool (it never executed, so no recomputation rule breaks)
        self.allocatable.append(task)
        if self.machine is not None:
            self.machine.on_abort(task, cid, now)
        self.m_lost.inc()
        if self.tracer.enabled:
            self.tracer.event("sim.loss", client=cid, task=str(task), t=now)
        if self.channel is not None:
            ev = {"kind": "loss", "client": cid, "task": str(task)}
            rid = current_request_id()
            if rid is not None:
                ev["request"] = rid
            self.frame_events.append(ev)
        return cid

    def _on_release(self, _item, now: float) -> None:
        """A machine wake time arrived (bsp barrier opening, memcap
        spill completing); blocked clients are re-examined next."""
        self.machine.on_release(now)

    # -- per-step publication -----------------------------------------
    def _publish(self, now: float) -> None:
        """The per-step series the live dashboard (``repro watch``)
        renders — latest-value gauges — and, when the observatory is
        on, one schedule frame."""
        allocatable, in_flight = self.allocatable, self.in_flight
        self.g_allocatable.set(len(allocatable))
        self.g_eligible.set(len(allocatable) + len(in_flight)
                            + len(self.backing_off))
        self.g_completed.set(len(self.done))
        if self.channel is None:
            return
        self.frame_step += 1
        self.frame_store.record(
            self.channel,
            step=self.frame_step,
            t=now,
            executed=self.done_order,
            eligible=(*allocatable, *in_flight, *self.backing_off),
            occupancy=[att.task if att is not None else None
                       for att in self.current],
            events=tuple(self.frame_events),
            done=len(self.done) >= self.total,
        )
        self.frame_events.clear()

    # -- the loop -----------------------------------------------------
    def run(self) -> SimulationResult:
        """Every client requests once, then events are processed in
        time order until every task is done."""
        events, handlers = self.events, self.handlers
        done, allocatable, idle = self.done, self.allocatable, self.idle
        headroom, total, machine = self.headroom, self.total, self.machine
        step = self.m_steps.inc
        with span("sim.simulate", **self.span_attrs):
            now = 0.0
            for cid in range(len(self.clients)):
                self._request(cid, now)
            headroom.append((now, len(allocatable)))
            self._publish(now)

            while events and len(done) < total:
                now, _tb, kind, item = heapq.heappop(events)
                step()
                asker = handlers[kind](item, now)
                if len(done) >= total:
                    break
                if idle:
                    self._dispatch(now)
                if asker is not None:
                    self._request(asker, now)
                headroom.append((now, len(allocatable)))
                self._publish(now)
                if not events and allocatable and machine is not None:
                    # wedged: idle clients, allocatable work, nothing in
                    # flight — ask the machine to trade for progress
                    wake = machine.force_progress(now)
                    if wake is None:
                        raise SimulationError(
                            f"machine {machine.kind!r} wedged the "
                            f"simulation: {len(done)}/{total} tasks "
                            "done and no placement possible"
                        )
                    self._push(wake, "release", None)

        if len(done) != total:
            raise SimulationError(self._stalled(len(done)))
        headroom.append((now, len(allocatable)))
        self._publish(now)
        for cid in idle:
            # trailing idleness up to makespan
            self.idle_time += now - self.idle_since.pop(cid, now)
        self._settle(now)
        capacity = self._capacity(now)
        result = SimulationResult(
            policy=self.policy.name,
            makespan=now,
            starvation_events=self.starvation,
            idle_time=self.idle_time,
            utilization=(self.busy_time / capacity if capacity > 0
                         else 1.0),
            headroom_series=headroom,
            completed=len(done),
            lost_allocations=self.lost_allocations,
            wasted_work=self.wasted_work,
            trace=self.trace,
            fault_report=self.fault_report,
        )
        if machine is not None:
            result.machine_report = machine.report()
            _record_machine(self.reg, result.machine_report)
        _record_quality(self.reg, result)
        return result

    # -- result hooks -------------------------------------------------
    def _stalled(self, n_done: int) -> str:
        """Server hook: the error message of a run that cannot finish."""
        return f"simulation stalled: {n_done}/{self.total} tasks done"

    def _settle(self, now: float) -> None:
        """Server hook: final accounting once every task is done."""

    def _capacity(self, now: float) -> float:
        """Server hook: client-time available over the run."""
        return len(self.clients) * now


def _record_quality(reg, result: SimulationResult) -> None:
    """Publish a run's quality summary as per-policy labeled series.

    A counter tracks how many runs each policy has completed; the
    gauges hold the *latest* run's quality figures, which is what the
    live dashboard compares policies by.
    """
    labels = ("policy",)
    reg.counter("sim_runs_total", "completed simulation runs",
                labels).labels(result.policy).inc()
    reg.gauge("sim_quality_makespan",
              "makespan of the latest completed run",
              labels).labels(result.policy).set(result.makespan)
    reg.gauge("sim_quality_utilization",
              "client utilization of the latest completed run",
              labels).labels(result.policy).set(result.utilization)
    reg.gauge("sim_quality_starvation",
              "starvation events in the latest completed run",
              labels).labels(result.policy).set(result.starvation_events)
    reg.gauge("sim_quality_mean_headroom",
              "time-averaged allocatable count of the latest run",
              labels).labels(result.policy).set(result.mean_headroom)


def _simulate_batched_impl(
    dag: ComputationDag,
    batches,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
) -> SimulationResult:
    """Simulate the *batched* regimen of [20]: the server hands out one
    batch per period and waits for the whole batch before issuing the
    next (a barrier per round).

    ``batches`` is a :class:`~repro.core.batched.BatchSchedule`.
    Within a round, tasks go to clients by longest-processing-time
    first onto the least-loaded client; the round lasts as long as its
    most loaded client.  Simpler to operate than the event-driven
    server — no eligibility tracking between requests — but the
    barriers idle fast clients, which is exactly the trade-off the
    batched framework accepts.
    """
    if isinstance(clients, int):
        clients = [ClientSpec() for _ in range(clients)]
    if not clients:
        raise SimulationError("need at least one client")
    work_fn = work if callable(work) else (lambda _v, _w=float(work): _w)
    rng = random.Random(seed)

    makespan = 0.0
    busy_time = 0.0
    idle_time = 0.0
    headroom: list[tuple[float, int]] = [(0.0, len(batches.batches[0]))]
    for batch in batches.batches:
        durations = []
        for task in batch:
            d = work_fn(task)
            durations.append((d, task))
        durations.sort(reverse=True, key=lambda x: x[0])
        loads = [0.0] * len(clients)
        for d, task in durations:
            cid = min(range(len(clients)), key=lambda c: loads[c])
            spec = clients[cid]
            dur = d / spec.speed
            if spec.dropout and rng.random() < spec.dropout:
                dur *= spec.slowdown
            dur += comm_per_input * dag.indegree(task)
            loads[cid] += dur
            busy_time += dur
        round_time = max(loads)
        idle_time += sum(round_time - ld for ld in loads)
        makespan += round_time
        headroom.append((makespan, len(batch)))
    util = busy_time / (len(clients) * makespan) if makespan > 0 else 1.0
    result = SimulationResult(
        policy=f"BATCHED({batches.name})",
        makespan=makespan,
        starvation_events=0,
        idle_time=idle_time,
        utilization=util,
        headroom_series=headroom,
        completed=len(dag),
    )
    _record_quality(global_registry(), result)
    return result
