"""Fault injection and fault-tolerant serving for the IC simulation.

The paper's premise is that Internet-based computing is *temporally
unpredictable* — remote clients crash, stall, and vanish — yet the
baseline simulation (:func:`repro.sim.server.simulate`) idealizes
failure: losses are detected instantly at nominal duration, tasks
silently requeue, and clients never permanently die.  This module
replaces that idealization with a realistic, fully deterministic
failure model in two halves:

* a :class:`FaultPlan` — a seedable, reproducible chaos script of
  **permanent client crashes**, **late joins** (churn), **transient
  stalls**, and **result corruption** (corruption-as-loss: the server
  discards a corrupt result, so it costs exactly what a loss costs);
* a :class:`ServerPolicy` — the server's fault-tolerance machinery:
  **timeout-based loss detection** (a deadline as a multiple of each
  task's expected duration, instead of the magic instant detection of
  the ideal model), **retry with exponential backoff + jitter**
  (backoff growth bounded by ``max_retries``; retries themselves never
  give up, which is what guarantees completion), **speculative
  re-execution** of stragglers, **k-replication** of critical-path
  tasks onto spare clients, and **quarantine** of flaky clients.

The machinery is the fault-tolerant server, :class:`_FaultServer`: a
set of server hooks on the one simulation kernel of
:mod:`repro.sim.server` (same frontier, event heap, metrics, frame
publisher and result assembly as the ideal server, and the same
machine-model hooks).  Scripted faults are events on the kernel's
heap; corruption is a draw on the plan's private stream.

Every run is byte-identical for a given ``(dag, policy, clients,
FaultPlan, seed)`` tuple — the chaos harness draws from its own seeded
stream, separate from the client-behaviour stream — and every run
terminates with all tasks completed as long as the plan leaves at
least one live client (the server never quarantines its last live
client, and releases quarantined clients when crashes leave no one
else).

Outcomes are reported three ways: a
:class:`FaultReport` attached to the
:class:`~repro.sim.server.SimulationResult`, the ``sim_retries_total``
/ ``sim_timeouts_total`` / ``sim_speculations_total`` /
``sim_quarantined_clients`` / ``sim_faults_injected_total{kind=...}``
metrics in the process registry (rendered live by ``repro watch``),
and per-attempt :class:`~repro.sim.server.TraceRecord` entries when
tracing is on.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import isfinite

from ..core.dag import ComputationDag, Node
from ..exceptions import FaultPlanError, ServerPolicyError
from ..obs.context import current_request_id
from .heuristics import Policy
from .server import ClientSpec, SimulationResult, TraceRecord, _Kernel

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "ServerPolicy",
    "FAULT_SCENARIOS",
    "simulate_with_faults",
]

#: recognized fault kinds (the ``sim_faults_injected_total`` label set).
FAULT_KINDS = ("crash", "join", "stall")

#: floor on a task's expected duration when deriving deadlines, so a
#: zero-work task still gets a positive timeout.
_MIN_NOMINAL = 1e-9


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``kind``
        ``"crash"`` — client ``client`` dies permanently at ``time``
        (its in-flight result never arrives; the server only learns of
        it when the attempt's deadline fires);
        ``"join"`` — a new client (``spec``, default unit-speed)
        appears at ``time`` and starts requesting work;
        ``"stall"`` — client ``client`` freezes for ``duration`` time
        units at ``time`` (an in-flight task finishes late; an idle
        client requests nothing until it recovers).
    """

    time: float
    kind: str
    client: int = 0
    duration: float = 0.0
    spec: ClientSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not self.time >= 0.0:
            raise FaultPlanError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.kind == "stall" and not self.duration > 0.0:
            raise FaultPlanError(
                f"stall needs a positive duration, got {self.duration}"
            )
        if self.kind != "join" and self.client < 0:
            raise FaultPlanError(
                f"fault client index must be >= 0, got {self.client}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable chaos script.

    ``events`` are the scripted faults; ``corrupt_rate`` is the
    probability that any arriving result is corrupt — the server
    discards it, so corruption costs exactly what a loss costs
    (corruption-as-loss).  ``seed`` drives the plan's private random
    stream (corruption draws, backoff jitter), kept separate from the
    client-behaviour stream so adding chaos never perturbs the
    underlying dropout/loss draws.

    Build plans directly, from a canned scenario
    (:meth:`scenario`), or from a CLI spec string (:meth:`parse`).
    """

    events: tuple[FaultEvent, ...] = ()
    corrupt_rate: float = 0.0
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not 0.0 <= self.corrupt_rate < 1.0:
            raise FaultPlanError(
                "corrupt_rate must be in [0, 1) so runs terminate, "
                f"got {self.corrupt_rate}"
            )

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.events and self.corrupt_rate == 0.0

    @classmethod
    def scenario(cls, name: str, n_clients: int = 4,
                 seed: int = 0) -> "FaultPlan":
        """A canned chaos scenario sized for ``n_clients`` (see
        :data:`FAULT_SCENARIOS` for the catalog)."""
        try:
            builder = FAULT_SCENARIOS[name]
        except KeyError:
            raise FaultPlanError(
                f"unknown fault scenario {name!r}; known: "
                f"{sorted(FAULT_SCENARIOS)}"
            ) from None
        return builder(n_clients, seed)

    @classmethod
    def parse(cls, spec: str, n_clients: int = 4) -> "FaultPlan":
        """Parse a CLI fault spec (the shared grammar of
        :mod:`repro.api.specs`).

        Either a scenario name with optional seed —
        ``churn`` / ``churn:seed=3`` — or a comma-separated event
        list::

            crash:CID@T          client CID dies at time T
            stall:CID@TxDUR      client CID stalls for DUR at time T
            join@T  join@TxSPD   a client (speed SPD) joins at time T
            corrupt=RATE         corrupt each result with prob. RATE
            seed=N               the plan's private random seed

        Example: ``crash:0@2,stall:1@1.5x4,join@5x2.0,corrupt=0.1``.
        """
        from ..api.specs import parse_fault_plan

        return parse_fault_plan(spec, n_clients=n_clients)

    def __str__(self) -> str:
        """The plan's round-trip spec form (see
        :func:`repro.api.specs.fault_plan_str`)."""
        from ..api.specs import fault_plan_str

        return fault_plan_str(self)


# ----------------------------------------------------------------------
# canned scenarios
# ----------------------------------------------------------------------


def _scenario_churn(n_clients: int, seed: int) -> FaultPlan:
    """Half the clients crash at staggered times; replacements join
    shortly after each crash — the classic volunteer-computing churn."""
    rng = random.Random(f"repro-churn:{seed}")
    events: list[FaultEvent] = []
    for i in range(max(1, n_clients // 2)):
        t = 2.0 + 1.5 * i + rng.random()
        events.append(FaultEvent(time=t, kind="crash", client=i))
        events.append(FaultEvent(time=t + 1.0 + rng.random(),
                                 kind="join", spec=ClientSpec()))
    return FaultPlan(events=tuple(events), seed=seed, name="churn")


def _scenario_stragglers(n_clients: int, seed: int) -> FaultPlan:
    """Repeated transient stalls spread over every client — the
    straggler regime speculative re-execution targets."""
    rng = random.Random(f"repro-stragglers:{seed}")
    events = [
        FaultEvent(
            time=1.0 + 0.8 * k + rng.random(),
            kind="stall",
            client=k % max(1, n_clients),
            duration=2.0 + 2.0 * rng.random(),
        )
        for k in range(2 * max(1, n_clients))
    ]
    return FaultPlan(events=tuple(events), seed=seed, name="stragglers")


def _scenario_flaky(n_clients: int, seed: int) -> FaultPlan:
    """A corruption-prone fleet with an occasional stall — the regime
    quarantine and retry absorb."""
    rng = random.Random(f"repro-flaky:{seed}")
    events = [
        FaultEvent(time=1.5 + 2.0 * k + rng.random(), kind="stall",
                   client=0, duration=1.0 + rng.random())
        for k in range(2)
    ]
    return FaultPlan(events=tuple(events), corrupt_rate=0.15,
                     seed=seed, name="flaky")


def _scenario_blackout(n_clients: int, seed: int) -> FaultPlan:
    """Everything but one client dies at once; two replacements arrive
    much later — the worst case the completion guarantee covers."""
    rng = random.Random(f"repro-blackout:{seed}")
    events = [
        FaultEvent(time=3.0 + 0.1 * i + rng.random() * 0.1,
                   kind="crash", client=i)
        for i in range(1, max(2, n_clients))
    ]
    events += [
        FaultEvent(time=9.0 + i + rng.random(), kind="join",
                   spec=ClientSpec())
        for i in range(2)
    ]
    return FaultPlan(events=tuple(events), seed=seed, name="blackout")


#: the canned chaos scenarios ``FaultPlan.scenario`` / ``--faults``
#: accept: name -> builder(n_clients, seed).
FAULT_SCENARIOS: dict[str, Callable[[int, int], FaultPlan]] = {
    "churn": _scenario_churn,
    "stragglers": _scenario_stragglers,
    "flaky": _scenario_flaky,
    "blackout": _scenario_blackout,
}


# ----------------------------------------------------------------------
# server policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServerPolicy:
    """The server's fault-tolerance machinery.

    ``timeout_factor``
        Loss-detection deadline: an attempt is written off
        ``timeout_factor`` times its *expected* duration after
        allocation (expected = nominal compute time at the client's
        advertised speed plus communication — the server cannot see
        dropout slowdowns coming).  Must be finite and >= 1: the
        timeout is what converts permanent losses into retries, so an
        infinite deadline would break the completion guarantee.
    ``max_retries``
        Bound on exponential-backoff *growth* (the exponent is capped
        here).  Retries themselves never give up — dropping a task
        would violate the no-permanent-loss guarantee — they just stop
        backing off harder.
    ``backoff_base`` / ``backoff_jitter``
        The ``k``-th retry of a task is delayed
        ``backoff_base * 2**min(k-1, max_retries)`` time units,
        stretched by a uniform jitter fraction in
        ``[0, backoff_jitter]`` drawn from the fault plan's seeded
        stream.
    ``speculate_factor``
        Straggler mitigation: once an attempt has been in flight
        ``speculate_factor`` times its expected duration, a backup
        copy is launched on the next spare client; the first result
        wins and the loser is wasted replica time.  ``None`` disables
        speculation.
    ``replicas`` / ``critical_fraction``
        k-replication: the top ``critical_fraction`` of tasks by
        height (longest path to a sink) are eagerly replicated onto
        spare clients up to ``replicas`` concurrent copies.
        ``replicas=1`` disables replication.
    ``quarantine_after``
        A client with this many *consecutive* failures (timeouts or
        corrupt results) is quarantined — no further allocations —
        except that the server never quarantines its last live client,
        and releases quarantined clients when crashes leave no one
        else.  ``0`` disables quarantine.
    """

    timeout_factor: float = 3.0
    max_retries: int = 8
    backoff_base: float = 0.25
    backoff_jitter: float = 0.1
    speculate_factor: float | None = 2.0
    replicas: int = 1
    critical_fraction: float = 0.1
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if not (isfinite(self.timeout_factor)
                and self.timeout_factor >= 1.0):
            raise ServerPolicyError(
                "timeout_factor must be finite and >= 1 (the deadline "
                "is what detects permanent losses), got "
                f"{self.timeout_factor}"
            )
        if self.max_retries < 0:
            raise ServerPolicyError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_jitter < 0:
            raise ServerPolicyError(
                "backoff_base and backoff_jitter must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_jitter}"
            )
        if self.speculate_factor is not None and not (
                isfinite(self.speculate_factor)
                and self.speculate_factor >= 1.0):
            raise ServerPolicyError(
                "speculate_factor must be None or finite and >= 1, "
                f"got {self.speculate_factor}"
            )
        if self.replicas < 1:
            raise ServerPolicyError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if not 0.0 < self.critical_fraction <= 1.0:
            raise ServerPolicyError(
                "critical_fraction must be in (0, 1], got "
                f"{self.critical_fraction}"
            )
        if self.quarantine_after < 0:
            raise ServerPolicyError(
                f"quarantine_after must be >= 0, got "
                f"{self.quarantine_after}"
            )

    _PARSE_KEYS = {
        "timeout": ("timeout_factor", float),
        "retries": ("max_retries", int),
        "backoff": ("backoff_base", float),
        "jitter": ("backoff_jitter", float),
        "speculate": ("speculate_factor", float),
        "replicas": ("replicas", int),
        "critical": ("critical_fraction", float),
        "quarantine": ("quarantine_after", int),
    }

    @classmethod
    def parse(cls, spec: str) -> "ServerPolicy":
        """Parse a CLI policy spec (the shared grammar of
        :mod:`repro.api.specs`): comma-separated ``key=value`` with
        keys ``timeout``, ``retries``, ``backoff``, ``jitter``,
        ``speculate`` (a factor, or ``off``), ``replicas``,
        ``critical``, ``quarantine``.  An empty spec is the default
        policy.  Example: ``timeout=4,retries=3,speculate=off``.
        """
        from ..api.specs import parse_server_policy

        return parse_server_policy(spec)

    def __str__(self) -> str:
        """The policy's round-trip spec form:
        ``ServerPolicy.parse(str(p)) == p`` (see
        :func:`repro.api.specs.server_policy_str`)."""
        from ..api.specs import server_policy_str

        return server_policy_str(self)


@dataclass
class FaultReport:
    """Fault-path accounting for one simulated run (attached to
    ``SimulationResult.fault_report``; the same numbers land in the
    ``sim_*`` fault metrics).
    """

    #: name of the fault plan in force
    plan: str = "none"
    #: tasks re-queued after a failure (timeout or corrupt result)
    retries: int = 0
    #: loss-detection deadlines that fired on an unresolved attempt
    timeouts_fired: int = 0
    #: backup copies launched for stragglers
    speculative_launches: int = 0
    #: tasks whose *speculative* copy delivered the winning result
    speculative_wins: int = 0
    #: eager replicas launched for critical tasks
    replicas_launched: int = 0
    #: client-time burnt by duplicate attempts of already-done tasks
    wasted_replica_time: float = 0.0
    #: total backoff delay imposed before retries
    backoff_delay_total: float = 0.0
    #: clients ever quarantined (sorted ids)
    quarantined_clients: tuple[int, ...] = ()
    #: scripted faults applied, by kind
    crashes: int = 0
    late_joins: int = 0
    stalls: int = 0
    #: results discarded as corrupt
    corruptions: int = 0


# ----------------------------------------------------------------------
# the fault-tolerant server
# ----------------------------------------------------------------------


class _FaultServer(_Kernel):
    """The fault-tolerant server on the simulation kernel; see
    :func:`simulate_with_faults`.

    It differs from the ideal server in its hooks only: an attempt's
    loss is detected by a deadline, failed tasks retry after backoff,
    stragglers get speculative copies, critical tasks get replicas,
    flaky clients are quarantined, and the finishing client asks for
    work before idle clients are served.  Scripted faults are events
    on the kernel's heap; corruption is a draw on the plan's stream.
    """

    __slots__ = (
        "sp", "plan", "frng", "m_retries", "m_timeouts", "m_spec",
        "m_faults", "g_quar", "task_failures", "want_spec", "critical",
        "alive", "quarantined", "ever_quarantined", "parked",
        "fail_streak", "stalled_until", "service_start", "service_end",
    )

    def __init__(self, dag, policy, clients, work, seed, comm_per_input,
                 record_trace, server_policy: ServerPolicy,
                 fault_plan: FaultPlan, machine) -> None:
        super().__init__(dag, policy, clients, work, seed,
                         comm_per_input, record_trace, machine)
        self.sp = server_policy
        self.plan = fault_plan
        #: fault-plan stream (corruption, backoff jitter) — private,
        #: so chaos never perturbs the client-behaviour draws.
        self.frng = random.Random(f"repro-faults:{seed}:{fault_plan.seed}")
        self.fault_report = FaultReport(plan=fault_plan.name)
        self.span_attrs["faults"] = fault_plan.name
        reg = self.reg
        self.m_retries = reg.counter(
            "sim_retries_total",
            "tasks re-queued after a detected failure")
        self.m_timeouts = reg.counter(
            "sim_timeouts_total",
            "loss-detection deadlines fired on unresolved attempts")
        self.m_spec = reg.counter(
            "sim_speculations_total",
            "speculative straggler re-executions launched")
        self.m_faults = reg.counter(
            "sim_faults_injected_total",
            "scripted faults applied to the running simulation",
            ("kind",))
        self.g_quar = reg.gauge(
            "sim_quarantined_clients",
            "clients currently quarantined by the simulated server")

        self.task_failures: dict[Node, int] = {}
        self.want_spec: list[Node] = []
        self.critical: set[Node] = (
            self._critical_set() if server_policy.replicas > 1 else set()
        )
        n = len(self.clients)
        self.alive: set[int] = set(range(n))
        self.quarantined: set[int] = set()
        self.ever_quarantined: set[int] = set()
        self.parked: set[int] = set()          # quarantined and idle
        self.fail_streak: dict[int, int] = {}
        self.stalled_until: dict[int, float] = {}
        self.service_start: dict[int, float] = {c: 0.0 for c in range(n)}
        self.service_end: dict[int, float] = {}

        self.handlers.update(
            timeout=self._on_timeout,
            speculate=self._on_speculate,
            retry=self._on_retry,
            wake=self._on_wake,
            fault=self._on_fault,
        )
        for ev in fault_plan.events:
            self._push(ev.time, "fault", ev)

    def _critical_set(self) -> set[Node]:
        """The top ``critical_fraction`` of tasks by height (longest
        path to a sink), the replication targets."""
        height: dict[Node, int] = {}
        for v in reversed(self.dag.topological_order()):
            height[v] = 1 + max(
                (height[c] for c in self.dag.children(v)), default=-1
            )
        index = {v: i for i, v in enumerate(self.dag.nodes)}
        ranked = sorted(
            self.dag.nodes, key=lambda v: (-height[v], index[v])
        )
        k = max(1, round(self.sp.critical_fraction * len(ranked)))
        return set(ranked[:k])

    # -- server hooks -------------------------------------------------
    def _launched(self, att, now: float) -> None:
        if att.speculative:
            self.m_spec.inc()
            self.fault_report.speculative_launches += 1
        if att.replica:
            self.fault_report.replicas_launched += 1
        if self.tracer.enabled:
            self.tracer.event(
                "sim.allocate", client=att.client, task=str(att.task),
                t=now, speculative=att.speculative, replica=att.replica,
            )
        nominal = max(att.nominal, _MIN_NOMINAL)
        self._push(now + self.sp.timeout_factor * nominal, "timeout", att)
        if (self.sp.speculate_factor is not None
                and not att.speculative and not att.replica):
            self._push(now + self.sp.speculate_factor * nominal,
                       "speculate", att)

    def _request(self, cid: int, now: float) -> None:
        if cid not in self.alive:
            return
        self.current[cid] = None
        if cid in self.quarantined:
            self.parked.add(cid)
            return
        if self.stalled_until.get(cid, 0.0) > now:
            return  # a wake event will re-request
        super()._request(cid, now)

    def _take_idle_for(self, task: Node, now: float) -> int | None:
        """The first idle client the machine lets run ``task``; the
        head of the queue when no machine interposes."""
        for i, cid in enumerate(self.idle):
            if self.machine is None or self.machine.placeable(task, cid,
                                                              now):
                del self.idle[i]
                self.idle_time += now - self.idle_since.pop(cid)
                return cid
        return None

    def _dispatch(self, now: float) -> None:
        """Put spare clients to use: fresh tasks first, then pending
        speculative re-executions, then eager replicas of critical
        in-flight tasks."""
        super()._dispatch(now)
        while self.idle and self.want_spec:
            task = self.want_spec.pop(0)
            if task in self.done or not self.in_flight.get(task):
                continue
            cid = self._take_idle_for(task, now)
            if cid is None:
                self.want_spec.insert(0, task)
                break
            self._launch(cid, task, now, speculative=True)
        if self.sp.replicas > 1 and self.idle:
            for task in [v for v in self.dag.nodes
                         if v in self.critical and v not in self.done]:
                live = self.in_flight.get(task)
                while (self.idle and live
                       and 0 < len(live) < self.sp.replicas):
                    cid = self._take_idle_for(task, now)
                    if cid is None:
                        break
                    self._launch(cid, task, now, replica=True)
                if not self.idle:
                    break

    # -- failure handling ---------------------------------------------
    def _schedule_retry(self, task: Node, now: float) -> None:
        """Re-queue a failed task after exponential backoff + jitter.

        Backoff growth is bounded by ``max_retries``; the retry itself
        always happens (completion guarantee)."""
        if (task in self.done or task in self.backing_off
                or self.in_flight.get(task) or task in self.allocatable):
            return
        failures = self.task_failures.get(task, 0) + 1
        self.task_failures[task] = failures
        exponent = min(failures - 1, self.sp.max_retries)
        delay = self.sp.backoff_base * (2 ** exponent)
        if self.sp.backoff_jitter:
            delay *= 1.0 + self.sp.backoff_jitter * self.frng.random()
        self.fault_report.retries += 1
        self.fault_report.backoff_delay_total += delay
        self.m_retries.inc()
        self.backing_off.add(task)
        self.tracer.event("sim.retry", task=str(task), t=now,
                          attempt=failures, delay=delay)
        self._push(now + delay, "retry", task)

    def _client_failed(self, cid: int, now: float) -> None:
        """Attribute one failure to a client; quarantine a streak."""
        self.fail_streak[cid] = self.fail_streak.get(cid, 0) + 1
        after = self.sp.quarantine_after
        if after <= 0 or cid in self.quarantined or cid not in self.alive:
            return
        if self.fail_streak[cid] < after:
            return
        live_free = [c for c in self.alive if c not in self.quarantined]
        if len(live_free) <= 1:
            return  # never quarantine the last live client
        self.quarantined.add(cid)
        self.ever_quarantined.add(cid)
        self.g_quar.set(len(self.quarantined))
        self.tracer.event("sim.quarantine", client=cid, t=now)
        rid = current_request_id()
        if self.channel is not None:
            ev = {"kind": "quarantine", "client": cid,
                  "t": round(now, 6)}
            if rid is not None:
                ev["request"] = rid
            self.frame_events.append(ev)
        # a quarantine means the fault plan beat a client's streak
        # budget — black-box the surrounding context
        from ..obs.flightrecorder import global_flight_recorder
        global_flight_recorder().trigger(
            "quarantine", request_id=rid,
            detail=f"client {cid} quarantined at t={round(now, 6)} "
                   f"after {self.fail_streak[cid]} consecutive "
                   f"failures",
        )
        if cid in self.idle:
            self.idle.remove(cid)
            self.idle_time += now - self.idle_since.pop(cid)
            self.parked.add(cid)

    def _release_quarantine(self, now: float) -> None:
        """Amnesty: crashes left only quarantined clients — release
        them (they are the completion guarantee's last resort)."""
        released = [c for c in self.quarantined if c in self.alive]
        self.quarantined.clear()
        self.g_quar.set(0)
        for cid in released:
            self.fail_streak[cid] = 0
            if cid in self.parked:
                self.parked.discard(cid)
                self._request(cid, now)

    def _retire(self, att) -> None:
        """Drop an attempt from the live in-flight view (idempotent: a
        crash and a later deadline may both retire one attempt)."""
        live = self.in_flight.get(att.task)
        if live is not None and att in live:
            live.remove(att)
            if not live:
                del self.in_flight[att.task]

    def _emit(self, att, end: float, kind: str) -> None:
        if att.traced:
            return
        att.traced = True
        if self.record_trace:
            self.trace.append(
                TraceRecord(att.client, att.task, att.start, end, kind)
            )

    # -- event handlers -----------------------------------------------
    def _on_finish(self, att, now: float) -> None:
        if att.vanished:
            return  # the client died mid-flight; nothing arrives
        if att.delay > 0.0:
            # a stall pushed the completion back; re-arm once
            self._push(now + att.delay, "finish", att)
            att.delay = 0.0
            return
        cid = att.client
        if att.lost:
            # the result silently never arrives (the client vanished
            # transiently); the deadline will detect it.  The client
            # itself resurfaces and asks for more work.
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            if self.current[cid] is att:
                self._request(cid, now)
            return
        att.arrived = True
        self._retire(att)
        if att.task in self.done:
            # a duplicate (replica / speculative / written-off
            # straggler) landed after the winner: pure waste.
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            self.fault_report.wasted_replica_time += att.duration
            self._emit(att, now, "replica")
            self.fail_streak[cid] = 0
        elif (self.plan.corrupt_rate
                and self.frng.random() < self.plan.corrupt_rate):
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            self.fault_report.corruptions += 1
            self.wasted_work += att.duration
            self.m_lost.inc()
            self.lost_allocations += 1
            self._emit(att, now, "corrupt")
            self.tracer.event("sim.corrupt", client=cid,
                              task=str(att.task), t=now)
            self._client_failed(cid, now)
            self._schedule_retry(att.task, now)
        else:
            self._complete(att, now)
            self.busy_time += att.duration
            self.fail_streak[cid] = 0
            if att.speculative:
                self.fault_report.speculative_wins += 1
            self._emit(att, now, "done")
        if self.current[cid] is att:
            self._request(cid, now)

    def _on_timeout(self, att, now: float) -> None:
        if att.arrived or att.written_off or att.task in self.done:
            return
        att.written_off = True
        self.fault_report.timeouts_fired += 1
        self.m_timeouts.inc()
        self._retire(att)
        self.tracer.event("sim.timeout", client=att.client,
                          task=str(att.task), t=now)
        if att.lost or att.vanished:
            # genuinely gone: account the burnt client time now
            self.m_lost.inc()
            self.lost_allocations += 1
            self.wasted_work += (
                att.vanish_time - att.start if att.vanished
                else att.duration
            )
            self._emit(att, now, "lost")
        # else: a straggler the server wrote off — it may still land
        # (and even win); its trace record is emitted on arrival.
        self._client_failed(att.client, now)
        self._schedule_retry(att.task, now)

    def _on_speculate(self, att, now: float) -> None:
        if (att.arrived or att.written_off or att.vanished
                or att.task in self.done):
            return
        if len(self.in_flight.get(att.task, ())) >= self.sp.replicas + 1:
            return  # already replicated to the hilt
        if att.task not in self.want_spec:
            self.want_spec.append(att.task)

    def _on_retry(self, task: Node, now: float) -> None:
        self.backing_off.discard(task)
        if task in self.done or task in self.allocatable:
            return
        self.allocatable.append(task)

    def _on_wake(self, cid: int, now: float) -> None:
        if cid not in self.alive or self.current[cid] is not None:
            return
        if self.stalled_until.get(cid, 0.0) > now:
            return  # a longer stall superseded this wake
        self._request(cid, now)

    def _on_fault(self, ev: FaultEvent, now: float) -> None:
        self.m_faults.labels(ev.kind).inc()
        self.tracer.event("sim.fault", kind=ev.kind, client=ev.client,
                          t=now)
        if self.channel is not None:
            self.frame_events.append(
                {"kind": ev.kind, "client": ev.client, "t": round(now, 6)}
            )
        if ev.kind == "crash":
            cid = ev.client
            if cid not in self.alive:
                return
            if self.machine is not None:
                self.machine.on_crash(cid, now)
            self.alive.discard(cid)
            self.service_end[cid] = now
            self.fault_report.crashes += 1
            att = self.current[cid]
            self.current[cid] = None   # a dead client runs nothing
            if att is not None and not att.arrived:
                att.vanished = True
                att.vanish_time = now
                self._retire(att)
            if cid in self.idle:
                self.idle.remove(cid)
                self.idle_time += now - self.idle_since.pop(cid)
            self.parked.discard(cid)
            was_quarantined = cid in self.quarantined
            self.quarantined.discard(cid)
            if was_quarantined:
                self.g_quar.set(len(self.quarantined))
            if not any(c not in self.quarantined for c in self.alive):
                self._release_quarantine(now)
        elif ev.kind == "join":
            cid = len(self.clients)
            self.clients.append(ev.spec or ClientSpec())
            self.current.append(None)
            self.alive.add(cid)
            self.service_start[cid] = now
            self.fault_report.late_joins += 1
            self._request(cid, now)
        elif ev.kind == "stall":
            cid = ev.client
            if cid not in self.alive:
                return
            self.fault_report.stalls += 1
            att = self.current[cid]
            if att is not None:
                att.delay += ev.duration
                return
            until = max(self.stalled_until.get(cid, 0.0),
                        now + ev.duration)
            self.stalled_until[cid] = until
            if cid in self.idle:
                self.idle.remove(cid)
                self.idle_time += now - self.idle_since.pop(cid)
            self._push(until, "wake", cid)

    # -- result hooks -------------------------------------------------
    def _stalled(self, n_done: int) -> str:
        return (f"simulation stalled under fault plan "
                f"{self.plan.name!r}: {n_done}/{self.total} tasks done "
                "(did every client crash?)")

    def _settle(self, now: float) -> None:
        # duplicates still in flight at completion would be cancelled:
        # their partial execution is wasted replica time.
        for live in list(self.in_flight.values()):
            for att in live:
                self.fault_report.wasted_replica_time += max(
                    0.0, now - att.start)
                self._emit(att, now, "replica")
        self.fault_report.quarantined_clients = tuple(
            sorted(self.ever_quarantined))

    def _capacity(self, now: float) -> float:
        return sum(
            self.service_end.get(cid, now) - self.service_start[cid]
            for cid in range(len(self.clients))
        )


def simulate_with_faults(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    server_policy: ServerPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    machine=None,
) -> SimulationResult:
    """Simulate ``dag`` under ``policy`` with fault injection and a
    fault-tolerant server.

    This is the realistic-failure server of
    :func:`repro.sim.server.simulate` (which calls here whenever a
    ``server_policy`` or ``fault_plan`` is given): losses are
    detected by *timeouts* rather than by magic, failed tasks retry
    with exponential backoff, stragglers are speculatively re-executed,
    critical tasks may be k-replicated, and flaky clients are
    quarantined — all governed by ``server_policy`` (default
    :class:`ServerPolicy`).  ``fault_plan`` (default: no faults)
    scripts crashes, churn, stalls, and result corruption.

    Deterministic: a fixed ``(dag, policy, clients, work, seed,
    comm_per_input, server_policy, fault_plan)`` tuple reproduces the
    run byte-for-byte, including ``fault_report`` and the trace.
    Completion is guaranteed whenever the plan leaves at least one
    live client.
    """
    return _FaultServer(
        dag, policy, clients, work, seed, comm_per_input, record_trace,
        server_policy if server_policy is not None else ServerPolicy(),
        fault_plan if fault_plan is not None else FaultPlan(name="none"),
        machine,
    ).run()
