"""Frozen result types of the :mod:`repro.api` facade.

Every facade verb returns one of these immutable dataclasses.  They
are the *stability contract* of the API:

* **frozen** — results are values; nothing downstream can mutate a
  certificate after the fact;
* **flat** — the headline numbers (certificate, makespan, ratio, ...)
  are plain fields of JSON-native types, so serializing a result for
  a wire or a log never needs to understand library internals;
* **picklable** — results cross process boundaries intact (worker
  pools, result caches), pinned by ``tests/test_api.py``;
* **self-describing** — each carries the content-addressed
  ``fingerprint`` of the dag it talks about, the same identity the
  certification cache and the service's
  :class:`~repro.service.registry.DagRegistry` key by.

The rich library objects (``Schedule``, ``SimulationResult``, ...)
remain available as trailing ``repr=False`` fields for callers that
need full detail; only the flat fields are covered by the v1
compatibility promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.dag import ComputationDag
from ..core.schedule import Schedule
from ..granularity.clustering import ClusteringReport
from ..sim.machines import MachineReport
from ..sim.metrics import PolicyComparison
from ..sim.server import SimulationResult

__all__ = [
    "BatchResult",
    "CoarsenResult",
    "CompareResult",
    "PriorityResult",
    "ScheduleResult",
    "SimulateResult",
    "VerifyResult",
]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of :func:`repro.api.schedule`."""

    #: content-addressed identity of the scheduled dag
    fingerprint: str
    #: certificate granted (``"composition"``, ``"segmented"``,
    #: ``"exhaustive"``, ``"none-exists"``, ``"anytime"``, or
    #: ``"heuristic"``)
    certificate: str
    #: True when the certificate proves IC-optimality
    ic_optimal: bool
    #: the schedule's eligibility profile ``E(0..n)``
    profile: tuple[int, ...]
    #: the full validated schedule (execution order + dag)
    schedule: Schedule = field(repr=False)
    #: coarse certificate kind: ``"exact"`` / ``"composed"`` /
    #: ``"anytime"`` / ``"heuristic"`` (``docs/CERTIFICATION.md``)
    kind: str = "exact"
    #: certification strategy that produced the result
    strategy: str = "auto"
    #: certified ``(lower, upper)`` bounds on the schedule's
    #: eligibility loss; ``(0, 0)`` for certified IC-optimal results,
    #: a genuine interval on the anytime path, ``None`` when nothing
    #: was measured (heuristic)
    bounds: tuple[int, int] | None = None
    #: per-block certificate provenance of a composed schedule:
    #: ``(block_name, block_fingerprint, source)`` triples, empty for
    #: monolithic certifications
    provenance: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of :func:`repro.api.verify`."""

    #: content-addressed identity of the verified dag
    fingerprint: str
    #: certificate the scheduler granted before the exhaustive check
    certificate: str
    #: True when the schedule matches the exhaustive ceiling everywhere
    ic_optimal: bool
    #: ``min_t E(t) / M(t)`` over nonzero ceiling steps
    ratio: float
    #: number of steps where the profile falls below the ceiling
    deficit: int
    #: profile area / ceiling area
    area: float
    #: the schedule that was verified
    schedule: Schedule = field(repr=False)
    #: coarse certificate kind the scheduler stamped
    kind: str = "exact"
    #: certification strategy the scheduling pass used
    strategy: str = "auto"
    #: the scheduler's certified loss bounds (see
    #: :class:`ScheduleResult.bounds`); the *measured* loss is
    #: ``deficit``
    bounds: tuple[int, int] | None = None
    #: per-block certificate provenance of a composed schedule
    provenance: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class SimulateResult:
    """Outcome of :func:`repro.api.simulate`."""

    #: content-addressed identity of the simulated dag
    fingerprint: str
    #: allocation policy the run used (``IC-OPT``, a baseline name, or
    #: ``BATCHED(...)``)
    policy: str
    #: scheduling certificate when the facade scheduled the dag itself;
    #: ``None`` when a caller-supplied schedule/batches drove the run
    certificate: str | None
    makespan: float
    utilization: float
    starvation_events: int
    idle_time: float
    completed: int
    lost_allocations: int
    #: time-averaged allocatable-task count
    mean_headroom: float
    #: the full simulation record (headroom series, trace, faults)
    result: SimulationResult = field(repr=False)
    #: the schedule driving an ``IC-OPT`` run, when one exists
    schedule: Schedule | None = field(repr=False, default=None)
    #: coarse certificate kind backing ``certificate`` (``None`` when
    #: the facade did not schedule the dag itself)
    kind: str | None = None
    #: canonical spec string of the machine model the run used
    #: (``"ideal"`` for the free-communication default)
    machine: str = "ideal"
    #: per-model accounting (supersteps, spills, duration factors);
    #: ``None`` on the ideal path
    machine_report: MachineReport | None = field(repr=False, default=None)


@dataclass(frozen=True)
class CompareResult:
    """Outcome of :func:`repro.api.compare`."""

    #: content-addressed identity of the compared dag
    fingerprint: str
    dag_name: str
    n_clients: int
    #: policies in run order (``IC-OPT`` first when scheduled)
    policies: tuple[str, ...]
    #: rows ``(policy, makespan, starvation, idle, utilization,
    #: mean_headroom, seed)`` — the standard report table; the trailing
    #: seed column records the rng seed each policy's run used
    rows: tuple[tuple, ...]
    #: policy with the smallest makespan
    best_policy: str
    #: scheduling certificate backing the ``IC-OPT`` entry (``None``
    #: when the comparison ran baselines only)
    certificate: str | None
    #: per-policy :class:`~repro.sim.server.SimulationResult` details
    comparison: PolicyComparison = field(repr=False)
    #: canonical spec string of the machine model every policy ran on
    machine: str = "ideal"


@dataclass(frozen=True)
class CoarsenResult:
    """Outcome of :func:`repro.api.coarsen`."""

    #: content-addressed identity of the *fine* input dag
    fingerprint: str
    #: content-addressed identity of the coarse quotient dag
    coarse_fingerprint: str
    #: number of coarse tasks (clusters)
    tasks: int
    #: fine arcs crossing clusters (Internet traffic after coarsening)
    cut_arcs: int
    #: fine arcs kept inside clusters (local traffic)
    internal_arcs: int
    #: share of fine arcs that cross clusters (1.0 = no locality win)
    communication_fraction: float
    #: largest cluster's fine-node count (work of the heaviest task)
    max_work: int
    #: the quotient dag, schedulable as coarse tasks
    dag: ComputationDag = field(repr=False)
    #: full work/communication accounting
    report: ClusteringReport = field(repr=False)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of :func:`repro.api.batch`."""

    #: content-addressed identity of the batched dag
    fingerprint: str
    dag_name: str
    capacity: int
    #: ``max(ceil(n/cap), critical-path length)`` round floor
    lower_bound: int
    #: rows ``(batcher, rounds, utilization)`` for the level / Hu /
    #: Coffman–Graham batchers under the capacity
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class PriorityResult:
    """Outcome of :func:`repro.api.priority` — the ▷ relation, both
    directions."""

    left: str
    right: str
    #: ``left ▷ right``
    forward: bool
    #: ``right ▷ left``
    backward: bool
