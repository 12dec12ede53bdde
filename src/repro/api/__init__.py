"""``repro.api`` — the stable v1 facade.

One import surface for everything the library *does*, with one calling
convention: the target (a dag, a composition chain, or a pair of dags)
is positional, every option is keyword-only, and every verb returns a
frozen result dataclass (:mod:`repro.api.results`).  The HTTP service
(:mod:`repro.service`) and the CLI call only this module; the
underlying entry points (``core.schedule_dag``, ``sim.simulate*``,
``granularity.*``) remain importable but are no longer the public
contract — see ``docs/API_MIGRATION.md`` for the mapping from legacy
call forms.

Verbs
-----
:func:`schedule`
    Schedule a dag or composition chain with the strongest available
    IC-optimality certificate.
:func:`verify`
    Schedule, then exhaustively check the result against the
    max-eligibility ceiling.
:func:`simulate`
    Run the IC server/client simulation — self-scheduled (default),
    under a named baseline policy, under a caller-supplied schedule,
    or in the batched regimen of [20] (``batches=``).
:func:`compare`
    Run every baseline policy plus IC-OPT on identical clients/seeds
    and tabulate the quality gap.
:func:`coarsen`
    Cluster a fine-grained dag into coarse tasks and account the
    computation/communication trade.
:func:`batch`
    Compare the batch schedulers (levels / Hu / Coffman–Graham) at a
    capacity.
:func:`priority`
    Test the ▷ relation between two dags, both directions.

Wire formats (``dag_to_dict`` and friends) are re-exported verbatim:
they are already versioned (``format: 1``) and are the service's
request/response vocabulary.

Quick start::

    from repro import api, families

    mesh = families.mesh.out_mesh_chain(6)
    result = api.schedule(mesh)
    assert result.ic_optimal
    print(result.certificate, result.profile)
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from ..core.batched import (
    BatchSchedule,
    coffman_graham_batches,
    hu_batches,
    level_batches,
    min_rounds_lower_bound,
)
from ..core.composition import CompositionChain
from ..core.dag import ComputationDag, Node
from ..core.io import (
    dag_from_dict,
    dag_from_json,
    dag_to_dict,
    dag_to_json,
    schedule_from_dict,
    schedule_to_dict,
)
from ..core.priority import has_priority
from ..core.profile_cache import ProfileCache, global_profile_cache
from ..core.quality import quality_report
from ..core.schedule import Schedule
from ..core.scheduler import schedule_dag as _schedule_dag
from ..granularity.clustering import clustering_report
from .specs import MachineSpec, parse_machine
from .results import (
    BatchResult,
    CoarsenResult,
    CompareResult,
    PriorityResult,
    ScheduleResult,
    SimulateResult,
    VerifyResult,
)

__all__ = [
    "API_VERSION",
    "BatchResult",
    "ClientSpec",
    "FaultPlan",
    "MachineReport",
    "MachineSpec",
    "ServerPolicy",
    "CoarsenResult",
    "CompareResult",
    "PriorityResult",
    "ScheduleResult",
    "SimulateResult",
    "VerifyResult",
    "batch",
    "compare",
    "coarsen",
    "dag_from_dict",
    "dag_from_json",
    "dag_to_dict",
    "dag_to_json",
    "parse_machine",
    "priority",
    "schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "simulate",
    "verify",
]

#: the facade's compatibility version; bumped only on breaking change.
API_VERSION = 1

#: input-builder types re-exported lazily (PEP 562) from the
#: simulation layer, so facade callers never import ``repro.sim``:
#: client populations, chaos scripts, fault-tolerance policies, and
#: machine-model reports are *inputs to / outputs of*
#: :func:`simulate` / :func:`compare`.  (:class:`MachineSpec` itself
#: lives in :mod:`repro.api.specs` and is re-exported eagerly above.)
_LAZY_SIM_TYPES = ("ClientSpec", "FaultPlan", "MachineReport", "ServerPolicy")


def __getattr__(name: str):
    if name in _LAZY_SIM_TYPES:
        from .. import sim

        return getattr(sim, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def _as_dag(target) -> ComputationDag:
    """The bare dag behind a facade target (chains carry ``.dag``)."""
    return target.dag if isinstance(target, CompositionChain) else target


def schedule(
    target,
    *,
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    parallel: bool = False,
    workers: int | None = None,
    cache: ProfileCache | bool = True,
) -> ScheduleResult:
    """Schedule ``target`` with the strongest available certificate.

    Parameters
    ----------
    target:
        A :class:`~repro.core.dag.ComputationDag` or a
        :class:`~repro.core.composition.CompositionChain` (preferred —
        carries its own decomposition certificate).
    strategy:
        Certification strategy (``docs/CERTIFICATION.md``): ``"auto"``
        (decomposition first, exhaustive on residuals, then anytime /
        heuristic — the default), ``"compositional"`` (decomposition
        only; raises when it fails), ``"exhaustive"``, ``"anytime"``,
        or ``"heuristic"``.
    budget:
        Anytime state budget: when auto certification cannot finish,
        return the best schedule found with certified eligibility-loss
        bounds (certificate ``"anytime"``) instead of an unlabeled
        heuristic.  ``None`` (default) disables the anytime fallback.
    exhaustive_limit:
        Maximum number of nonsinks for which exhaustive search is
        attempted on undecomposable dags; ``0`` disables the
        exhaustive residual path.
    state_budget:
        Ideal-state cap for the exhaustive search; exceeding it falls
        back (anytime under a ``budget``, else the stamped heuristic).
    parallel / workers:
        Accepted for v1 compatibility and ignored: the lattice search
        always runs in-process (``docs/PERFORMANCE.md`` §1.4), and
        these options never changed a result.
    cache:
        ``True`` (default) memoizes block certificates and whole-dag
        results in the process-wide certificate store; a
        :class:`~repro.core.profile_cache.ProfileCache` uses a private
        one; ``False`` searches everything from scratch.
    """
    res = _schedule_dag(
        target,
        strategy=strategy,
        budget=budget,
        exhaustive_limit=exhaustive_limit,
        state_budget=state_budget,
        cache=cache,
    )
    return ScheduleResult(
        fingerprint=_as_dag(target).fingerprint(),
        certificate=res.certificate.value,
        ic_optimal=res.ic_optimal,
        profile=tuple(res.schedule.profile),
        schedule=res.schedule,
        kind=res.kind,
        strategy=res.strategy,
        bounds=res.bounds,
        provenance=tuple(
            (p.block, p.fingerprint, p.source) for p in res.provenance
        ),
    )


def verify(
    target,
    *,
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    parallel: bool = False,
    workers: int | None = None,
    cache: ProfileCache | bool = True,
) -> VerifyResult:
    """Schedule ``target``, then exhaustively check the result against
    the max-eligibility ceiling ``M(t)``.

    The certificate reports what the *scheduler* could prove; the
    ratio/deficit/area fields report what the exhaustive check
    *measured* — ``ic_optimal`` is True exactly when the schedule's
    profile meets the ceiling at every step, independent of the
    certificate (an ``"anytime"`` or ``"heuristic"`` schedule can
    still verify clean).  ``parallel``/``workers`` are accepted and
    ignored, as in :func:`schedule`.
    """
    sched = schedule(
        target,
        strategy=strategy,
        budget=budget,
        exhaustive_limit=exhaustive_limit,
        state_budget=state_budget,
        cache=cache,
    )
    dag = sched.schedule.dag
    if cache is True:
        cache = global_profile_cache()
    if isinstance(cache, ProfileCache):
        ceiling = cache.max_profile(dag, state_budget)
    else:
        from ..core.optimality import max_eligibility_profile

        ceiling = max_eligibility_profile(dag, state_budget)
    rep = quality_report(sched.schedule, max_profile=ceiling)
    return VerifyResult(
        fingerprint=sched.fingerprint,
        certificate=sched.certificate,
        ic_optimal=rep.ic_optimal,
        ratio=rep.ratio,
        deficit=rep.deficit,
        area=rep.area,
        schedule=sched.schedule,
        kind=sched.kind,
        strategy=sched.strategy,
        bounds=sched.bounds,
        provenance=sched.provenance,
    )


def simulate(
    target,
    *,
    policy: str = "IC-OPT",
    schedule_order: Schedule | None = None,
    batches: BatchSchedule | None = None,
    clients=4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    server_policy=None,
    fault_plan=None,
    machine: str | MachineSpec = "ideal",
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    parallel: bool = False,
    workers: int | None = None,
    cache: ProfileCache | bool = True,
) -> SimulateResult:
    """Run the IC server/client simulation on ``target``.

    Four regimes, selected by the keyword options:

    * default (``policy="IC-OPT"``) — schedule the dag through the
      certification path (so repeated calls for the same structure
      reuse the cached search) and simulate under the resulting
      priority order;
    * ``policy="FIFO" | "LIFO" | "RANDOM" | "MAXOUT" | "CRITPATH"`` —
      simulate under a baseline heuristic, no scheduling;
    * ``schedule_order=`` — simulate under a caller-supplied
      :class:`~repro.core.schedule.Schedule` (policy ``IC-OPT``
      semantics, no certification run);
    * ``batches=`` — the batched regimen of [20] (one batch per
      period, a barrier per round).

    ``clients``, ``work``, ``seed``, ``comm_per_input``,
    ``record_trace``, ``server_policy``, and ``fault_plan`` pass
    through to the event loop (see :func:`repro.sim.server.simulate`);
    ``machine`` selects the machine model the clients run on — a spec
    string such as ``"bsp:g=1,L=2"`` or a :class:`MachineSpec`
    (``"ideal"``, the default, is the free-communication model and
    leaves the run bit-for-bit identical to earlier releases); the
    remaining options tune the certification path of the default
    regime (``parallel``/``workers`` are accepted and ignored, as in
    :func:`schedule`).
    """
    from ..exceptions import SimulationError
    from ..sim.heuristics import make_policy
    from ..sim.server import _simulate_batched_impl, simulate as _simulate

    spec = parse_machine(machine) if isinstance(machine, str) else machine
    model = None if spec.kind == "ideal" else spec
    dag = _as_dag(target)
    fingerprint = dag.fingerprint()
    if batches is not None:
        if model is not None:
            raise SimulationError(
                "the batched regimen supports only the ideal machine; "
                f"got machine={str(spec)!r}"
            )
        res = _simulate_batched_impl(
            dag, batches, clients, work, seed, comm_per_input
        )
        return _wrap_simulation(fingerprint, res, None, None, machine=spec)
    if schedule_order is not None:
        res = _simulate(
            dag, make_policy("IC-OPT", schedule_order), clients, work,
            seed, comm_per_input, record_trace,
            server_policy=server_policy, fault_plan=fault_plan,
            machine=model,
        )
        return _wrap_simulation(
            fingerprint, res, None, schedule_order, machine=spec
        )
    if policy == "IC-OPT":
        scheduled = schedule(
            target,
            strategy=strategy,
            budget=budget,
            exhaustive_limit=exhaustive_limit,
            state_budget=state_budget,
            cache=cache,
        )
        from ..obs.observatory import global_frame_store

        frame_store = global_frame_store()
        if frame_store.enabled:
            # observatory frames compare achieved eligibility against
            # this certified ceiling M(t)
            frame_store.set_profile(dag, scheduled.profile)
        res = _simulate(
            dag, make_policy("IC-OPT", scheduled.schedule), clients,
            work, seed, comm_per_input, record_trace,
            server_policy=server_policy, fault_plan=fault_plan,
            machine=model,
        )
        return _wrap_simulation(
            fingerprint, res, scheduled.certificate, scheduled.schedule,
            kind=scheduled.kind, machine=spec,
        )
    res = _simulate(
        dag, make_policy(policy), clients, work, seed, comm_per_input,
        record_trace, server_policy=server_policy, fault_plan=fault_plan,
        machine=model,
    )
    return _wrap_simulation(fingerprint, res, None, None, machine=spec)


def _wrap_simulation(
    fingerprint: str, res, certificate: str | None,
    schedule_order: Schedule | None, kind: str | None = None,
    machine: MachineSpec | None = None,
) -> SimulateResult:
    return SimulateResult(
        fingerprint=fingerprint,
        policy=res.policy,
        certificate=certificate,
        makespan=res.makespan,
        utilization=res.utilization,
        starvation_events=res.starvation_events,
        idle_time=res.idle_time,
        completed=res.completed,
        lost_allocations=res.lost_allocations,
        mean_headroom=res.mean_headroom,
        result=res,
        schedule=schedule_order,
        kind=kind,
        machine="ideal" if machine is None else str(machine),
        machine_report=getattr(res, "machine_report", None),
    )


def compare(
    target,
    *,
    clients=4,
    policies: Sequence[str] = (
        "FIFO", "LIFO", "RANDOM", "MAXOUT", "CRITPATH",
    ),
    work=1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    server_policy=None,
    fault_plan=None,
    machine: str | MachineSpec = "ideal",
    include_ic_optimal: bool = True,
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    parallel: bool = False,
    workers: int | None = None,
    cache: ProfileCache | bool = True,
) -> CompareResult:
    """Run every baseline policy — plus IC-OPT, scheduled through the
    certification path, unless ``include_ic_optimal=False`` — on
    identical clients, seeds, identical machine model (``machine=``,
    spec string or :class:`MachineSpec`), and (when given) an
    identical chaos script, and tabulate the quality gap.
    ``parallel``/``workers`` are accepted and ignored, as in
    :func:`schedule`."""
    from ..sim.metrics import compare_policies

    spec = parse_machine(machine) if isinstance(machine, str) else machine
    dag = _as_dag(target)
    certificate = None
    ic_schedule = None
    if include_ic_optimal:
        scheduled = schedule(
            target,
            strategy=strategy,
            budget=budget,
            exhaustive_limit=exhaustive_limit,
            state_budget=state_budget,
            cache=cache,
        )
        certificate = scheduled.certificate
        ic_schedule = scheduled.schedule
    cmp = compare_policies(
        dag, ic_schedule, clients=clients, policies=tuple(policies),
        work=work, seed=seed, comm_per_input=comm_per_input,
        server_policy=server_policy, fault_plan=fault_plan,
        machine=None if spec.kind == "ideal" else spec,
    )
    return CompareResult(
        fingerprint=dag.fingerprint(),
        dag_name=cmp.dag_name,
        n_clients=cmp.n_clients,
        policies=tuple(cmp.results),
        rows=tuple(cmp.table_rows()),
        best_policy=cmp.best_by("makespan"),
        certificate=certificate,
        comparison=cmp,
        machine=str(spec),
    )


def coarsen(
    target,
    cluster_map: Mapping[Node, Node],
    *,
    name: str | None = None,
) -> CoarsenResult:
    """Cluster the fine-grained ``target`` into coarse tasks.

    ``cluster_map`` maps every fine node to a cluster id; the quotient
    must be acyclic (raises
    :class:`~repro.exceptions.ClusteringError` otherwise).  The result
    accounts the granularity trade: coarse task count and work spread
    versus the fine arcs cut (Internet traffic) and kept internal.
    """
    dag = _as_dag(target)
    rep = clustering_report(dag, cluster_map)
    if name is not None:
        rep.quotient.name = name
    return CoarsenResult(
        fingerprint=dag.fingerprint(),
        coarse_fingerprint=rep.quotient.fingerprint(),
        tasks=len(rep.work),
        cut_arcs=rep.cut_arcs,
        internal_arcs=rep.internal_arcs,
        communication_fraction=rep.communication_fraction,
        max_work=rep.max_work,
        dag=rep.quotient,
        report=rep,
    )


def batch(target, *, capacity: int = 4) -> BatchResult:
    """Compare the batch schedulers of the batched regimen [20] —
    unlimited-capacity levels, Hu, and Coffman–Graham — on ``target``
    at the given per-round ``capacity``."""
    dag = _as_dag(target)
    levels = level_batches(dag)
    hu = hu_batches(dag, capacity)
    cg = coffman_graham_batches(dag, capacity)
    return BatchResult(
        fingerprint=dag.fingerprint(),
        dag_name=dag.name,
        capacity=capacity,
        lower_bound=min_rounds_lower_bound(dag, capacity),
        rows=(
            ("levels", levels.rounds, levels.utilization),
            ("hu", hu.rounds, hu.utilization),
            ("coffman-graham", cg.rounds, cg.utilization),
        ),
    )


def priority(
    left,
    right,
    *,
    left_schedule: Schedule | None = None,
    right_schedule: Schedule | None = None,
) -> PriorityResult:
    """Test the ▷ relation between two dags, both directions.

    Known IC-optimal schedules may be supplied to skip the exhaustive
    searches; raises :class:`~repro.exceptions.PriorityError` when a
    dag admits no IC-optimal schedule.
    """
    g1, g2 = _as_dag(left), _as_dag(right)
    return PriorityResult(
        left=g1.name,
        right=g2.name,
        forward=has_priority(g1, g2, left_schedule, right_schedule),
        backward=has_priority(g2, g1, right_schedule, left_schedule),
    )
