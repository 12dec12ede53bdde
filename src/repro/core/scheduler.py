"""High-level scheduling front end.

:func:`schedule_dag` is the library's main entry point: it produces
the best schedule it can certify for the input, via the
decomposition-first strategy engine of :mod:`repro.core.certify`
(``docs/CERTIFICATION.md``):

1. a :class:`~repro.core.composition.CompositionChain` with a valid
   ▷-chain is scheduled by Theorem 2.1 (certified IC-optimal);
2. a bare dag is *factored*: :func:`~repro.core.recognition.recognize`
   (or a connected-component split) recovers a composition chain whose
   blocks are certified from the memoized block-certificate library,
   and Theorem 2.1 assembles the composite schedule;
3. an unrecognized dag small enough for exhaustive search is scheduled
   by :func:`~repro.core.optimality.find_ic_optimal_schedule`
   (certified IC-optimal, or certified *non-existent*);
4. otherwise: with a ``budget=``, the *anytime* path returns the best
   schedule found plus certified eligibility-loss bounds; without one,
   a greedy heuristic — in both cases the certificate *says so*
   (nothing is ever returned unlabeled).

The returned :class:`SchedulingResult` records which path was taken
(:class:`Certificate` and its coarse :attr:`Certificate.kind`), the
per-block certificate provenance, and the anytime bounds, so callers
(benchmarks, the simulator, the service) can report certification
status precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..obs import global_registry, span
from .composition import CompositionChain
from .dag import ComputationDag, Node
from .execution import ExecutionState
from .profile_cache import ProfileCache
from .schedule import Schedule

__all__ = ["Certificate", "SchedulingResult", "schedule_dag", "greedy_schedule"]


class Certificate(Enum):
    """How the returned schedule's quality is certified."""

    #: IC-optimal by Theorem 2.1 applied to a ▷-linear composition.
    COMPOSITION = "composition"
    #: IC-optimal by Theorem 2.1 within topological-cut segments (the
    #: Table 1 alternating compositions).
    SEGMENTED = "segmented"
    #: IC-optimal by exhaustive search against the max profile.
    EXHAUSTIVE = "exhaustive"
    #: Exhaustive search proved no IC-optimal schedule exists; the
    #: returned schedule is the greedy one (its exact loss is recorded
    #: in :attr:`SchedulingResult.bounds`).
    NONE_EXISTS = "none-exists"
    #: Budget ran out mid-search; the returned schedule carries sound
    #: lower/upper bounds on its eligibility loss.
    ANYTIME = "anytime"
    #: Greedy heuristic, no optimality claim.
    HEURISTIC = "heuristic"

    @property
    def kind(self) -> str:
        """The coarse certificate kind every result/metric is stamped
        with: ``"exact"`` (exhaustively settled — optimal found or
        proven non-existent), ``"composed"`` (Theorem 2.1 assembly),
        ``"anytime"`` (bounded), or ``"heuristic"`` (no claim)."""
        return _KINDS[self]


_KINDS = {
    Certificate.COMPOSITION: "composed",
    Certificate.SEGMENTED: "composed",
    Certificate.EXHAUSTIVE: "exact",
    Certificate.NONE_EXISTS: "exact",
    Certificate.ANYTIME: "anytime",
    Certificate.HEURISTIC: "heuristic",
}


@dataclass
class SchedulingResult:
    """A schedule together with its optimality certificate."""

    schedule: Schedule
    certificate: Certificate
    #: strategy that produced the result (``"auto"``,
    #: ``"compositional"``, ``"exhaustive"``, ``"anytime"``,
    #: ``"heuristic"``)
    strategy: str = "auto"
    #: certified ``(lower, upper)`` bounds on the schedule's
    #: eligibility loss ``max_t (M(t) - E(t))``; ``(0, 0)`` for every
    #: certified IC-optimal schedule, a genuine interval on the
    #: anytime path, ``None`` when nothing was measured (heuristic)
    bounds: tuple[int, int] | None = None
    #: per-block certificate provenance of a composed schedule (see
    #: :class:`~repro.core.certify.BlockProvenance`); empty for
    #: monolithic certifications
    provenance: tuple = ()

    @property
    def kind(self) -> str:
        """Coarse certificate kind (see :attr:`Certificate.kind`)."""
        return self.certificate.kind

    @property
    def ic_optimal(self) -> bool:
        """True when the schedule is certified IC-optimal."""
        if self.certificate in (
            Certificate.COMPOSITION,
            Certificate.SEGMENTED,
            Certificate.EXHAUSTIVE,
        ):
            return True
        # an anytime interval that closed at zero loss is a proof too
        return self.certificate is Certificate.ANYTIME and \
            self.bounds == (0, 0)


def greedy_schedule(dag: ComputationDag, name: str = "greedy") -> Schedule:
    """A deterministic greedy schedule: at each step execute the
    eligible node that renders the most new nodes ELIGIBLE, breaking
    ties by larger out-degree, then by insertion order.

    Runs nonsinks first (sinks can never help), so its profile weakly
    dominates naive orders; it carries no optimality certificate.
    """
    index = {v: i for i, v in enumerate(dag.nodes)}
    state = ExecutionState(dag)
    order: list[Node] = []
    remaining_nonsinks = sum(1 for v in dag.nodes if not dag.is_sink(v))
    while remaining_nonsinks:
        best: Node | None = None
        best_key: tuple[int, int, int] | None = None
        for v in state.eligible:
            if dag.is_sink(v):
                continue
            newly = sum(
                1
                for c in dag.children(v)
                if all(p == v or state.is_executed(p) for p in dag.parents(c))
            )
            key = (-newly, -dag.outdegree(v), index[v])
            if best_key is None or key < best_key:
                best_key = key
                best = v
        assert best is not None, "acyclic dag always has an eligible nonsink"
        state.execute(best)
        order.append(best)
        remaining_nonsinks -= 1
    order.extend(v for v in dag.nodes if dag.is_sink(v))
    return Schedule(dag, order, name=name)


def schedule_dag(
    target: ComputationDag | CompositionChain,
    *,
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    cache: ProfileCache | bool = True,
) -> SchedulingResult:
    """Schedule ``target`` with the strongest available certificate.

    The stable entry point for this operation is
    :func:`repro.api.schedule`; ``schedule_dag`` remains supported,
    and its tuning options are keyword-only (the historical positional
    forms were removed; see ``docs/API_MIGRATION.md``).

    Parameters
    ----------
    target:
        Either a :class:`CompositionChain` (preferred — carries its own
        decomposition certificate) or a bare :class:`ComputationDag`.
    strategy:
        Certification strategy (``docs/CERTIFICATION.md``): ``"auto"``
        (decomposition first, then exhaustive, then anytime/heuristic —
        the default), ``"compositional"`` (decomposition only),
        ``"exhaustive"``, ``"anytime"``, or ``"heuristic"``.
    budget:
        Anytime state budget: when certification cannot finish within
        it, the result is the best schedule found plus certified
        eligibility-loss bounds (certificate ``"anytime"``) instead of
        an unlabeled heuristic.  ``None`` (default) disables the
        anytime fallback of ``"auto"``.
    exhaustive_limit:
        Maximum number of nonsinks for which exhaustive search is
        attempted on undecomposable dags.
    state_budget:
        Ideal-state cap for the exhaustive search; if exceeded the
        strategy falls back (anytime under a ``budget``, else greedy).
    cache:
        ``True`` (default) memoizes block certificates and exhaustive
        results in the process-wide certificate store
        (:func:`~repro.core.profile_cache.global_profile_cache`); pass
        a :class:`ProfileCache` (possibly path-backed) to use a
        private one, or ``False`` to search everything from scratch.

    Every request increments ``scheduler_requests_total`` (labeled by
    the certificate granted) in the process-wide metrics registry and
    opens a ``scheduler.schedule_dag`` span when tracing is enabled.
    """
    from .certify import certify

    name = target.dag.name if isinstance(target, CompositionChain) \
        else target.name
    with span("scheduler.schedule_dag", dag=name) as sp:
        result = certify(
            target,
            strategy=strategy,
            budget=budget,
            exhaustive_limit=exhaustive_limit,
            state_budget=state_budget,
            cache=cache,
        )
        sp.set(certificate=result.certificate.value, kind=result.kind)
    global_registry().counter(
        "scheduler_requests_total",
        "schedule_dag requests by certificate granted", ("certificate",),
    ).labels(result.certificate.value).inc()
    return result
