"""Exhaustive IC-optimality machinery.

Section 2.2: a schedule is **IC-optimal** when the number of ELIGIBLE
nodes after step *t* is the maximum achievable over *all* schedules,
simultaneously for every *t*.  Many dags admit no IC-optimal schedule,
so the theory needs three primitives, all provided here:

* :func:`max_eligibility_profile` — the pointwise ceiling
  ``M(t) = max over valid t-step execution prefixes of E(t)``;
* :func:`is_ic_optimal` — does a given schedule meet the ceiling at
  every step;
* :func:`find_ic_optimal_schedule` — search for a schedule meeting the
  ceiling everywhere, or report that none exists.

Complexity and the nonsink reduction
------------------------------------
A *t*-step execution prefix is exactly an order ideal (downset) of the
dag's precedence order, so ``M(t)`` maximizes over ideals of size *t* —
exponentially many in general.  Two standard reductions (both from the
development in [21], proved in the docstrings below) keep the search
tractable for the block/family sizes the paper works with:

1. **Sinks last.** Executing a sink never renders a node ELIGIBLE
   (sinks have no children) and removes an eligible node, so for every
   mixed ideal there is a nonsink-only ideal of the same size with at
   least as many eligible nodes (swap each executed sink for an
   eligible unexecuted nonsink; one always exists while nonsinks
   remain because every parent is a nonsink).  Hence for
   ``t <= n := #nonsinks``, ``M(t)`` is attained on ideals containing
   only nonsinks, and for ``t >= n``, ``M(t) = |N| - t`` exactly (all
   sinks are eligible once every nonsink is executed).

2. **Swap propagation.** If any IC-optimal schedule exists, a
   *nonsink-first* IC-optimal schedule exists: moving the first
   prematurely-executed sink to the position of a later-executed
   eligible nonsink (and vice versa) keeps the schedule valid and
   never lowers the profile.  The existence search therefore explores
   only nonsink-first orders.

The performance model (see ``docs/PERFORMANCE.md``)
---------------------------------------------------
The enumeration is a level-synchronous BFS over ideal states.  Each
ideal is represented by its **canonical frontier key**: the executed
set encoded as an integer bitmask over the dag's node-index order.  An
ideal is uniquely determined by its executed set, so the bitmask is a
perfect canonicalization — visited-set dedup on it expands every
distinct ideal exactly once, and all per-step work (eligibility
updates on execute, membership, hashing) is machine-word integer
arithmetic instead of ``frozenset`` algebra.  Eligibility is
maintained incrementally: executing node *u* flips one bit out and
ORs in the children of *u* whose parents are all executed —
``O(out-degree)`` per transition.

The search runs in the calling process.  Certification
(:mod:`repro.core.certify`) composes the paper's families from small
blocks by Theorem 2.1, so the lattice sees blocks and undecomposable
residuals of at most ``exhaustive_limit`` nonsinks; at that size a
process pool costs more to start than the search it would split (see
``docs/PERFORMANCE.md`` §1.4).  A state budget guards against
accidentally exploding dags: :func:`max_eligibility_profile` raises
past it, :func:`partial_max_eligibility_profile` returns the levels it
finished.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..exceptions import OptimalityError
from ..obs import global_registry, span
from .dag import ComputationDag, Node
from .schedule import Schedule

__all__ = [
    "max_eligibility_profile",
    "partial_max_eligibility_profile",
    "eligibility_upper_bound",
    "is_ic_optimal",
    "find_ic_optimal_schedule",
    "ic_optimal_exists",
    "all_ic_optimal_nonsink_orders",
    "SearchStats",
]

#: default cap on distinct ideal states explored per dag.
DEFAULT_STATE_BUDGET = 2_000_000


@dataclass
class SearchStats:
    """Instrumentation of one ideal-lattice search.

    Filled in place when passed as the ``stats=`` argument of
    :func:`max_eligibility_profile`; consumed by
    ``benchmarks/bench_optimality_scale.py`` for the perf-regression
    record (``states_expanded`` is deterministic, so it doubles as a
    machine-independent regression signal).

    Every search *also* records the same numbers into the process-wide
    :class:`~repro.obs.MetricsRegistry` (metric names in
    ``docs/OBSERVABILITY.md``), so the per-call dataclass is one view
    and :meth:`from_registry` — the process-lifetime totals — is
    another.
    """

    #: distinct ideal states expanded (the empty start ideal included).
    states_expanded: int = 0
    #: largest BFS frontier encountered.
    frontier_peak: int = 0

    @classmethod
    def from_registry(cls, registry=None) -> "SearchStats":
        """The process-lifetime totals as recorded in ``registry``
        (default: the global one) — a view over
        ``search_states_expanded_total`` / ``search_frontier_peak``."""
        reg = registry if registry is not None else global_registry()
        return cls(
            states_expanded=int(reg.value("search_states_expanded_total")),
            frontier_peak=int(reg.value("search_frontier_peak")),
        )


def _record_search(states: int, peak: int, seconds: float,
                   completed: bool = True) -> None:
    """Aggregate one profile search into the global registry.

    Called once per :func:`max_eligibility_profile` call (never per
    state), so the cost is a handful of locked increments — the
    disabled-path overhead gate in ``bench_observability.py`` covers
    it.  A search cut by its state budget counts its states, peak and
    duration too, but not as a completed search.  The ``mode`` label
    keeps its one value, ``sequential``, so dashboards and scrapes
    written against it keep matching.
    """
    reg = global_registry()
    if completed:
        reg.counter(
            "search_profile_total",
            "max-eligibility-profile searches completed", ("mode",),
        ).labels("sequential").inc()
    reg.counter(
        "search_states_expanded_total",
        "distinct ideal states expanded by profile searches", ("mode",),
    ).labels("sequential").inc(states)
    reg.gauge(
        "search_frontier_peak",
        "largest BFS frontier seen by any profile search",
    ).set_max(peak)
    reg.histogram(
        "search_profile_seconds",
        "wall-clock duration of profile searches", ("mode",),
    ).labels("sequential").observe(seconds)


# ----------------------------------------------------------------------
# bitmask tables
# ----------------------------------------------------------------------


def _bit_tables(dag: ComputationDag):
    """Index the dag for the bitmask engine.

    Returns ``(nodes, children, parents_mask, nonsink_mask,
    init_eligible)`` where ``children[i]`` lists child indices of node
    *i*, ``parents_mask[i]`` is the bitmask of its parents, and masks
    are over the node-insertion-order indexing (the same order every
    other deterministic iteration in the library uses).
    """
    nodes = dag.nodes
    index = {v: i for i, v in enumerate(nodes)}
    children: list[list[int]] = []
    parents_mask: list[int] = []
    nonsink_mask = 0
    init_eligible = 0
    for i, v in enumerate(nodes):
        cs = [index[c] for c in dag.children(v)]
        children.append(cs)
        if cs:
            nonsink_mask |= 1 << i
        pm = 0
        for p in dag.parents(v):
            pm |= 1 << index[p]
        parents_mask.append(pm)
        if pm == 0:
            init_eligible |= 1 << i
    return nodes, children, parents_mask, nonsink_mask, init_eligible


def _level_bfs(
    children: list[list[int]],
    parents_mask: list[int],
    nonsink_mask: int,
    init_eligible: int,
    state_budget: int,
) -> tuple[list[int], int, int, bool]:
    """BFS the nonsink ideal lattice level by level from the empty
    ideal.

    Returns ``(maxima, states, frontier_peak, complete)``.
    ``maxima[k]`` is the max eligible count over ideals of size
    ``k + 1``, for every level the BFS finished.  ``states`` counts
    each distinct ideal when first reached, the empty start ideal
    included.  The BFS stops the moment ``states`` passes
    ``state_budget``: the level it was in is dropped (its running
    maximum is only a lower bound) and ``complete`` is False.
    """
    frontier: dict[int, int] = {0: init_eligible}
    maxima: list[int] = []
    states = 1
    frontier_peak = 1
    for _t in range(nonsink_mask.bit_count()):
        nxt: dict[int, int] = {}
        for executed, eligible in frontier.items():
            avail = eligible & nonsink_mask
            while avail:
                bit = avail & -avail
                avail ^= bit
                new_exec = executed | bit
                if new_exec in nxt:
                    continue
                newly = 0
                for c in children[bit.bit_length() - 1]:
                    if parents_mask[c] & ~new_exec == 0:
                        newly |= 1 << c
                nxt[new_exec] = (eligible ^ bit) | newly
                states += 1
                if states > state_budget:
                    return maxima, states, frontier_peak, False
        # nxt is never empty: in an acyclic dag some minimal
        # unexecuted nonsink is eligible while nonsinks remain.
        maxima.append(max(m.bit_count() for m in nxt.values()))
        frontier = nxt
        frontier_peak = max(frontier_peak, len(frontier))
    return maxima, states, frontier_peak, True


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def max_eligibility_profile(
    dag: ComputationDag,
    state_budget: int = DEFAULT_STATE_BUDGET,
    *,
    stats: SearchStats | None = None,
) -> list[int]:
    """Compute ``[M(0), M(1), ..., M(|N|)]`` for ``dag``.

    ``M(t)`` is the maximum, over all valid length-``t`` execution
    prefixes, of the number of ELIGIBLE unexecuted nodes.

    Parameters
    ----------
    state_budget:
        Cap on distinct ideal states explored.
    stats:
        Optional :class:`SearchStats` filled with instrumentation.

    Raises
    ------
    OptimalityError
        If the BFS would exceed ``state_budget`` distinct states.
    """
    t_start = time.perf_counter()
    dag.validate()
    total = len(dag)
    _nodes, children, parents_mask, nonsink_mask, init_eligible = (
        _bit_tables(dag)
    )
    n = nonsink_mask.bit_count()
    maxima: list[int] = []
    states = peak = 1
    if n:
        with span("optimality.max_profile", dag=dag.name, nodes=total,
                  mode="sequential"):
            maxima, states, peak, complete = _level_bfs(
                children, parents_mask, nonsink_mask, init_eligible,
                state_budget,
            )
            if not complete:
                _record_search(states, peak,
                               time.perf_counter() - t_start,
                               completed=False)
                raise OptimalityError(
                    f"ideal enumeration for dag {dag.name!r} exceeded "
                    f"state budget {state_budget}"
                )
    # Once all nonsinks are executed, every remaining node is an
    # eligible sink; executing sinks decrements the count by one.
    profile = [init_eligible.bit_count(), *maxima]
    profile.extend(total - t for t in range(n + 1, total + 1))
    if stats is not None:
        stats.states_expanded = states
        stats.frontier_peak = peak
    _record_search(states, peak, time.perf_counter() - t_start)
    return profile


def partial_max_eligibility_profile(
    dag: ComputationDag,
    state_budget: int,
    *,
    stats: SearchStats | None = None,
) -> tuple[list[int], bool]:
    """Compute as much of ``[M(0), M(1), ...]`` as ``state_budget``
    distinct ideal states allow.

    Returns ``(prefix, complete)``.  ``prefix`` holds *exact* ceiling
    values for every fully enumerated level — the BFS is
    level-synchronous, so once level *t* is exhausted ``M(t)`` is known
    even if the budget dies at level ``t + 1``; a partially enumerated
    level is discarded (its running maximum is only a lower bound).
    ``complete`` is True when the whole lattice fit in the budget, in
    which case ``prefix`` equals :func:`max_eligibility_profile`'s
    result exactly (including the deterministic sink tail).

    This is the exact half of the anytime certification mode
    (:mod:`repro.core.certify`): the certified *lower* bound on
    eligibility loss comes from the exact prefix, the *upper* bound
    from :func:`eligibility_upper_bound` beyond it.  Unlike
    :func:`max_eligibility_profile`, budget exhaustion here is an
    answer, not an error.
    """
    dag.validate()
    total = len(dag)
    _nodes, children, parents_mask, nonsink_mask, init_eligible = (
        _bit_tables(dag)
    )
    maxima, states, peak, complete = _level_bfs(
        children, parents_mask, nonsink_mask, init_eligible, state_budget,
    )
    prefix = [init_eligible.bit_count(), *maxima]
    if complete:
        # all nonsink levels enumerated: the sink tail is exact.
        n = nonsink_mask.bit_count()
        prefix.extend(total - t for t in range(n + 1, total + 1))
    if stats is not None:
        stats.states_expanded = states
        stats.frontier_peak = peak
    global_registry().counter(
        "search_partial_profile_total",
        "budgeted (anytime) profile searches", ("outcome",),
    ).labels("complete" if complete else "exhausted").inc()
    return prefix, complete


def eligibility_upper_bound(dag: ComputationDag) -> list[int]:
    """A cheap structural pointwise bound ``U(t) >= M(t)`` for every
    ``t``, computed without touching the ideal lattice.

    Two facts bound the eligible count after *t* executions:

    * at most ``|N| - t`` nodes remain unexecuted;
    * a node with *a* proper ancestors cannot be eligible (or
      executed) before step *a*, so at step *t* every eligible *and*
      every executed node lies in ``A(t) = {v : |ancestors(v)| <= t}``
      — and the *t* executed nodes themselves are in ``A(t)``, hence
      ``E(t) <= |A(t)| - t``.

    ``U(t) = max(0, min(|N| - t, |A(t)| - t))``.  The bound is exact
    on antichain-free extremes (paths) and within a small constant on
    the paper's families; its job is to make anytime loss intervals
    *sound*, not tight.  Cost: one bitmask ancestor sweep,
    ``O(|N|^2 / wordsize)``.
    """
    dag.validate()
    nodes = dag.nodes
    index = {v: i for i, v in enumerate(nodes)}
    anc_mask: list[int] = [0] * len(nodes)
    for v in dag.topological_order():
        i = index[v]
        m = 0
        for p in dag.parents(v):
            j = index[p]
            m |= anc_mask[j] | (1 << j)
        anc_mask[i] = m
    anc_counts = sorted(m.bit_count() for m in anc_mask)
    total = len(nodes)
    bound: list[int] = []
    k = 0
    for t in range(total + 1):
        while k < total and anc_counts[k] <= t:
            k += 1
        # k == |A(t)| since anc_counts is sorted ascending
        bound.append(max(0, min(total - t, k - t)))
    return bound


def is_ic_optimal(
    schedule: Schedule,
    max_profile: Sequence[int] | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff ``schedule`` attains the maximum eligible count at
    every step of the execution.

    ``max_profile`` may be passed to reuse a previously computed
    ceiling (it must come from the same dag); otherwise the ceiling is
    computed here.
    """
    ceiling = (
        list(max_profile)
        if max_profile is not None
        else max_eligibility_profile(schedule.dag, state_budget)
    )
    prof = schedule.profile
    if len(prof) != len(ceiling):
        raise OptimalityError(
            "max profile length does not match schedule profile length"
        )
    return all(e == m for e, m in zip(prof, ceiling))


def find_ic_optimal_schedule(
    dag: ComputationDag,
    state_budget: int = DEFAULT_STATE_BUDGET,
    name: str = "ic-optimal",
    *,
    max_profile: Sequence[int] | None = None,
) -> Schedule | None:
    """Search for an IC-optimal schedule of ``dag``.

    Returns a nonsink-first IC-optimal :class:`Schedule`, or ``None``
    when the dag admits no IC-optimal schedule (by reduction 2 in the
    module docstring, searching nonsink-first orders is complete).

    The search is a DFS over bitmask states that only follows steps
    keeping the running profile equal to the ceiling ``M``; visited
    dead states are memoized by their canonical frontier key so each
    ideal is expanded at most once.  Candidate nodes are tried in
    ascending node-index (insertion) order, so the returned schedule
    is deterministic.

    ``max_profile`` may supply a precomputed ceiling (e.g. from
    :mod:`repro.core.profile_cache`).
    """
    if max_profile is not None:
        ceiling = list(max_profile)
    else:
        ceiling = max_eligibility_profile(dag, state_budget)
    nodes, children, parents_mask, nonsink_mask, init_eligible = (
        _bit_tables(dag)
    )
    n = nonsink_mask.bit_count()

    dead: set[int] = set()
    order_idx: list[int] = []

    def dfs(executed: int, eligible: int, t: int) -> bool:
        if t == n:
            return True
        if executed in dead:
            return False
        avail = eligible & nonsink_mask
        while avail:
            bit = avail & -avail
            avail ^= bit
            new_exec = executed | bit
            newly = 0
            u = bit.bit_length() - 1
            for c in children[u]:
                if parents_mask[c] & ~new_exec == 0:
                    newly |= 1 << c
            new_elig = (eligible ^ bit) | newly
            if new_elig.bit_count() != ceiling[t + 1]:
                continue
            order_idx.append(u)
            if dfs(new_exec, new_elig, t + 1):
                return True
            order_idx.pop()
        dead.add(executed)
        return False

    with span("optimality.find_schedule", dag=dag.name, nodes=len(nodes)):
        found = dfs(0, init_eligible, 0)
    global_registry().counter(
        "search_schedule_total",
        "IC-optimal schedule existence searches", ("outcome",),
    ).labels("found" if found else "none").inc()
    if not found:
        return None
    order = [nodes[i] for i in order_idx]
    sinks = [v for v in nodes if dag.is_sink(v)]
    return Schedule(dag, order + sinks, name=name)


def ic_optimal_exists(
    dag: ComputationDag,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Decide whether ``dag`` admits an IC-optimal schedule."""
    return find_ic_optimal_schedule(dag, state_budget) is not None


def all_ic_optimal_nonsink_orders(
    dag: ComputationDag,
    limit: int = 10_000,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[tuple[Node, ...]]:
    """Enumerate every nonsink order whose prefixes all meet ``M``.

    Intended for small dags in tests (e.g. verifying the paper's
    "optimal iff consecutive-source" characterizations for in-trees and
    butterflies).  Stops after ``limit`` orders.  Orders are emitted in
    lexicographic node-index order (deterministic).
    """
    ceiling = max_eligibility_profile(dag, state_budget)
    nodes, children, parents_mask, nonsink_mask, init_eligible = (
        _bit_tables(dag)
    )
    n = nonsink_mask.bit_count()
    out: list[tuple[Node, ...]] = []
    order_idx: list[int] = []

    def dfs(executed: int, eligible: int, t: int) -> None:
        if len(out) >= limit:
            return
        if t == n:
            out.append(tuple(nodes[i] for i in order_idx))
            return
        avail = eligible & nonsink_mask
        while avail:
            bit = avail & -avail
            avail ^= bit
            new_exec = executed | bit
            newly = 0
            u = bit.bit_length() - 1
            for c in children[u]:
                if parents_mask[c] & ~new_exec == 0:
                    newly |= 1 << c
            new_elig = (eligible ^ bit) | newly
            if new_elig.bit_count() != ceiling[t + 1]:
                continue
            order_idx.append(u)
            dfs(new_exec, new_elig, t + 1)
            order_idx.pop()

    dfs(0, init_eligible, 0)
    return out
