"""The frozen max-eligibility profile: the reference for the level BFS.

``max_profile_reference`` is the ideal-lattice BFS the library shipped
before the bitmask engine: executed sets are ``frozenset`` objects and
eligibility is recomputed from the dag's parent lists.  It is kept
unchanged as an oracle: ``tests/test_optimality_parallel.py`` checks
:func:`repro.core.optimality.max_eligibility_profile` and
:func:`repro.core.optimality.partial_max_eligibility_profile` against
it on the block catalogue, the paper's families and random dags, and
``benchmarks/bench_optimality_scale.py`` times it as its ``legacy``
leg.  Do not edit it to follow the engine; it is the thing the engine
is checked against.
"""

from __future__ import annotations

from repro.exceptions import OptimalityError

__all__ = ["max_profile_reference"]


def max_profile_reference(dag, state_budget: int = 20_000_000) -> list[int]:
    """The seed implementation (frozenset states), verbatim: the
    reference the rewrite must match byte for byte."""
    dag.validate()
    total = len(dag)
    nonsinks = [v for v in dag.nodes if not dag.is_sink(v)]
    n = len(nonsinks)
    nonsink_set = set(nonsinks)
    parents_count = {v: dag.indegree(v) for v in dag.nodes}
    init_eligible = frozenset(v for v in dag.nodes if parents_count[v] == 0)
    profile = [len(init_eligible)]
    frontier = {frozenset(): init_eligible}
    states_seen = 1
    for _t in range(1, n + 1):
        nxt: dict = {}
        for executed, eligible in frontier.items():
            for u in eligible:
                if u not in nonsink_set:
                    continue
                new_exec = executed | {u}
                if new_exec in nxt:
                    continue
                newly = [
                    c
                    for c in dag.children(u)
                    if all(p in new_exec for p in dag.parents(c))
                ]
                nxt[new_exec] = (eligible - {u}) | frozenset(newly)
                states_seen += 1
                if states_seen > state_budget:
                    raise OptimalityError("legacy reference exceeded budget")
        profile.append(max(len(e) for e in nxt.values()))
        frontier = nxt
    for t in range(n + 1, total + 1):
        profile.append(total - t)
    return profile
