"""The level BFS of ``repro.core.optimality`` against its slow oracle.

:func:`~repro.core.optimality.max_eligibility_profile` and
:func:`~repro.core.optimality.partial_max_eligibility_profile` share
one bitmask level BFS.  Both are checked against the frozen frozenset
BFS in ``tests/optimality_reference.py`` on every catalog block, on
each paper family at two sizes and on seeded random dags; the found
schedules must attain the reference ceiling; and the budget cut is
pinned by state counts read before the two searches were merged.

The ``repro.api`` verbs no longer take ``parallel=`` / ``workers=``
(API version 2); the last test pins that they raise ``TypeError``.
"""

import random

import pytest

from repro import api
from repro.blocks import block
from repro.blocks.catalog import BLOCK_KINDS
from repro.core import (
    SearchStats,
    find_ic_optimal_schedule,
    is_ic_optimal,
    max_eligibility_profile,
)
from repro.core.dag import ComputationDag
from repro.core.optimality import partial_max_eligibility_profile
from repro.exceptions import OptimalityError
from repro.obs import MetricsRegistry, set_global_registry

from .optimality_reference import max_profile_reference

#: every catalog block kind at a representative parameter (or two
#: where the family is parameterized interestingly).
CATALOG_CASES = [
    ("V", None),
    ("V", 3),
    ("Λ", None),
    ("Λ", 3),
    ("W", 2),
    ("W", 4),
    ("M", 3),
    ("N", 3),
    ("N", 5),
    ("C", 3),
    ("C", 5),
    ("B", None),
    ("Q", 2),
]

#: seeded random dags checked against the reference.
RANDOM_CASES = 100


def _family_dags():
    """Each paper family at two sizes."""
    from repro.families.butterfly_net import butterfly_dag
    from repro.families.diamond import complete_diamond
    from repro.families.mesh import out_mesh_dag
    from repro.families.prefix import prefix_chain
    from repro.families.trees import complete_out_tree

    cases = []
    for d in (1, 2):
        cases.append((f"butterfly-{d}", butterfly_dag(d)))
    for d in (3, 4):
        cases.append((f"mesh-{d}", out_mesh_dag(d)))
    for d in (2, 3):
        cases.append((f"diamond-{d}", complete_diamond(d).dag))
    for d in (2, 3):
        cases.append((f"prefix-{d}", prefix_chain(d).dag))
    for d in (2, 3):
        cases.append((f"out-tree-{d}", complete_out_tree(d).dag))
    return cases


def _all_cases():
    cases = [
        (f"{kind}{param or ''}", block(kind, param)[0])
        for kind, param in CATALOG_CASES
    ]
    return cases + _family_dags()


def random_dag(seed: int) -> ComputationDag:
    """A random dag of 1–14 nodes, inserted in a random (usually not
    topological) order, so the bitmask index order is exercised too."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    density = rng.uniform(0.05, 0.6)
    rank = list(range(n))
    rng.shuffle(rank)  # rank[i]: position of node i in a hidden order
    names = ([f"v{i}" for i in range(n)] if rng.random() < 0.5
             else list(range(n)))
    arcs = [(names[i], names[j]) for i in range(n) for j in range(n)
            if rank[i] < rank[j] and rng.random() < density]
    return ComputationDag(nodes=names, arcs=arcs, name=f"rand{seed}")


@pytest.mark.parametrize("label,dag", _all_cases())
def test_profile_equivalence(label, dag):
    expected = max_profile_reference(dag)
    assert max_eligibility_profile(dag) == expected, label
    assert partial_max_eligibility_profile(dag, 20_000_000) == \
        (expected, True), label


@pytest.mark.parametrize("label,dag", _all_cases())
def test_schedule_equivalence(label, dag):
    # every catalog block and family case admits an IC-optimal
    # schedule; the one found must attain the reference ceiling
    sched = find_ic_optimal_schedule(dag)
    assert sched is not None, label
    assert list(sched.profile) == max_profile_reference(dag), label
    assert is_ic_optimal(sched)


def test_every_catalog_kind_covered():
    # guard: CATALOG_CASES tracks the catalog registry
    assert {k for k, _ in CATALOG_CASES} == set(BLOCK_KINDS)


def test_random_dags_match_reference():
    mismatched = []
    cut = 0
    for seed in range(RANDOM_CASES):
        dag = random_dag(seed)
        expected = max_profile_reference(dag)
        stats = SearchStats()
        if max_eligibility_profile(dag, stats=stats) != expected:
            mismatched.append((seed, "max"))
            continue
        states = stats.states_expanded
        for budget in {1, 2, max(1, states // 2), states - 1, states}:
            if budget < 1:
                continue
            prefix, complete = partial_max_eligibility_profile(dag, budget)
            if complete != (budget >= states):
                mismatched.append((seed, budget, "complete"))
            elif complete and prefix != expected:
                mismatched.append((seed, budget, "profile"))
            elif not complete and (len(prefix) >= len(expected)
                                   or prefix != expected[:len(prefix)]):
                mismatched.append((seed, budget, "prefix"))
            cut += not complete
            # the strict search raises exactly where the partial one
            # stops
            try:
                strict = max_eligibility_profile(dag, budget)
            except OptimalityError:
                strict = None
            if (strict is None) == complete:
                mismatched.append((seed, budget, "raise"))
    assert not mismatched, f"diverged from the reference: {mismatched}"
    # the generator must exercise the budget cut, not just full runs
    assert cut >= RANDOM_CASES


def _pin_dags():
    from repro.families.butterfly_net import butterfly_dag
    from repro.families.mesh import out_mesh_dag
    from tests.test_optimality import non_ic_optimal_dag

    return {"B_2": butterfly_dag(2), "mesh-5": out_mesh_dag(5),
            "none-exists": non_ic_optimal_dag()}


#: ``(len(prefix), complete, states_expanded)`` of the budgeted search
#: per budget, then ``(states_expanded, frontier_peak)`` of the full
#: search — read from the two separate BFS loops this one replaced.
PINS = {
    "B_2": ({1: (1, False, 2), 4: (1, False, 5), 64: (13, True, 49)},
            (49, 11)),
    "mesh-5": ({1: (1, False, 2), 4: (3, False, 5), 64: (9, False, 65)},
               (132, 17)),
    "none-exists": ({1: (1, False, 2), 4: (2, False, 5),
                     64: (8, True, 8)},
                    (8, 3)),
}


@pytest.mark.parametrize("label", sorted(PINS))
def test_budget_cut_pinned(label):
    dag = _pin_dags()[label]
    partial_pins, full_pin = PINS[label]
    for budget, pin in partial_pins.items():
        stats = SearchStats()
        prefix, complete = partial_max_eligibility_profile(
            dag, budget, stats=stats)
        assert (len(prefix), complete, stats.states_expanded) == pin, \
            (label, budget)
    stats = SearchStats()
    max_eligibility_profile(dag, stats=stats)
    assert (stats.states_expanded, stats.frontier_peak) == full_pin


def test_budget_cut_search_is_counted():
    # a search cut by its state budget still reports the states it
    # expanded before raising, though not as a completed search
    from repro.families.mesh import out_mesh_dag

    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    try:
        with pytest.raises(OptimalityError, match="state budget"):
            max_eligibility_profile(out_mesh_dag(6), 10)
    finally:
        set_global_registry(old)
    assert fresh.value("search_states_expanded_total") > 10
    assert fresh.value("search_frontier_peak") > 0
    assert fresh.value("search_profile_total") == 0


# ---------------------------------------------------------------------
# parallel= on the repro.api verbs: removed in API version 2


@pytest.mark.parametrize("verb", ["schedule", "verify", "simulate",
                                  "compare"])
def test_parallel_keyword_rejected(verb):
    g, _ = block("W", 2)
    with pytest.raises(TypeError, match="parallel"):
        getattr(api, verb)(g, parallel=True)
