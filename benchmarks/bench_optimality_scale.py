"""E-PERF — IC-optimality certification at scale.

Regenerates the perf-regression record ``BENCH_optimality.json`` for
the hot path of the whole assessment arm: the exhaustive ideal-lattice
searches of :mod:`repro.core.optimality` on the Section 5
butterfly/FFT certification workload, which every figure benchmark
funnels through.

Three measurements per size (butterfly networks ``B_2`` and ``B_3`` —
``B_3`` is the largest exactly certifiable butterfly; ``B_4``'s
nonsink ideal lattice exceeds 2·10⁷ states):

* **legacy** — the pre-rewrite frozenset-based level BFS, frozen in
  ``tests/optimality_reference.py`` as the reference implementation
  and correctness oracle;
* **sequential** — the bitmask engine (canonical frontier keys);
* **cached** — a repeat certification through
  :class:`repro.core.ProfileCache` (the O(1) common case).

Plus a sim-server workload segment: repeated
:func:`repro.api.simulate` requests over a fixed dag population,
pinned to ``strategy="exhaustive"`` (the decomposition-first default
would recognize the butterflies and skip the lattice search entirely
— see ``benchmarks/bench_certify.py`` for that comparison), reporting
the certification cache hit rate a server actually sees.

Every path is asserted byte-identical to the legacy profile before any
number is recorded.  Run standalone (``python
benchmarks/bench_optimality_scale.py``) or under pytest-benchmark;
compare records across commits with ``tools/check_bench_regression.py``
(see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import api
from repro.core import (
    ProfileCache,
    SearchStats,
    find_ic_optimal_schedule,
    max_eligibility_profile,
    set_global_profile_cache,
)
from repro.families.butterfly_net import butterfly_dag

from _harness import OUT_DIR, reference_max_profile, write_report

#: where a fresh run writes its record (the committed baseline lives at
#: ``benchmarks/BENCH_optimality.json``).
FRESH_RECORD = OUT_DIR / "BENCH_optimality.json"
BASELINE_RECORD = pathlib.Path(__file__).parent / "BENCH_optimality.json"

#: butterfly dimensions certified; the last entry is "the largest".
SIZES = (2, 3)
REPEATS = 3


def _best_of(repeats: int, fn):
    """(best wall-clock seconds, last result) of ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def collect_record() -> dict:
    """Run the whole workload; return the JSON-ready record."""
    budget = 20_000_000
    legacy = reference_max_profile()
    sizes = []
    for d in SIZES:
        dag = butterfly_dag(d)
        t_legacy, p_legacy = _best_of(
            REPEATS, lambda g=dag: legacy(g, budget)
        )
        stats = SearchStats()
        t_seq, p_seq = _best_of(
            REPEATS,
            lambda g=dag: max_eligibility_profile(g, budget, stats=stats),
        )
        cache = ProfileCache()
        cache.max_profile(dag, budget)  # warm
        t_cached, p_cached = _best_of(
            REPEATS, lambda g=dag: cache.max_profile(g, budget)
        )
        assert p_seq == p_legacy, f"B_{d}: sequential diverged from legacy"
        assert p_cached == p_legacy, f"B_{d}: cached diverged from legacy"
        sched = find_ic_optimal_schedule(dag, budget, max_profile=p_seq)
        assert sched is not None and list(sched.profile) == p_legacy
        sizes.append(
            {
                "dag": f"B_{d}",
                "nodes": len(dag),
                "nonsinks": len(dag.nonsinks),
                "states_expanded": stats.states_expanded,
                "frontier_peak": stats.frontier_peak,
                "legacy_s": round(t_legacy, 6),
                "sequential_s": round(t_seq, 6),
                "cached_s": round(t_cached, 6),
                "nodes_per_sec": round(len(dag) / t_seq, 1),
                "states_per_sec": round(stats.states_expanded / t_seq, 1),
                "speedup_vs_legacy": round(t_legacy / t_seq, 2),
                "cached_speedup_vs_legacy": round(t_legacy / t_cached, 2),
            }
        )

    # ---- sim-server workload: repeated certification of a fixed dag
    # population, as a long-running server sees it.
    workload_cache = ProfileCache()
    old = set_global_profile_cache(workload_cache)
    try:
        requests = 0
        for _round in range(4):
            for d in (1, 2):
                res = api.simulate(
                    butterfly_dag(d), clients=4, seed=_round,
                    strategy="exhaustive",
                )
                assert res.completed == len(butterfly_dag(d))
                assert res.certificate == "exhaustive"
                requests += 1
    finally:
        set_global_profile_cache(old)
    sim_stats = workload_cache.stats()

    largest = sizes[-1]
    return {
        "schema": 1,
        "workload": "Section 5 butterfly/FFT certification",
        "sizes": sizes,
        "largest": {
            "dag": largest["dag"],
            "speedup_vs_legacy": largest["speedup_vs_legacy"],
            "cached_speedup_vs_legacy": largest["cached_speedup_vs_legacy"],
            "states_expanded": largest["states_expanded"],
        },
        "sim_server": {
            "requests": requests,
            "cache_hits": sim_stats.hits,
            "cache_misses": sim_stats.misses,
            "cache_hit_rate": round(sim_stats.hit_rate, 4),
        },
    }


def _render(record: dict) -> str:
    from repro.analysis import render_table

    rows = [
        (
            s["dag"],
            s["nodes"],
            s["states_expanded"],
            f"{s['legacy_s'] * 1e3:.2f}",
            f"{s['sequential_s'] * 1e3:.2f}",
            f"{s['cached_s'] * 1e3:.3f}",
            f"{s['speedup_vs_legacy']:.1f}x",
        )
        for s in record["sizes"]
    ]
    report = render_table(
        ["dag", "nodes", "states", "legacy ms", "bitmask ms", "cached ms",
         "speedup"],
        rows,
        title="ideal-lattice certification: legacy vs bitmask engine",
    )
    sim = record["sim_server"]
    report += (
        f"\nsim-server workload: {sim['requests']} scheduling requests, "
        f"cache hit rate {sim['cache_hit_rate']:.2f} "
        f"({sim['cache_hits']} hits / {sim['cache_misses']} misses)"
    )
    return report


def run() -> dict:
    record = collect_record()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-PERF_optimality_scale", _render(record))
    return record


def test_optimality_scale(benchmark):
    dag = butterfly_dag(SIZES[-1])
    benchmark(lambda: max_eligibility_profile(dag, 20_000_000))
    record = run()
    assert record["largest"]["speedup_vs_legacy"] >= 5.0
    assert record["sim_server"]["cache_hit_rate"] > 0.0


if __name__ == "__main__":
    rec = run()
    print(json.dumps(rec["largest"], indent=2))
