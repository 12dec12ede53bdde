"""E-CERTIFY — decomposition-first certification vs the exhaustive
lattice search.

Measures, per recognized family, the *deterministic* search effort
(``search_states_expanded_total``) of three certification modes:

* **exhaustive** — the monolithic ideal-lattice search
  (``strategy="exhaustive"``, profile cache off);
* **compositional** — recognition + Theorem 2.1 assembly over a cold
  :class:`~repro.core.profile_cache.ProfileCache`: only the blocks are
  searched;
* **warm** — the same certification against the now-populated store:
  zero states (every block is a cache hit).

States-expanded counts are machine-independent, so the recorded
ratios are gated hard by ``tools/check_bench_regression.py``: the
headline claim — compositional certification of ``B_3`` expands at
least **10x** fewer states than the exhaustive search while granting
a certificate with the byte-identical eligibility profile — is pinned
in the committed ``benchmarks/BENCH_certify.json`` baseline.  Wall
times are recorded for context (host-dependent; gated only under
``--absolute``).

Run standalone (``python benchmarks/bench_certify.py``); writes
``benchmarks/out/BENCH_certify.json`` and a readable report.
"""

from __future__ import annotations

import json
import time

from repro.analysis import render_table
from repro.core import ProfileCache, certify, max_eligibility_profile
from repro.families import butterfly_net, diamond, mesh, prefix, trees
from repro.obs import MetricsRegistry, set_global_registry

from _harness import OUT_DIR, write_report

FRESH_RECORD = OUT_DIR / "BENCH_certify.json"

#: the recognized families measured — ``butterfly_3`` carries the
#: gated headline ratio (B_3-sized input per the acceptance claim).
FAMILIES = [
    ("out_mesh_6", lambda: mesh.out_mesh_dag(6)),
    ("in_mesh_5", lambda: mesh.in_mesh_dag(5)),
    ("out_tree_4", lambda: trees.complete_out_tree(4).dag),
    ("diamond_3", lambda: diamond.complete_diamond(3).dag),
    ("prefix_8", lambda: prefix.prefix_dag(8)),
    ("butterfly_3", lambda: butterfly_net.butterfly_dag(3)),
]


def _measured(fn) -> tuple[float, float]:
    """Run ``fn`` under a fresh metrics registry; returns
    ``(states_expanded, wall_seconds)``."""
    reg = MetricsRegistry()
    old = set_global_registry(reg)
    try:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return reg.value("search_states_expanded_total"), wall
    finally:
        set_global_registry(old)


def run() -> dict:
    rows = []
    record_families = []
    for name, build in FAMILIES:
        dag = build()
        ceiling = list(max_eligibility_profile(dag))

        ex_states, ex_wall = _measured(
            lambda: certify(dag, strategy="exhaustive", cache=False)
        )
        store = ProfileCache()
        results = {}

        def cold():
            results["cold"] = certify(
                dag, strategy="compositional", cache=store
            )

        def warm():
            results["warm"] = certify(
                dag, strategy="compositional", cache=store
            )

        co_states, co_wall = _measured(cold)
        warm_states, warm_wall = _measured(warm)

        # the certificate must be byte-identical to the exhaustive
        # ceiling — a bench that measured a wrong certificate would
        # gate a lie
        for which, res in results.items():
            assert list(res.schedule.profile) == ceiling, (
                f"{name}/{which}: composed profile deviates from M(t)"
            )
            assert res.ic_optimal

        ratio = ex_states / co_states if co_states else float("inf")
        record_families.append({
            "family": name,
            "nodes": len(dag),
            "states_exhaustive": int(ex_states),
            "states_compositional": int(co_states),
            "states_warm": int(warm_states),
            "ratio": round(ratio, 1) if ratio != float("inf") else None,
            "wall_exhaustive_s": round(ex_wall, 6),
            "wall_compositional_s": round(co_wall, 6),
            "wall_warm_s": round(warm_wall, 6),
        })
        rows.append((
            name, len(dag), int(ex_states), int(co_states),
            int(warm_states),
            f"{ratio:.0f}x" if ratio != float("inf") else "inf",
        ))

    headline = next(
        f for f in record_families if f["family"] == "butterfly_3"
    )
    record = {
        "schema": 1,
        "workload": (
            "recognized families certified three ways; states expanded "
            "is deterministic and gated, wall times informational"
        ),
        "families": record_families,
        "headline": {
            "family": "butterfly_3",
            "ratio": headline["ratio"],
            "min_ratio": 10.0,
        },
    }
    report = render_table(
        ["family", "nodes", "exhaustive", "compositional", "warm",
         "ratio"],
        rows,
        title="states expanded per certification mode",
    )
    report += (
        f"\nheadline: B_3 compositional expands "
        f"{headline['ratio']}x fewer states (floor 10x)"
    )
    return record, report


def main() -> int:
    record, report = run()
    OUT_DIR.mkdir(exist_ok=True)
    FRESH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    write_report("E-CERTIFY", report)
    print(f"record -> {FRESH_RECORD}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
