"""Tests for the decomposition-first certification engine
(:mod:`repro.core.certify`): compositional certificates byte-identical
to the exhaustive search, sound anytime bounds, cross-process block
caching, and honest strategy/kind stamping."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import api
from repro.core import (
    Certificate,
    ComputationDag,
    ProfileCache,
    certify,
    max_eligibility_profile,
    schedule_dag,
    set_global_profile_cache,
)
from repro.exceptions import OptimalityError
from repro.families import butterfly_net, diamond, dlt, mesh, paths, prefix, trees
from repro.families.matmul_dag import matmul_chain
from repro.obs import MetricsRegistry, set_global_registry


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def store():
    """A fresh in-memory certificate store installed as the global."""
    store = ProfileCache()
    old = set_global_profile_cache(store)
    yield store
    set_global_profile_cache(old)


# every recognized family, sized so the exhaustive reference stays fast
RECOGNIZED_DAGS = [
    ("out-mesh", lambda: mesh.out_mesh_dag(5)),
    ("in-mesh", lambda: mesh.in_mesh_dag(4)),
    ("out-tree", lambda: trees.complete_out_tree(3).dag),
    ("in-tree", lambda: trees.complete_in_tree(3).dag),
    ("butterfly", lambda: butterfly_net.butterfly_dag(2)),
    ("prefix", lambda: prefix.prefix_dag(4)),
    ("diamond", lambda: diamond.complete_diamond(2).dag),
]

CARRIED_CHAINS = [
    ("dlt", lambda: dlt.dlt_prefix_chain(4)),
    ("paths", lambda: paths.graph_paths_chain(2)),
    ("matmul", matmul_chain),
    ("mesh-chain", lambda: mesh.out_mesh_chain(4)),
]


class TestComposedMatchesExhaustive:
    @pytest.mark.parametrize(
        "name,build", RECOGNIZED_DAGS, ids=[n for n, _ in RECOGNIZED_DAGS]
    )
    def test_recognized_family_profile_identical(self, name, build):
        dag = build()
        composed = certify(dag, strategy="compositional")
        assert composed.certificate in (
            Certificate.COMPOSITION, Certificate.SEGMENTED,
        )
        assert composed.ic_optimal
        assert composed.bounds == (0, 0)
        assert composed.kind == "composed"
        assert composed.provenance
        ceiling = max_eligibility_profile(dag)
        assert list(composed.schedule.profile) == list(ceiling)

    @pytest.mark.parametrize(
        "name,build", CARRIED_CHAINS, ids=[n for n, _ in CARRIED_CHAINS]
    )
    def test_chain_profile_identical(self, name, build):
        chain = build()
        composed = certify(chain, strategy="compositional")
        assert composed.ic_optimal
        assert composed.bounds == (0, 0)
        ceiling = max_eligibility_profile(chain.dag)
        assert list(composed.schedule.profile) == list(ceiling)

    def test_component_sum_composes(self):
        # two disjoint out-trees certify as a ⇑-sum of components
        g = ComputationDag(
            arcs=[("a", "b"), ("a", "c"), ("d", "e"), ("d", "f")],
            name="two-trees",
        )
        res = certify(g)
        assert res.certificate is Certificate.COMPOSITION
        assert res.ic_optimal
        assert [p.block for p in res.provenance] == [
            "two-trees/c0", "two-trees/c1",
        ]
        assert list(res.schedule.profile) == \
            list(max_eligibility_profile(g))

    def test_component_sum_rejected_when_no_priority_chain(self):
        # the 7-node no-IC-optimal example *is* a component sum
        # (P2 + K2,3) whose components fail ▷ both ways: the split
        # must fall through to the monolithic search, which proves
        # NONE_EXISTS with the exact loss
        g = ComputationDag(
            arcs=[("a", "w")]
            + [(s, t) for s in ("b", "c") for t in ("x", "y", "z")]
        )
        res = certify(g)
        assert res.certificate is Certificate.NONE_EXISTS
        assert not res.ic_optimal
        assert res.bounds is not None
        lo, hi = res.bounds
        assert lo == hi > 0


class TestAnytimeBounds:
    @pytest.mark.parametrize("budget", [1, 3, 10, 50, 10_000])
    def test_bounds_bracket_true_loss(self, budget):
        dag = mesh.out_mesh_dag(5)
        res = certify(dag, strategy="anytime", budget=budget)
        assert res.certificate is Certificate.ANYTIME
        ceiling = max_eligibility_profile(dag)
        true_loss = max(
            m - e for e, m in zip(res.schedule.profile, ceiling)
        )
        lo, hi = res.bounds
        assert 0 <= lo <= true_loss <= hi

    def test_large_budget_collapses_to_exact(self):
        dag = mesh.out_mesh_dag(4)
        res = certify(dag, strategy="anytime", budget=1_000_000)
        lo, hi = res.bounds
        assert lo == hi
        ceiling = max_eligibility_profile(dag)
        true_loss = max(
            m - e for e, m in zip(res.schedule.profile, ceiling)
        )
        assert lo == true_loss
        # the greedy schedule of a mesh is IC-optimal, so a collapsed
        # (0, 0) interval upgrades the anytime result to certified
        assert res.ic_optimal == (true_loss == 0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            certify(mesh.out_mesh_dag(3), strategy="anytime", budget=0)


class TestStrategies:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            certify(mesh.out_mesh_dag(3), strategy="quantum")

    def test_compositional_raises_on_undecomposable(self):
        # N-shaped-ish connected dag that escapes recognition
        g = ComputationDag(
            arcs=[("a", "x"), ("a", "y"), ("b", "y"), ("b", "z"),
                  ("c", "z")],
            name="zigzag",
        )
        with pytest.raises(OptimalityError, match="does not decompose"):
            certify(g, strategy="compositional")

    def test_exhaustive_ignores_limit(self):
        dag = mesh.out_mesh_dag(4)
        res = certify(dag, strategy="exhaustive", exhaustive_limit=0)
        assert res.certificate is Certificate.EXHAUSTIVE

    def test_heuristic_is_stamped(self):
        res = certify(mesh.out_mesh_dag(4), strategy="heuristic")
        assert res.certificate is Certificate.HEURISTIC
        assert res.kind == "heuristic"
        assert res.bounds is None
        assert not res.ic_optimal

    def test_auto_prefers_composition(self):
        res = certify(mesh.out_mesh_dag(5))
        assert res.certificate is Certificate.COMPOSITION
        assert res.strategy == "auto"

    def test_auto_with_budget_degrades_to_anytime(self):
        # unrecognized, over the exhaustive limit, budget given
        g = ComputationDag(
            arcs=[("a", "x"), ("a", "y"), ("b", "y"), ("b", "z"),
                  ("c", "z")],
            name="zigzag",
        )
        res = certify(g, exhaustive_limit=0, budget=4)
        assert res.certificate is Certificate.ANYTIME
        assert res.bounds is not None

    def test_strategy_metric_stamped(self, registry):
        certify(mesh.out_mesh_dag(4), strategy="heuristic")
        certify(mesh.out_mesh_dag(4))
        assert registry.value(
            "search_strategy_total",
            strategy="heuristic", certificate="heuristic") == 1
        assert registry.value(
            "search_strategy_total",
            strategy="auto", certificate="composition") == 1

    def test_schedule_dag_forwards_strategy(self):
        res = schedule_dag(mesh.out_mesh_dag(4), strategy="heuristic")
        assert res.certificate is Certificate.HEURISTIC
        assert res.kind == "heuristic"


class TestAutoAfterBlockOverBudget:
    """A block whose lattice search passes ``state_budget`` inside
    decomposition means "did not decompose" under ``auto``: the ladder
    (exhaustive residual, anytime under a ``budget``, heuristic) still
    runs.  ``store`` keeps cached blocks from short-cutting the
    search."""

    def test_anytime_bounds_bracket_true_loss(self, store):
        dag = mesh.out_mesh_dag(6)
        res = api.schedule(dag, state_budget=20, budget=1000, cache=False)
        assert res.certificate == "anytime"
        ceiling = max_eligibility_profile(dag)
        true_loss = max(m - e for e, m in zip(res.profile, ceiling))
        lo, hi = res.bounds
        assert 0 <= lo <= true_loss <= hi

    def test_without_budget_heuristic(self, store):
        res = api.schedule(mesh.out_mesh_dag(6), state_budget=20,
                           cache=False)
        assert res.certificate == "heuristic"
        assert res.bounds is None

    def test_compositional_still_raises(self, store):
        with pytest.raises(OptimalityError, match="state budget"):
            api.schedule(mesh.out_mesh_dag(6), strategy="compositional",
                         state_budget=20, cache=False)


class TestBlockLibrary:
    def test_repeat_certification_hits(self, store):
        certify(mesh.out_mesh_chain(4))
        misses = store.misses
        assert misses > 0
        certify(mesh.out_mesh_chain(4))
        assert store.misses == misses  # no new searches
        assert store.hits > 0

    def test_lookup_metrics(self, registry, store):
        certify(mesh.out_mesh_chain(3))
        certify(mesh.out_mesh_chain(3))
        assert registry.value(
            "certify_block_cache_lookups_total", result="miss") > 0
        assert registry.value(
            "certify_block_cache_lookups_total", result="hit") > 0
        assert registry.value("profile_cache_size") == len(store)

    def test_attached_schedule_is_verified_not_trusted(self, store):
        # a chain carrying a *wrong* block schedule must still produce
        # a correct certificate (the claim is checked, then discarded)
        chain = mesh.out_mesh_chain(4)
        ceiling = max_eligibility_profile(chain.dag)
        res = certify(chain)
        assert list(res.schedule.profile) == list(ceiling)

    def test_corrupt_file_degrades_to_search(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text("{definitely not json")
        lib = ProfileCache(path=path)
        assert len(lib) == 0
        res = certify(mesh.out_mesh_chain(3), cache=lib)
        assert res.ic_optimal
        # the file is healed by write-through
        data = json.loads(path.read_text())
        assert data["version"] == 2
        assert {e["kind"] for e in data["entries"]} == {"block"}

    def test_tampered_entry_revalidated(self, tmp_path):
        path = tmp_path / "lib.json"
        lib = ProfileCache(path=path)
        res = certify(mesh.out_mesh_chain(3), cache=lib)
        assert res.ic_optimal
        data = json.loads(path.read_text())
        # corrupt every stored order: replay must fail, a fresh search
        # must take over, and the certificate must stay correct
        for entry in data["entries"]:
            if entry["order"]:
                entry["order"] = list(reversed(entry["order"]))
        path.write_text(json.dumps(data))
        lib2 = ProfileCache(path=path)
        res2 = certify(mesh.out_mesh_chain(3), cache=lib2)
        assert res2.ic_optimal
        assert list(res2.schedule.profile) == \
            list(res.schedule.profile)

    def test_lru_bound(self):
        lib = ProfileCache(maxsize=2)
        certify(mesh.out_mesh_chain(4), cache=lib)
        assert len(lib) <= 2

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            ProfileCache(maxsize=0)

    def test_cross_process_determinism(self, tmp_path):
        """A path-backed store makes block certification deterministic
        across processes: the second process re-certifies entirely
        from store hits and reproduces the same schedule order."""
        path = tmp_path / "lib.json"
        script = textwrap.dedent("""
            import json, sys
            from repro.core import ProfileCache, certify
            from repro.families import mesh

            lib = ProfileCache(path=sys.argv[1])
            res = certify(mesh.out_mesh_chain(4), cache=lib)
            print(json.dumps({
                "order": [repr(v) for v in res.schedule.order],
                "profile": list(res.schedule.profile),
                "certificate": res.certificate.value,
                "hits": lib.hits,
                "misses": lib.misses,
            }))
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                capture_output=True, text=True, env=env, check=True,
            )
            runs.append(json.loads(out.stdout))
        first, second = runs
        assert first["misses"] > 0
        assert second["misses"] == 0  # everything from the store
        assert second["hits"] >= first["misses"]
        assert second["order"] == first["order"]
        assert second["profile"] == first["profile"]
        assert second["certificate"] == first["certificate"]


class TestFacadeProvenance:
    def test_provenance_surfaces_through_api(self):
        from repro import api

        res = api.schedule(mesh.out_mesh_chain(4))
        assert res.kind == "composed"
        assert res.bounds == (0, 0)
        assert res.provenance
        for block_name, fingerprint, source in res.provenance:
            assert isinstance(block_name, str)
            assert len(fingerprint) == 64
            assert source in (
                "attached-verified", "cache-hit", "searched", "composed",
            )
