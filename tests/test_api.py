"""Tests for the stable ``repro.api`` v1 facade and the deprecation
shim over the legacy entry points (see docs/API_MIGRATION.md):

* every verb returns a frozen, picklable result dataclass with
  JSON-native headline fields;
* the ``simulate`` regimes agree with the direct library calls they
  wrap, number for number;
* the shim (positional tuning args of ``core.schedule_dag``) warns
  exactly once per call and delegates with identical behavior.
"""

import dataclasses
import pickle
import warnings

import pytest

from repro import api
from repro.blocks import block
from repro.core import hu_batches, schedule_dag
from repro.families.mesh import out_mesh_chain, out_mesh_dag
from repro.families.prefix import prefix_chain


class TestFacadeVerbs:
    def test_schedule_chain_certified(self):
        res = api.schedule(out_mesh_chain(5))
        assert res.certificate == "composition"
        assert res.ic_optimal
        assert res.fingerprint == out_mesh_chain(5).dag.fingerprint()
        assert isinstance(res.profile, tuple)
        assert max(res.profile) == max(res.schedule.profile)

    def test_schedule_keyword_only_options(self):
        with pytest.raises(TypeError):
            api.schedule(out_mesh_dag(3), 8)  # options must be keywords

    def test_schedule_composes_even_when_limit_zero(self):
        # exhaustive_limit=0 bars the lattice search, but recognition
        # still composes recognized families (docs/CERTIFICATION.md)
        res = api.schedule(out_mesh_dag(3), exhaustive_limit=0)
        assert res.certificate == "composition"
        assert res.kind == "composed"
        assert res.ic_optimal

    def test_schedule_heuristic_strategy(self):
        res = api.schedule(out_mesh_dag(3), strategy="heuristic")
        assert res.certificate == "heuristic"
        assert res.kind == "heuristic"
        assert res.bounds is None
        assert not res.ic_optimal

    def test_verify_measures_ceiling(self):
        res = api.verify(prefix_chain(4))
        assert res.ic_optimal
        assert res.ratio == pytest.approx(1.0)
        assert res.deficit == 0

    def test_simulate_default_regime_matches_legacy(self):
        """The default regime is certify-then-simulate under IC-OPT."""
        from repro.sim import make_policy, simulate

        dag = out_mesh_dag(4)
        res = api.simulate(dag, clients=3, seed=7)
        scheduling = schedule_dag(dag)
        direct = simulate(dag, make_policy("IC-OPT", scheduling.schedule),
                          clients=3, seed=7)
        assert res.makespan == direct.makespan
        assert res.utilization == direct.utilization
        assert res.certificate == scheduling.certificate.value

    def test_simulate_batched_regime_matches_legacy(self):
        """``batches=`` runs the barrier-per-round batched regimen."""
        from repro.sim.server import _simulate_batched_impl

        dag = out_mesh_dag(4)
        bs = hu_batches(dag, 3)
        res = api.simulate(dag, batches=bs, clients=3, seed=1)
        direct = _simulate_batched_impl(dag, bs, clients=3, seed=1)
        assert res.makespan == direct.makespan
        assert res.policy == direct.policy
        assert res.certificate is None

    def test_simulate_named_policy(self):
        res = api.simulate(out_mesh_dag(4), policy="FIFO", clients=2)
        assert res.policy == "FIFO"
        assert res.certificate is None
        assert res.completed == len(out_mesh_dag(4))

    def test_simulate_explicit_schedule(self):
        sched = api.schedule(out_mesh_chain(4)).schedule
        res = api.simulate(out_mesh_dag(4), schedule_order=sched,
                           clients=2)
        assert res.completed == len(out_mesh_dag(4))
        assert res.schedule is sched

    def test_compare_includes_ic_opt(self):
        res = api.compare(out_mesh_chain(4), clients=3, seed=0)
        assert "IC-OPT" in res.policies
        assert res.certificate == "composition"
        assert res.best_policy
        assert len(res.rows) == len(res.policies)

    def test_batch_rows_and_bound(self):
        res = api.batch(out_mesh_chain(4), capacity=3)
        names = [r[0] for r in res.rows]
        assert names == ["levels", "hu", "coffman-graham"]
        assert all(r[1] >= res.lower_bound for r in res.rows[1:])

    def test_priority_both_directions(self):
        n4, _ = block("N", 4)
        lam, _ = block("L")
        res = api.priority(n4, lam)
        assert res.forward is True
        assert res.backward is False

    def test_coarsen_accounts_cut_arcs(self):
        dag = out_mesh_dag(3)
        # two clusters: split by node insertion order
        nodes = list(dag.nodes)
        half = len(nodes) // 2
        cmap = {v: (0 if i < half else 1)
                for i, v in enumerate(nodes)}
        res = api.coarsen(dag, cmap)
        assert res.tasks == 2
        assert res.cut_arcs + res.internal_arcs == len(list(dag.arcs))
        assert 0.0 <= res.communication_fraction <= 1.0


class TestResultContracts:
    """The v1 stability contract: frozen, picklable, flat headline."""

    def _all_results(self):
        chain = out_mesh_chain(4)
        dag = out_mesh_dag(3)
        nodes = list(dag.nodes)
        half = len(nodes) // 2
        cmap = {v: (0 if i < half else 1)
                for i, v in enumerate(nodes)}
        n4, _ = block("N", 4)
        lam, _ = block("L")
        return [
            api.schedule(chain),
            api.verify(chain),
            api.simulate(dag, clients=2),
            api.compare(chain, clients=2),
            api.coarsen(dag, cmap),
            api.batch(chain, capacity=2),
            api.priority(n4, lam),
        ]

    def test_results_frozen(self):
        for res in self._all_results():
            assert dataclasses.is_dataclass(res)
            with pytest.raises(dataclasses.FrozenInstanceError):
                res.fingerprint = "x"  # type: ignore[misc]

    def test_results_picklable(self):
        for res in self._all_results():
            clone = pickle.loads(pickle.dumps(res))
            assert type(clone) is type(res)

    def test_lazy_package_export(self):
        import repro

        assert repro.api is api
        assert "api" in repro.__all__

    def test_sim_input_types_reexported(self):
        assert api.ClientSpec(speed=2.0).speed == 2.0
        assert api.ServerPolicy is not None
        assert api.FaultPlan is not None


class TestDeprecationShims:
    def test_schedule_dag_positional_warns_and_maps(self):
        dag = out_mesh_dag(3)
        with pytest.warns(DeprecationWarning) as rec:
            legacy = schedule_dag(dag, 24, 500_000)
        assert len(rec) == 1
        modern = schedule_dag(dag, exhaustive_limit=24,
                              state_budget=500_000)
        assert legacy.certificate is modern.certificate
        assert legacy.schedule.order == modern.schedule.order

    def test_schedule_dag_positional_limit_respected(self):
        # the mapped positional argument must actually take effect:
        # limit 0 bars the exhaustive search, so an *unrecognized* dag
        # degrades to the heuristic
        from repro.blocks import block

        dag, _ = block("N", 8)
        with pytest.warns(DeprecationWarning):
            res = schedule_dag(dag, 0)
        assert res.certificate.value == "heuristic"

    def test_schedule_dag_too_many_positionals(self):
        with pytest.warns(DeprecationWarning), \
                pytest.raises(TypeError):
            schedule_dag(out_mesh_dag(3), 24, 500_000, True)

    def test_schedule_dag_keyword_form_warns_never(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedule_dag(out_mesh_dag(3), exhaustive_limit=8)

    def test_facade_paths_warn_never(self):
        dag = out_mesh_dag(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api.schedule(dag)
            api.simulate(dag, clients=2)
            api.simulate(dag, batches=hu_batches(dag, 2), clients=2)
