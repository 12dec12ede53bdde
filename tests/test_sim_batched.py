"""Tests for the batched-regimen simulation ([20]), run through
``repro.api.simulate(..., batches=...)``."""

import pytest

from repro import api
from repro.core import hu_batches, level_batches, schedule_dag
from repro.exceptions import SimulationError
from repro.families.mesh import out_mesh_chain, out_mesh_dag
from repro.sim import ClientSpec, make_policy, simulate


def run_batched(dag, batches, clients=4, **kwargs):
    """The batched regimen; returns the full ``SimulationResult``."""
    return api.simulate(dag, batches=batches, clients=clients,
                        **kwargs).result


class TestBatchedSimulation:
    def test_completes(self):
        dag = out_mesh_dag(5)
        res = run_batched(dag, hu_batches(dag, 3), clients=3)
        assert res.completed == len(dag)
        assert res.policy.startswith("BATCHED")

    def test_round_count_drives_makespan_for_unit_clients(self):
        dag = out_mesh_dag(4)
        bs = level_batches(dag)
        # one unit-speed client per widest level: each round costs
        # ceil(batch / clients) time units
        res = run_batched(dag, bs, clients=5)
        expected = sum(-(-len(b) // 5) for b in bs.batches)
        assert res.makespan == pytest.approx(expected)

    def test_barrier_penalty_vs_event_driven(self):
        """Batched rounds idle fast clients at the barrier: with
        heterogeneous speeds, the event-driven server is never slower
        on the same dag (the trade-off the batched framework accepts
        for operational simplicity)."""
        dag = out_mesh_dag(10)
        clients = [ClientSpec(speed=s) for s in (1, 1, 2, 4)]
        batched = run_batched(dag, hu_batches(dag, 4), clients, seed=0)
        sched = schedule_dag(out_mesh_chain(10)).schedule
        event = simulate(
            dag, make_policy("IC-OPT", sched), clients, seed=0
        )
        assert event.makespan <= batched.makespan

    def test_speeds_help(self):
        dag = out_mesh_dag(6)
        bs = hu_batches(dag, 2)
        slow = run_batched(dag, bs, [ClientSpec(speed=1)] * 2)
        fast = run_batched(dag, bs, [ClientSpec(speed=2)] * 2)
        assert fast.makespan == pytest.approx(slow.makespan / 2)

    def test_dropout_sampled(self):
        dag = out_mesh_dag(4)
        bs = level_batches(dag)
        clean = run_batched(dag, bs, 2, seed=1)
        flaky = run_batched(
            dag, bs, [ClientSpec(dropout=0.999, slowdown=2.0)] * 2, seed=1
        )
        assert flaky.makespan > clean.makespan

    def test_utilization_bounds(self):
        dag = out_mesh_dag(5)
        res = run_batched(dag, hu_batches(dag, 4), clients=4)
        assert 0.0 < res.utilization <= 1.0

    def test_no_clients_rejected(self):
        dag = out_mesh_dag(3)
        with pytest.raises(SimulationError):
            run_batched(dag, level_batches(dag), clients=[])

    def test_headroom_series_tracks_batches(self):
        dag = out_mesh_dag(3)
        bs = level_batches(dag)
        res = run_batched(dag, bs, clients=4)
        assert len(res.headroom_series) == bs.rounds + 1
