"""The pluggable machine-model layer (``repro.sim.machines``) and the
unified spec grammar (``repro.api.specs``): MachineSpec parsing /
validation / round-trip ``str()`` forms, byte-identity of the default
ideal path, BSP superstep accounting, memory-cap placement gating and
forced spills, heterogeneous-duration determinism, composition of
fault plans with every machine, the DAGPS-inspired packing policies,
per-policy seeds in comparison rows, and the facade/service plumbing
of the ``machine=`` option.
"""

import dataclasses
import json
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.api import MachineSpec, dag_to_dict, parse_machine
from repro.api.specs import (
    fault_plan_str,
    parse_fault_plan,
    parse_server_policy,
    server_policy_str,
)
from repro.core import ComputationDag, schedule_dag
from repro.exceptions import MachineSpecError, SimulationError
from repro.families.butterfly_net import butterfly_dag
from repro.families.mesh import out_mesh_dag
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_global_registry,
    set_global_tracer,
)
from repro.sim import (
    BASELINE_POLICIES,
    FaultPlan,
    ServerPolicy,
    build_machine,
    compare_policies,
    make_policy,
    resolve_machine,
    simulate,
)
from repro.sim.machines import (
    BspMachine,
    HeteroMachine,
    IdealMachine,
    MemcapMachine,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture(autouse=True)
def _quiet_tracer():
    old = set_global_tracer(Tracer())
    yield
    set_global_tracer(old)


def chain_dag(n=8):
    return ComputationDag(arcs=[(i, i + 1) for i in range(n - 1)])


def ic_policy(dag):
    return make_policy("IC-OPT", schedule_dag(dag).schedule)


# ----------------------------------------------------------------------
# MachineSpec grammar
# ----------------------------------------------------------------------


class TestMachineSpec:
    def test_parse_bare_kind(self):
        assert MachineSpec.parse("ideal") == MachineSpec()
        assert MachineSpec.parse("bsp").kind == "bsp"

    def test_parse_with_params(self):
        s = MachineSpec.parse("bsp:g=1.5,L=2")
        assert s.get("g") == 1.5
        assert s.get("L") == 2.0

    def test_defaults_fill_missing_keys(self):
        s = MachineSpec.parse("memcap:cap=5")
        assert s.get("cap") == 5.0
        assert s.get("spill") == 2.0  # schema default

    @pytest.mark.parametrize("spec", [
        "ideal", "bsp", "bsp:g=1,L=2", "memcap:cap=2",
        "memcap:cap=4,spill=1.5", "hetero:seed=7,spread=0.3",
    ])
    def test_str_round_trip(self, spec):
        s = MachineSpec.parse(spec)
        assert MachineSpec.parse(str(s)) == s

    def test_str_is_canonical(self):
        # params sort and integral floats render bare
        assert str(MachineSpec.parse("bsp:L=2.0,g=1")) == "bsp:L=2,g=1"
        assert str(MachineSpec.parse("ideal")) == "ideal"

    def test_parse_machine_alias(self):
        assert parse_machine("hetero:seed=3") == \
            MachineSpec.parse("hetero:seed=3")

    @pytest.mark.parametrize("bad,msg", [
        ("", "empty machine spec"),
        ("warp", "unknown machine kind"),
        ("bsp:q=1", "unknown key"),
        ("bsp:g", "expected key=value"),
        ("bsp:g=fast", "bad machine key"),
        ("bsp:g=1,g=2", "duplicate key"),
        ("ideal:g=1", "unknown key"),
        ("bsp:g=-1", "must be >= 0"),
        ("memcap:cap=0", "cap must be >= 1"),
        ("memcap:spill=0", "spill cost must be > 0"),
        ("hetero:spread=1.5", "spread must be in"),
        ("hetero:seed=0.5", "seed must be an integer"),
    ])
    def test_rejects_malformed(self, bad, msg):
        with pytest.raises(MachineSpecError, match=msg):
            MachineSpec.parse(bad)

    def test_spec_errors_are_simulation_errors(self):
        # one except clause catches fault, policy, and machine specs
        assert issubclass(MachineSpecError, SimulationError)

    def test_hashable_and_frozen(self):
        s = MachineSpec.parse("bsp:g=1")
        assert s in {s}
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.kind = "ideal"

    def test_build_constructs_fresh_models(self):
        s = MachineSpec.parse("memcap:cap=2")
        a, b = s.build(), s.build()
        assert isinstance(a, MemcapMachine)
        assert a is not b

    def test_resolve_machine_forms(self):
        assert resolve_machine(None) is None
        assert resolve_machine("ideal") is None
        assert resolve_machine(MachineSpec()) is None
        assert isinstance(resolve_machine("bsp"), BspMachine)
        assert isinstance(
            resolve_machine(MachineSpec.parse("hetero")), HeteroMachine
        )
        model = BspMachine()
        assert resolve_machine(model) is model
        # a ready ideal model short-circuits to the unmodeled path too
        assert resolve_machine(IdealMachine()) is None

    def test_build_machine_kinds(self):
        for spec, cls in [
            ("ideal", IdealMachine), ("bsp", BspMachine),
            ("memcap", MemcapMachine), ("hetero", HeteroMachine),
        ]:
            assert isinstance(
                build_machine(MachineSpec.parse(spec)), cls
            )


# ----------------------------------------------------------------------
# unified grammar: fault-plan / server-policy round trips + shims
# ----------------------------------------------------------------------


class TestUnifiedSpecs:
    def test_fault_plan_round_trip(self):
        plan = parse_fault_plan(
            "crash:0@2,stall:1@1.5x4,join@5x2,corrupt=0.1,seed=7"
        )
        back = parse_fault_plan(fault_plan_str(plan))
        assert back.events == plan.events
        assert back.corrupt_rate == plan.corrupt_rate
        assert back.seed == plan.seed

    def test_fault_plan_str_on_class(self):
        plan = FaultPlan.parse("crash:0@2,seed=3")
        assert FaultPlan.parse(str(plan)).events == plan.events

    def test_scenario_round_trips_through_events(self):
        plan = FaultPlan.parse("churn:seed=5", n_clients=4)
        back = FaultPlan.parse(str(plan), n_clients=4)
        assert back.events == plan.events
        assert back.seed == plan.seed
        assert back.name == "custom"  # label normalizes; behavior kept

    def test_server_policy_round_trip(self):
        pol = parse_server_policy("timeout=4,retries=3,speculate=off")
        assert parse_server_policy(server_policy_str(pol)) == pol
        assert ServerPolicy.parse(str(pol)) == pol

    def test_default_server_policy_round_trip(self):
        pol = ServerPolicy()
        assert ServerPolicy.parse(str(pol)) == pol

    def test_parse_errors_keep_uniform_messages(self):
        from repro.exceptions import FaultPlanError, ServerPolicyError

        with pytest.raises(FaultPlanError, match="bad crash time"):
            FaultPlan.parse("crash:0@soon")
        with pytest.raises(ServerPolicyError, match="known keys"):
            ServerPolicy.parse("warp=9")
        with pytest.raises(MachineSpecError, match="bad machine key"):
            MachineSpec.parse("bsp:g=soon")


# ----------------------------------------------------------------------
# ideal path byte-identity
# ----------------------------------------------------------------------


class TestIdealIdentity:
    def test_machine_ideal_is_byte_identical(self):
        dag = butterfly_dag(3)
        pol = schedule_dag(dag).schedule
        base = simulate(dag, make_policy("IC-OPT", pol), 4, seed=2)
        for machine in (None, "ideal", MachineSpec()):
            again = simulate(
                dag, make_policy("IC-OPT", pol), 4, seed=2,
                machine=machine,
            )
            assert again == base
            assert again.machine_report is None

    def test_ideal_identity_under_faults(self):
        dag = butterfly_dag(3)
        plan = FaultPlan.parse("blackout", n_clients=4)
        base = simulate(dag, ic_policy(dag), 4, fault_plan=plan)
        again = simulate(
            dag, ic_policy(dag), 4, fault_plan=plan, machine="ideal"
        )
        assert again == base


# ----------------------------------------------------------------------
# the BSP machine
# ----------------------------------------------------------------------


class TestBsp:
    def test_barriers_slow_the_run_down(self):
        dag = butterfly_dag(3)
        free = simulate(dag, ic_policy(dag), 4)
        bsp = simulate(dag, ic_policy(dag), 4, machine="bsp:g=1,L=2")
        assert bsp.makespan > free.makespan
        rep = bsp.machine_report
        assert rep.kind == "bsp"
        # d+1 levels -> d closed non-sink levels pay a barrier
        assert rep.supersteps == 3
        assert rep.barrier_cost > 0
        assert rep.comm_volume > 0

    def test_zero_cost_bsp_still_barriers(self):
        # g=L=0 removes the charge but keeps the level lockstep, so
        # completion is unaffected and the run stays deterministic
        dag = butterfly_dag(3)
        res = simulate(dag, ic_policy(dag), 4, machine="bsp:g=0,L=0")
        assert res.completed == len(dag)
        assert res.machine_report.barrier_cost == 0.0

    def test_deterministic(self):
        dag = out_mesh_dag(5)
        runs = [
            simulate(dag, ic_policy(dag), 4, machine="bsp:g=1")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_chain_has_one_task_per_superstep(self):
        dag = chain_dag(6)
        res = simulate(dag, make_policy("FIFO"), 3, machine="bsp:L=1")
        assert res.completed == 6
        assert res.machine_report.supersteps == 5


# ----------------------------------------------------------------------
# the memory-cap machine
# ----------------------------------------------------------------------


class TestMemcap:
    def test_cap_gates_placement_but_run_completes(self):
        dag = butterfly_dag(3)
        res = simulate(dag, ic_policy(dag), 4, machine="memcap:cap=2")
        rep = res.machine_report
        assert res.completed == len(dag)
        assert rep.placement_stalls > 0
        assert rep.peak_memory <= 2

    def test_tight_cap_forces_spills(self):
        dag = butterfly_dag(3)
        res = simulate(
            dag, ic_policy(dag), 4, machine="memcap:cap=2,spill=1"
        )
        rep = res.machine_report
        assert rep.spills > 0
        assert rep.spill_time == pytest.approx(rep.spills * 1.0)

    def test_loose_cap_behaves_like_ideal_physics(self):
        dag = out_mesh_dag(4)
        free = simulate(dag, ic_policy(dag), 4)
        roomy = simulate(
            dag, ic_policy(dag), 4, machine="memcap:cap=100"
        )
        assert roomy.makespan == pytest.approx(free.makespan)
        assert roomy.machine_report.spills == 0

    def test_deterministic(self):
        dag = butterfly_dag(3)
        a = simulate(dag, ic_policy(dag), 4, machine="memcap:cap=2")
        b = simulate(dag, ic_policy(dag), 4, machine="memcap:cap=2")
        assert a == b


# ----------------------------------------------------------------------
# the heterogeneous-duration machine
# ----------------------------------------------------------------------


class TestHetero:
    def test_durations_spread_but_complete(self):
        dag = butterfly_dag(3)
        res = simulate(
            dag, ic_policy(dag), 4, machine="hetero:spread=0.4,seed=3"
        )
        rep = res.machine_report
        assert res.completed == len(dag)
        assert rep.duration_min_factor < rep.duration_max_factor

    def test_seed_stable_and_seed_sensitive(self):
        dag = butterfly_dag(3)
        a = simulate(dag, ic_policy(dag), 4, machine="hetero:seed=3")
        b = simulate(dag, ic_policy(dag), 4, machine="hetero:seed=3")
        c = simulate(dag, ic_policy(dag), 4, machine="hetero:seed=4")
        assert a == b
        assert a.makespan != c.makespan

    def test_factors_do_not_depend_on_policy(self):
        # the slowdown of a given task is a pure function of
        # (seed, task), so every policy races on the same terrain
        dag = butterfly_dag(3)
        spec = MachineSpec.parse("hetero:spread=0.5,seed=9")
        reports = [
            simulate(dag, make_policy(name), 4,
                     machine=spec).machine_report
            for name in ("FIFO", "LIFO", "CRITPATH")
        ]
        assert len({
            (r.duration_min_factor, r.duration_max_factor)
            for r in reports
        }) == 1

    def test_zero_spread_keeps_kind_scales_only(self):
        # alpha-prefixed names share one kind ("t"), so spread=0
        # collapses every factor to that kind's common scale
        dag = ComputationDag(
            arcs=[(f"t{i}", f"t{i+1}") for i in range(4)]
        )
        res = simulate(
            dag, make_policy("FIFO"), 2, machine="hetero:spread=0"
        )
        rep = res.machine_report
        assert rep.duration_min_factor == \
            pytest.approx(rep.duration_max_factor)


# ----------------------------------------------------------------------
# machines x fault plans (satellite: chaos composes with any machine)
# ----------------------------------------------------------------------


class TestMachineFaultComposition:
    @pytest.mark.parametrize("machine", ["bsp:g=1", "memcap:cap=2"])
    def test_blackout_is_seed_stable_on_machines(self, machine):
        dag = butterfly_dag(3)
        plan = FaultPlan.parse("blackout", n_clients=4)
        runs = [
            simulate(
                dag, ic_policy(dag), 4, fault_plan=plan,
                machine=machine,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        rep = runs[0].fault_report
        assert rep is not None
        assert runs[0].completed == len(dag)
        assert runs[0].machine_report.kind == machine.split(":")[0]

    def test_crash_releases_memcap_memory(self):
        dag = butterfly_dag(3)
        plan = FaultPlan.parse("crash:0@1,crash:1@1.5")
        res = simulate(
            dag, ic_policy(dag), 4, fault_plan=plan,
            machine="memcap:cap=2",
        )
        assert res.completed == len(dag)

    def test_hetero_with_stragglers_scenario(self):
        dag = butterfly_dag(3)
        plan = FaultPlan.parse("stragglers", n_clients=4)
        a = simulate(dag, ic_policy(dag), 4, fault_plan=plan,
                     machine="hetero:seed=1")
        b = simulate(dag, ic_policy(dag), 4, fault_plan=plan,
                     machine="hetero:seed=1")
        assert a == b
        assert a.fault_report == b.fault_report


# ----------------------------------------------------------------------
# DAGPS-inspired policies
# ----------------------------------------------------------------------


class TestPackingPolicies:
    def test_registered_as_baselines(self):
        assert "PACKING" in BASELINE_POLICIES
        assert "TROUBLESOME" in BASELINE_POLICIES

    def test_make_policy_aliases_and_case(self):
        assert make_policy("packing").name == "PACKING"
        assert make_policy("Troublesome-First").name == "TROUBLESOME"
        assert make_policy("packing-first").name == "PACKING"
        assert make_policy("fifo").name == "FIFO"

    def test_unknown_policy_still_rejected(self):
        with pytest.raises(SimulationError, match="unknown policy"):
            make_policy("GREEDIEST")

    def test_troublesome_prefers_gating_tasks(self):
        # two eligible roots: one gates a long chain, one is a leaf
        dag = ComputationDag(
            arcs=[(0, 2), (2, 3), (3, 4)], nodes=[0, 1, 2, 3, 4]
        )
        pol = make_policy("TROUBLESOME")
        pol.attach(dag)
        assert pol.select([1, 0]) == 0

    def test_packing_prefers_heavy_footprint(self):
        dag = ComputationDag(arcs=[(0, 2), (0, 3), (1, 3)])
        pol = make_policy("PACKING")
        pol.attach(dag)
        assert pol.select([1, 0]) == 0  # degree 2 beats degree 1

    def test_run_on_machines(self):
        dag = butterfly_dag(3)
        for name in ("PACKING", "TROUBLESOME"):
            res = simulate(
                dag, make_policy(name), 4, machine="memcap:cap=2"
            )
            assert res.completed == len(dag)


# ----------------------------------------------------------------------
# comparisons: machine sweep + per-policy seeds
# ----------------------------------------------------------------------


class TestComparison:
    def test_rows_carry_seeds(self):
        dag = out_mesh_dag(4)
        sched = schedule_dag(dag).schedule
        cmp = compare_policies(dag, sched, clients=4, seed=11)
        assert cmp.seeds["IC-OPT"] == 11
        for row in cmp.table_rows():
            assert row[-1] == 11

    def test_machine_threads_through(self):
        dag = out_mesh_dag(4)
        sched = schedule_dag(dag).schedule
        cmp = compare_policies(
            dag, sched, clients=4, machine="bsp:g=1",
            policies=("FIFO", "PACKING"),
        )
        assert cmp.machine == "bsp:g=1"
        for res in cmp.results.values():
            assert res.machine_report.kind == "bsp"

    def test_default_is_ideal(self):
        dag = out_mesh_dag(4)
        cmp = compare_policies(dag, None, clients=4)
        assert cmp.machine == "ideal"


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------


class TestFacade:
    def test_machine_spec_reexported(self):
        assert api.MachineSpec is MachineSpec
        from repro.sim.machines import MachineReport

        assert api.MachineReport is MachineReport

    def test_simulate_carries_machine_fields(self):
        dag = out_mesh_dag(4)
        res = api.simulate(dag, machine="bsp:g=1")
        assert res.machine == "bsp:g=1"
        assert res.machine_report.kind == "bsp"
        ideal = api.simulate(dag)
        assert ideal.machine == "ideal"
        assert ideal.machine_report is None

    def test_simulate_accepts_spec_objects(self):
        dag = out_mesh_dag(4)
        res = api.simulate(
            dag, machine=MachineSpec.parse("memcap:cap=2")
        )
        assert res.machine == "memcap:cap=2"

    def test_batched_regimen_rejects_machines(self):
        from repro.core.batched import hu_batches

        dag = out_mesh_dag(4)
        batches = hu_batches(dag, 3)
        with pytest.raises(SimulationError, match="batched regimen"):
            api.simulate(dag, batches=batches, machine="bsp")
        # the ideal machine remains fine
        assert api.simulate(
            dag, batches=batches, machine="ideal"
        ).completed == len(dag)

    def test_compare_carries_machine(self):
        dag = out_mesh_dag(4)
        res = api.compare(
            dag, machine="hetero:seed=2",
            policies=("FIFO", "TROUBLESOME"),
        )
        assert res.machine == "hetero:seed=2"
        assert len(res.rows[0]) == 7  # seed column appended

    def test_bad_spec_raises_before_running(self):
        dag = out_mesh_dag(4)
        with pytest.raises(MachineSpecError):
            api.simulate(dag, machine="warp:speed=9")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMachineMetrics:
    def test_machine_runs_recorded(self, registry):
        dag = out_mesh_dag(4)
        simulate(dag, make_policy("FIFO"), 4, machine="bsp:g=1")
        text = registry.to_prometheus()
        assert 'sim_machine_runs_total{machine="bsp"}' in text
        assert "sim_machine_supersteps" in text

    def test_ideal_records_no_machine_metrics(self, registry):
        dag = out_mesh_dag(4)
        simulate(dag, make_policy("FIFO"), 4)
        assert "sim_machine_runs_total" not in registry.to_prometheus()


# ----------------------------------------------------------------------
# the HTTP service
# ----------------------------------------------------------------------


def _post(url, payload, timeout=30):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


class TestServiceMachineOption:
    @pytest.fixture
    def service(self, registry):
        from repro.service import PipelineConfig, SchedulingService

        svc = SchedulingService(
            pipeline_config=PipelineConfig(workers=2))
        with svc:
            yield svc

    def test_simulate_with_machine(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        st, body = _post(service.url + "/v1/simulate",
                         {"dag": wire, "machine": "bsp:g=1"})
        assert st == 200
        assert body["machine"] == "bsp:g=1"
        assert body["machine_report"]["kind"] == "bsp"
        assert body["machine_report"]["supersteps"] > 0

    def test_default_reports_ideal(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        st, body = _post(service.url + "/v1/simulate", {"dag": wire})
        assert st == 200
        assert body["machine"] == "ideal"
        assert body["machine_report"] is None

    def test_bad_machine_spec_is_fast_400(self, service):
        wire = dag_to_dict(out_mesh_dag(4))
        st, body = _post(service.url + "/v1/simulate",
                         {"dag": wire, "machine": "warp"})
        assert st == 400
        assert "invalid machine spec" in body["error"]
