"""Event-driven IC server/client simulation with heuristic baselines —
the assessment substrate standing in for the studies the paper cites
([15], [19]); see DESIGN.md "Substitutions"."""

from . import faults, heuristics, machines, metrics, scientific, server, workloads
from .scientific import SCIENTIFIC_WORKFLOWS
from .faults import (
    FAULT_SCENARIOS,
    FaultEvent,
    FaultPlan,
    FaultReport,
    ServerPolicy,
    simulate_with_faults,
)
from .heuristics import BASELINE_POLICIES, Policy, make_policy
from .machines import (
    BspMachine,
    HeteroMachine,
    IdealMachine,
    MachineModel,
    MachineReport,
    MemcapMachine,
    build_machine,
    resolve_machine,
)
from .metrics import (
    PolicyComparison,
    batch_satisfaction,
    compare_policies,
    granularity_tradeoff,
)
from .server import (
    ClientSpec,
    SimulationResult,
    TraceRecord,
    simulate,
)

__all__ = [
    "BASELINE_POLICIES",
    "BspMachine",
    "ClientSpec",
    "FAULT_SCENARIOS",
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "HeteroMachine",
    "IdealMachine",
    "MachineModel",
    "MachineReport",
    "MemcapMachine",
    "Policy",
    "PolicyComparison",
    "ServerPolicy",
    "SimulationResult",
    "TraceRecord",
    "batch_satisfaction",
    "build_machine",
    "compare_policies",
    "faults",
    "granularity_tradeoff",
    "heuristics",
    "machines",
    "make_policy",
    "metrics",
    "resolve_machine",
    "SCIENTIFIC_WORKFLOWS",
    "scientific",
    "server",
    "simulate",
    "simulate_with_faults",
    "workloads",
]
