"""Core IC-Scheduling Theory: dags, execution, schedules, optimality,
the priority relation ▷, composition ⇑, and duality (Section 2 of the
paper)."""

from .batched import (
    BatchSchedule,
    coffman_graham_batches,
    hu_batches,
    level_batches,
    min_rounds_lower_bound,
    optimal_batches,
)
from .composition import (
    BlockRecord,
    CompositionChain,
    compose,
    linear_composition_schedule,
    sum_dags,
)
from .certify import (
    STRATEGIES,
    BlockProvenance,
    certify,
)
from .dag import Arc, ComputationDag, Node
from .duality import dual_dag, dual_schedule
from .io import (
    dag_from_dict,
    dag_from_json,
    dag_to_dict,
    dag_to_json,
    schedule_from_dict,
    schedule_to_dict,
)
from .execution import ExecutionState, eligibility_profile, run_order
from .optimality import (
    SearchStats,
    all_ic_optimal_nonsink_orders,
    eligibility_upper_bound,
    find_ic_optimal_schedule,
    ic_optimal_exists,
    is_ic_optimal,
    max_eligibility_profile,
    partial_max_eligibility_profile,
)
from .profile_cache import (
    CacheStats,
    ProfileCache,
    global_profile_cache,
    set_global_profile_cache,
)
from .priority import (
    has_priority,
    optimal_nonsink_profile,
    priority_chain_holds,
    priority_matrix,
    profiles_have_priority,
)
from .quality import (
    QualityReport,
    area_ratio,
    best_effort_schedule,
    quality_deficit,
    quality_ratio,
    quality_report,
)
from .recognition import recognize, recognize_mesh_coordinates
from .schedule import (
    Schedule,
    dominates,
    normalize_nonsinks_first,
    profiles_equal,
)
from .width import dag_width, hopcroft_karp, max_antichain, width_attained
from .scheduler import (
    Certificate,
    SchedulingResult,
    greedy_schedule,
    schedule_dag,
)

__all__ = [
    "Arc",
    "BatchSchedule",
    "QualityReport",
    "area_ratio",
    "best_effort_schedule",
    "coffman_graham_batches",
    "dag_from_dict",
    "dag_from_json",
    "dag_to_dict",
    "dag_to_json",
    "hu_batches",
    "level_batches",
    "min_rounds_lower_bound",
    "optimal_batches",
    "quality_deficit",
    "quality_ratio",
    "quality_report",
    "recognize",
    "recognize_mesh_coordinates",
    "schedule_from_dict",
    "schedule_to_dict",
    "dag_width",
    "hopcroft_karp",
    "max_antichain",
    "width_attained",
    "BlockProvenance",
    "BlockRecord",
    "CacheStats",
    "Certificate",
    "CompositionChain",
    "STRATEGIES",
    "certify",
    "ComputationDag",
    "ExecutionState",
    "Node",
    "ProfileCache",
    "Schedule",
    "SchedulingResult",
    "SearchStats",
    "all_ic_optimal_nonsink_orders",
    "compose",
    "dominates",
    "dual_dag",
    "dual_schedule",
    "eligibility_profile",
    "eligibility_upper_bound",
    "find_ic_optimal_schedule",
    "global_profile_cache",
    "greedy_schedule",
    "has_priority",
    "ic_optimal_exists",
    "is_ic_optimal",
    "linear_composition_schedule",
    "max_eligibility_profile",
    "normalize_nonsinks_first",
    "optimal_nonsink_profile",
    "partial_max_eligibility_profile",
    "priority_chain_holds",
    "priority_matrix",
    "profiles_equal",
    "profiles_have_priority",
    "run_order",
    "schedule_dag",
    "set_global_profile_cache",
    "sum_dags",
]
