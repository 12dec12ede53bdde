"""repro — a reproduction of *Applying IC-Scheduling Theory to Familiar
Classes of Computations* (Cordasco, Malewicz, Rosenberg; IPPS 2007).

The package implements IC-Scheduling Theory — scheduling
computation-dags for Internet-based computing so that ELIGIBLE tasks
are produced at the maximum possible rate — together with every dag
family, computation, multi-granularity transform, and simulation
baseline the paper discusses.

Quick start::

    from repro import api, families

    mesh = families.mesh.out_mesh_chain(6)          # Fig. 5/6 out-mesh
    result = api.schedule(mesh)                     # Theorem 2.1
    assert result.ic_optimal
    print(result.profile)                           # eligibility E(t)

Subpackages
-----------
``repro.api``
    The stable facade: ``schedule()``, ``verify()``,
    ``simulate()``, ``compare()``, ``coarsen()`` with keyword-only
    options and frozen results — the import surface the CLI and the
    scheduling service use (see ``docs/API_MIGRATION.md``).
``repro.service``
    Scheduling-as-a-service: the sharded dag registry, the
    admission/coalescing request pipeline, and the HTTP JSON API
    (see ``docs/SERVICE.md``).
``repro.core``
    Dags, execution/eligibility model, schedules, exhaustive
    IC-optimality, the ▷ relation, composition ⇑, duality (Section 2).
``repro.blocks``
    The building-block catalog: V, Λ, W, M, N, cycle, butterfly blocks
    with their known IC-optimal schedules.
``repro.families``
    The paper's dag families: trees, diamonds (Section 3), meshes
    (Section 4), butterfly networks (Section 5), parallel-prefix
    (Section 6.1), DLT dags (Section 6.2.1), graph-paths (Section
    6.2.2), matrix-multiply (Section 7).
``repro.compute``
    Value-level task semantics: adaptive quadrature, FFT/convolution,
    comparator sorting, scans, DLT, block matrix multiply, wavefront
    dynamic programming.
``repro.granularity``
    Task clustering / multi-granularity transforms (coarsening).
``repro.sim``
    The event-driven IC server/client simulator with heuristic
    baselines (FIFO, LIFO, random, greedy, critical-path).
``repro.analysis``
    Eligibility-profile analytics and report rendering.

``repro.api``, ``repro.service`` and ``repro.compute`` are imported
lazily, on first attribute access: ``import repro`` loads neither the
HTTP machinery nor numpy.  networkx is imported only by the
:class:`~repro.core.dag.ComputationDag` interop methods and by the
isomorphism check that recognizes bare butterfly and prefix dags.
"""

from . import analysis, blocks, core, families, granularity, sim
from .core import (
    CompositionChain,
    ComputationDag,
    Schedule,
    schedule_dag,
)
from .exceptions import (
    ClusteringError,
    CompositionError,
    ComputeError,
    CycleError,
    DagStructureError,
    OptimalityError,
    PriorityError,
    ReproError,
    ScheduleError,
    SimulationError,
)

__version__ = "1.0.0"

#: lazily imported subpackages (PEP 562): the facade and the service
#: pull in simulation / HTTP machinery that library-only users (and
#: the hot layers themselves) never need at import time, and
#: ``compute`` pulls in numpy, which nothing outside it calls.
_LAZY_SUBPACKAGES = ("api", "compute", "service")


def __getattr__(name: str):
    if name in _LAZY_SUBPACKAGES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "CompositionChain",
    "ComputationDag",
    "Schedule",
    "api",
    "schedule_dag",
    "service",
    "analysis",
    "blocks",
    "compute",
    "core",
    "families",
    "granularity",
    "sim",
    "ReproError",
    "DagStructureError",
    "CycleError",
    "ScheduleError",
    "CompositionError",
    "PriorityError",
    "OptimalityError",
    "ClusteringError",
    "SimulationError",
    "ComputeError",
    "__version__",
]
