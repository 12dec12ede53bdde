"""``repro.service`` — scheduling-as-a-service.

The library's certification and simulation machinery behind a
long-lived, multi-client HTTP endpoint (see ``docs/SERVICE.md``):

:mod:`repro.service.registry`
    :class:`DagRegistry` — the sharded, lock-striped,
    content-addressed store of submitted dags and their certified
    schedules (bounded by per-shard LRU spill).
:mod:`repro.service.pipeline`
    :class:`RequestPipeline` — one bounded admission count for
    submissions and simulations (backpressure → 429), single-flight
    coalescing of concurrent certification requests per fingerprint,
    and graceful degradation to the heuristic schedule; every request
    runs on the HTTP handler thread that received it.
:mod:`repro.service.durability`
    :class:`DurabilityManager` — the opt-in durable core: a
    CRC32-checksummed write-ahead journal of registry events,
    atomic snapshots, and replay-on-boot crash recovery
    (``docs/ROBUSTNESS.md``; proven by ``tools/chaos_restart.py``).
:mod:`repro.service.http`
    :class:`SchedulingService` — the stdlib HTTP JSON API on the
    hardened :class:`~repro.obs.server.HTTPServiceBase`.

The service consumes the library only through the stable
:mod:`repro.api` facade.  Start one with ``repro serve --port 8080``
(add ``--data-dir`` for crash-durable state) or programmatically::

    from repro.service import SchedulingService

    with SchedulingService(port=8080, data_dir="var/repro") as svc:
        print("serving on", svc.url)
        ...
"""

from .durability import (
    FSYNC_POLICIES,
    DurabilityManager,
    RecoveryReport,
    scan_journal,
)
from .http import ENDPOINTS, SchedulingService
from .pipeline import PipelineConfig, RejectedError, RequestPipeline
from .registry import DagEntry, DagRegistry

__all__ = [
    "ENDPOINTS",
    "FSYNC_POLICIES",
    "DagEntry",
    "DagRegistry",
    "DurabilityManager",
    "PipelineConfig",
    "RecoveryReport",
    "RejectedError",
    "RequestPipeline",
    "SchedulingService",
    "scan_journal",
]
