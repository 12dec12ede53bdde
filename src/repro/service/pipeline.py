"""The service request pipeline: admission and coalescing.

Between the HTTP layer and the :mod:`repro.api` facade sits one
pipeline enforcing the serving disciplines the ROADMAP's
heavy-traffic goal needs.  It owns no threads: every request runs on
the HTTP handler thread that received it, as the paper's IC server
hands out work the moment a client asks for it.

* **bounded admission** — at most ``max_inflight`` requests of both
  routes, scheduling and simulation together, run at any moment;
  excess load is *rejected immediately* (the HTTP layer turns that
  into ``429 Too Many Requests``) rather than queued, so latency
  stays bounded and memory per request cannot grow with offered
  load (``service_rejected_total{reason}``);
* **coalescing (single-flight)** — concurrent scheduling requests for
  the same dag fingerprint share *one* certification search: the
  first requester runs it, every concurrent duplicate parks on an
  event and receives the same result
  (``service_coalesced_total`` / ``service_searches_total`` — the
  coalescing hit rate gated by ``benchmarks/bench_service.py``).
  This is the cross-request analogue of the in-process
  :class:`~repro.core.profile_cache.ProfileCache`, which only
  helps *after* a result is stored — under a thundering herd all
  first requests miss the cache simultaneously and would each run
  the exhaustive search without this;
* **graceful degradation, stamped** — per ``docs/ROBUSTNESS.md`` and
  ``docs/CERTIFICATION.md``: when certification fails (state-budget
  exhaustion or any unexpected error) the pipeline
  retries through the facade with ``strategy="anytime"`` when the
  config carries a ``budget`` (certificate ``"anytime"`` with sound
  loss bounds), else ``strategy="heuristic"`` — never an unlabeled
  schedule.  Every certified result's coarse kind is counted under
  ``service_certificates_total{kind}``, degradations under
  ``service_degraded_total``;
* **durability without availability coupling** — when the registry
  carries a write-ahead journal
  (:class:`~repro.service.durability.DurabilityManager`), each
  certified result is journaled as part of
  :meth:`~repro.service.registry.DagRegistry.attach_schedule` (timed
  as the ``journal`` phase of ``/v1/dags``).  A failing disk
  *degrades durability, never requests*: the manager flips itself to
  in-memory mode (``service_durability_degraded_total``, flight
  recorder) and appends become no-ops — the pipeline keeps serving
  200s from memory.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .. import api
from ..core.dag import ComputationDag
from ..obs import global_registry, span
from ..obs.context import current_request_id
from ..obs.observatory import global_frame_store
from .registry import DagEntry, DagRegistry

__all__ = ["PipelineConfig", "RejectedError", "RequestPipeline"]


def _m_phases():
    """``service_phase_seconds{route,phase}`` — where a request's
    time went, attributable against the end-to-end
    ``service_request_seconds`` (docs/OBSERVABILITY.md §8)."""
    return global_registry().histogram(
        "service_phase_seconds",
        "time spent per pipeline phase, by route",
        ("route", "phase"),
    )


def _observe_phase(route: str, phase: str, t0: float) -> float:
    """Record one phase ending now; returns the new phase start."""
    t1 = time.perf_counter()
    _m_phases().labels(route, phase).observe(
        t1 - t0, exemplar=current_request_id())
    return t1


class RejectedError(Exception):
    """Admission control rejected the request (backpressure).

    The HTTP layer maps this onto ``429 Too Many Requests``.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"request rejected: {reason}")
        self.reason = reason


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for one :class:`RequestPipeline`."""

    #: concurrent requests admitted, scheduling (searches + coalesced
    #: waiters) and simulation together
    max_inflight: int = 32
    #: seconds a coalesced waiter may wait for the search it joined
    #: before the request is rejected (the HTTP layer answers 429)
    request_timeout: float = 60.0
    #: scheduling options forwarded to :func:`repro.api.schedule`
    exhaustive_limit: int = 24
    state_budget: int = 500_000
    #: certification strategy forwarded to :func:`repro.api.schedule`
    strategy: str = "auto"
    #: anytime state budget; when set, failed certifications degrade
    #: to a bounded ``"anytime"`` schedule instead of the bare
    #: heuristic (``docs/CERTIFICATION.md``)
    budget: int | None = None


class _Flight:
    """One in-progress certification search (single-flight slot)."""

    __slots__ = ("done", "entry", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: DagEntry | None = None
        self.error: BaseException | None = None


class RequestPipeline:
    """Admission + coalescing in front of the facade.

    Thread-safe; one instance serves every HTTP handler thread of a
    :class:`~repro.service.http.SchedulingService`, each request on
    its caller's thread.
    """

    def __init__(self, registry: DagRegistry | None = None,
                 config: PipelineConfig | None = None) -> None:
        self.registry = registry if registry is not None else DagRegistry()
        self.config = config if config is not None else PipelineConfig()
        self._admission = threading.Semaphore(self.config.max_inflight)
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()

    # -- metrics -------------------------------------------------------
    @staticmethod
    def _m_rejected():
        return global_registry().counter(
            "service_rejected_total",
            "requests rejected by admission control", ("reason",),
        )

    @staticmethod
    def _m_coalesced():
        return global_registry().counter(
            "service_coalesced_total",
            "scheduling requests that joined an in-flight search "
            "for the same fingerprint",
        )

    @staticmethod
    def _m_searches():
        return global_registry().counter(
            "service_searches_total",
            "certification searches the service actually ran",
        )

    @staticmethod
    def _m_cached():
        return global_registry().counter(
            "service_schedule_cached_total",
            "scheduling requests answered from the registry without "
            "any search",
        )

    @staticmethod
    def _m_degraded():
        return global_registry().counter(
            "service_degraded_total",
            "requests served a fallback (anytime/heuristic) schedule "
            "after a failed certification search",
        )

    @staticmethod
    def _m_certificates():
        return global_registry().counter(
            "service_certificates_total",
            "schedules served by coarse certificate kind", ("kind",),
        )

    # -- admission -----------------------------------------------------
    def _admit(self, route: str, reason: str, message: str) -> float:
        """Take one of the ``max_inflight`` slots without waiting, or
        raise :class:`RejectedError` (counted under ``reason``).
        Returns the start of the route's next phase; the caller
        releases the slot."""
        t0 = time.perf_counter()
        if not self._admission.acquire(blocking=False):
            self._m_rejected().labels(reason).inc()
            raise RejectedError(message)
        return _observe_phase(route, "admission", t0)

    # -- scheduling (single-flight) ------------------------------------
    def submit_dag(self, dag: ComputationDag) -> tuple[DagEntry, str]:
        """Register ``dag`` and certify it, coalescing duplicates.

        Returns ``(entry, how)`` where ``how`` is ``"cached"`` (the
        registry already held a certified schedule), ``"search"``
        (this request ran the certification), ``"coalesced"`` (it
        joined another request's in-flight search), or ``"degraded"``
        (the search failed and the greedy fallback was served).
        Raises :class:`RejectedError` under backpressure.
        """
        t0 = self._admit("/v1/dags", "schedule_capacity",
                         "scheduling capacity exhausted")
        try:
            entry = self.registry.put(dag)
            _observe_phase("/v1/dags", "registry", t0)
            if entry.schedule is not None:
                self._m_cached().inc()
                return entry, "cached"
            return self._single_flight(entry)
        finally:
            self._admission.release()

    def _single_flight(self, entry: DagEntry) -> tuple[DagEntry, str]:
        fp = entry.fingerprint
        with self._flights_lock:
            flight = self._flights.get(fp)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[fp] = flight
        if not leader:
            self._m_coalesced().inc()
            t0 = time.perf_counter()
            done = flight.done.wait(self.config.request_timeout)
            _observe_phase("/v1/dags", "coalesce_wait", t0)
            if not done:
                raise RejectedError("coalesced wait timed out")
            if flight.error is not None:
                raise flight.error
            assert flight.entry is not None
            return flight.entry, "coalesced"
        try:
            with span("service.schedule", fingerprint=fp,
                      dag=entry.dag.name):
                how = self._certify(entry)
            flight.entry = entry
            return entry, how
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(fp, None)
            flight.done.set()

    def _certify(self, entry: DagEntry) -> str:
        """Run the certification through the facade, degrading to a
        *stamped* fallback on failure (docs/ROBUSTNESS.md): anytime
        with certified loss bounds when the config carries a
        ``budget``, else the labeled heuristic.  Times the ``certify``
        phase, then the ``journal`` phase of attaching the result."""
        cfg = self.config
        t0 = time.perf_counter()
        self._m_searches().inc()
        try:
            result = api.schedule(
                entry.dag,
                strategy=cfg.strategy,
                budget=cfg.budget,
                exhaustive_limit=cfg.exhaustive_limit,
                state_budget=cfg.state_budget,
            )
            how = "search"
        except Exception as exc:
            # certification machinery failed — serve a labeled
            # fallback (anytime/heuristic strategies cannot fail)
            fallback = "anytime" if cfg.budget is not None \
                else "heuristic"
            result = api.schedule(
                entry.dag, strategy=fallback, budget=cfg.budget,
            )
            self._m_degraded().inc()
            how = "degraded"
            # black-box capture: the degradation is served silently
            # (a 200 with a fallback certificate), so the flight
            # recorder is the only place its cause survives
            from ..obs.flightrecorder import global_flight_recorder
            global_flight_recorder().trigger(
                "degradation",
                request_id=current_request_id(),
                detail=(f"{entry.dag.name} ({entry.fingerprint}): "
                        f"{type(exc).__name__}: {exc} -> {fallback}"),
            )
        self._m_certificates().labels(result.kind).inc()
        entry.schedule = result
        store = global_frame_store()
        if store.enabled:
            # attach the certified M(t) so subsequent frames carry the
            # achieved-vs-optimal comparison (observatory sparkline)
            store.set_profile(entry.dag, result.profile)
        t0 = _observe_phase("/v1/dags", "certify", t0)
        self.registry.attach_schedule(entry.fingerprint, result)
        if self.registry.journal is not None:
            _observe_phase("/v1/dags", "journal", t0)
        return how

    # -- simulation ----------------------------------------------------
    def simulate(self, dag: ComputationDag,
                 **kwargs) -> api.SimulateResult:
        """Run one simulation through :func:`repro.api.simulate` on the
        calling thread.

        Raises :class:`RejectedError` when the ``max_inflight`` slots
        are taken (backpressure).
        """
        t0 = self._admit("/v1/simulate", "simulate_capacity",
                         "simulation capacity exhausted")
        try:
            with span("service.simulate", dag=dag.name):
                result = api.simulate(dag, **kwargs)
            _observe_phase("/v1/simulate", "simulate", t0)
            return result
        finally:
            self._admission.release()
