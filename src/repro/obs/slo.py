"""Declarative service-level objectives over the metrics registry.

An :class:`SLObjective` names a budget — a latency quantile, an
error-rate share, or a ratio of two counters — and
:func:`evaluate` checks a set of them against a registry
**snapshot** (the plain dict from
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), so the same
engine runs in-process (``GET /v1/slo``, the dashboard) and offline
against captured stats.  Three objective kinds:

``latency``
    The ``quantile`` of a histogram metric must stay at or under
    ``threshold`` seconds.  With a label filter, matching series are
    bucket-summed first (the cross-series aggregation
    ``histogram_quantile`` would do server-side).
``error_rate``
    The share of a labeled histogram's observations whose ``status``
    label is 5xx must stay at or under ``threshold``.
``ratio``
    ``numerator / denominator`` (two counters) must stay at or under
    ``threshold``; a zero denominator is vacuously met.

The default objectives (:data:`DEFAULT_OBJECTIVES`) encode the
service's standing budgets: p99 submit and simulate latency, the 5xx
error-rate, and the certificate degradation-rate — the numbers
ROADMAP item 1's throughput work will be measured against.  No
observation yet (empty histogram, zero denominator) evaluates as
**met**: an idle service is inside every budget.

``GET /v1/slo`` (mounted on both the scheduling service and the obs
server via :func:`dispatch_slo`) returns::

    {"ok": true, "objectives": [
      {"name": "submit-p99", "kind": "latency", "ok": true,
       "value": 0.0123, "threshold": 2.5, "detail": "...", ...},
      ...]}

See ``docs/OBSERVABILITY.md`` §8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import Histogram

__all__ = [
    "DEFAULT_OBJECTIVES",
    "SLObjective",
    "dispatch_slo",
    "evaluate",
    "slo_payload",
]


@dataclass(frozen=True)
class SLObjective:
    """One declarative budget.  ``labels`` is a tuple of
    ``(name, value)`` pairs restricting which series of ``metric``
    count (hashable, so objectives stay frozen/comparable)."""

    name: str
    kind: str  # "latency" | "error_rate" | "ratio"
    description: str
    metric: str
    threshold: float
    labels: tuple[tuple[str, str], ...] = ()
    quantile: float = 0.99  # latency only
    denominator: str = ""  # ratio only

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "ratio" and not self.denominator:
            raise ValueError(f"ratio objective {self.name!r} needs a "
                             "denominator metric")


DEFAULT_OBJECTIVES: tuple[SLObjective, ...] = (
    SLObjective(
        name="submit-p99",
        kind="latency",
        description="p99 schedule-submission latency",
        metric="service_request_seconds",
        labels=(("route", "/v1/dags"),),
        quantile=0.99,
        threshold=2.5,
    ),
    SLObjective(
        name="simulate-p99",
        kind="latency",
        description="p99 simulation latency",
        metric="service_request_seconds",
        labels=(("route", "/v1/simulate"),),
        quantile=0.99,
        threshold=2.5,
    ),
    SLObjective(
        name="error-rate",
        kind="error_rate",
        description="share of requests answered 5xx",
        metric="service_request_seconds",
        threshold=0.01,
    ),
    SLObjective(
        name="degradation-rate",
        kind="ratio",
        description="share of searches degraded to a fallback "
                    "certificate",
        metric="service_degraded_total",
        denominator="service_searches_total",
        threshold=0.05,
    ),
)


def _series_of(data: dict):
    """Yield ``(labels_dict, value)`` leaves of one metric snapshot
    entry, uniformly for labeled and unlabeled metrics."""
    if "series" in data:
        for entry in data["series"]:
            yield entry["labels"], entry["value"]
    elif "value" in data:
        yield {}, data["value"]


def _matches(labels: dict, wanted: tuple[tuple[str, str], ...]) -> bool:
    return all(labels.get(k) == v for k, v in wanted)


def _sum_histogram(data: dict, wanted) -> Histogram | None:
    """Bucket-sum the matching series of a histogram snapshot entry
    into a fresh :class:`Histogram` (None when nothing matches)."""
    out: Histogram | None = None
    for labels, value in _series_of(data):
        if not _matches(labels, wanted):
            continue
        if out is None:
            bounds = [float(b) for b in value["buckets"]]
            if not bounds:
                continue
            out = Histogram(buckets=bounds)
        # every series of one histogram shares its bounds
        for i, count in enumerate(value["buckets"].values()):
            out._counts[i] += count
        out._counts[-1] += value["inf"]
        out._sum += value["sum"]
    return out


def _counter_total(snapshot: dict, metric: str, wanted=()) -> float:
    data = snapshot.get(metric)
    if data is None:
        return 0.0
    return sum(value for labels, value in _series_of(data)
               if _matches(labels, wanted))


def _eval_one(obj: SLObjective, snapshot: dict) -> dict:
    out = {
        "name": obj.name,
        "kind": obj.kind,
        "description": obj.description,
        "metric": obj.metric,
        "threshold": obj.threshold,
        "value": 0.0,
        "ok": True,
        "detail": "no observations",
    }
    if obj.labels:
        out["labels"] = dict(obj.labels)
    data = snapshot.get(obj.metric)
    if obj.kind == "latency":
        hist = _sum_histogram(data, obj.labels) if data else None
        if hist is not None and hist.count:
            value = hist.quantile(obj.quantile)
            out["value"] = round(value, 6)
            out["ok"] = value <= obj.threshold
            out["detail"] = (f"p{round(obj.quantile * 100)} of "
                             f"{hist.count} requests")
        out["quantile"] = obj.quantile
    elif obj.kind == "error_rate":
        total = errors = 0
        if data is not None:
            for labels, value in _series_of(data):
                if not _matches(labels, obj.labels):
                    continue
                n = value["count"] if isinstance(value, dict) else value
                total += n
                if str(labels.get("status", "")).startswith("5"):
                    errors += n
        if total:
            rate = errors / total
            out["value"] = round(rate, 6)
            out["ok"] = rate <= obj.threshold
            out["detail"] = f"{errors} of {total} requests 5xx"
    else:  # ratio
        num = _counter_total(snapshot, obj.metric, obj.labels)
        den = _counter_total(snapshot, obj.denominator)
        out["denominator"] = obj.denominator
        if den:
            rate = num / den
            out["value"] = round(rate, 6)
            out["ok"] = rate <= obj.threshold
            out["detail"] = (f"{round(num)} of {round(den)} "
                             f"{obj.denominator}")
    return out


def evaluate(snapshot: dict,
             objectives=DEFAULT_OBJECTIVES) -> list[dict]:
    """Evaluate ``objectives`` against a registry snapshot; one
    result dict per objective, in declaration order."""
    return [_eval_one(obj, snapshot) for obj in objectives]


def slo_payload(snapshot: dict,
                objectives=DEFAULT_OBJECTIVES) -> dict:
    """The ``GET /v1/slo`` wire document."""
    results = evaluate(snapshot, objectives)
    return {"ok": all(r["ok"] for r in results), "objectives": results}


def dispatch_slo(svc, handler, method: str, path: str) -> bool:
    """Serve ``GET /v1/slo`` if ``path`` matches; returns whether the
    request was handled.  ``svc`` supplies ``metrics_registry``."""
    if path != "/v1/slo":
        return False
    from .server import RequestError
    if method != "GET":
        raise RequestError(405, "method not allowed")
    handler.respond_json(
        200, slo_payload(svc.metrics_registry.snapshot()))
    return True
