"""Process-wide metrics: counters, gauges, histogram timers.

A :class:`MetricsRegistry` is a thread-safe, zero-dependency registry
of named metrics, each optionally split by a fixed label schema.  The
registry is the single source of truth for every number the library's
hot layers report — search effort (`repro.core.optimality`), cache
behaviour (`repro.core.profile_cache`), scheduling outcomes
(`repro.core.scheduler`), and simulation events (`repro.sim.server`)
all record here, and `SearchStats` / `repro verify` / `repro stats`
are *views* over it.

Design constraints (see ``docs/OBSERVABILITY.md``):

* **Aggregate-only on hot paths.**  Instrumented code records a few
  counter increments and one histogram observation *per call*, never
  per inner-loop state — the disabled-path overhead gate in
  ``benchmarks/bench_observability.py`` holds the whole layer under
  5% of the bare kernel.
* **Deterministic exposition.**  :meth:`MetricsRegistry.snapshot`
  orders metrics and label-children lexicographically, so JSON and
  Prometheus output are byte-stable for a given history (golden-test
  friendly).
* **Two exposition formats.**  :meth:`~MetricsRegistry.to_json` for
  machine consumption and :meth:`~MetricsRegistry.to_prometheus` for
  the standard text format (``# HELP`` / ``# TYPE`` / samples,
  histograms as cumulative ``_bucket{le=...}`` series).  Label values
  and help text are escaped per the format spec (``\\``, ``"``,
  newlines), and ``# HELP`` / ``# TYPE`` are emitted exactly once per
  metric family.
* **One process, one registry.**  Every recording happens in the
  process that owns the registry and nothing is shipped between
  processes, so counter, gauge and histogram-bucket values in a
  snapshot are a pure function of the recorded history (see "Process
  scope" in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from collections.abc import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "set_global_registry",
]

#: default histogram bucket upper bounds (seconds-oriented, spanning
#: microsecond primitives to multi-second searches).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _format_value(v: float) -> str:
    """Prometheus sample formatting: integers without a trailing .0."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(v)


def _escape_label_value(v: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double quote, and line feed."""
    return (
        v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: backslash and line feed (quotes are
    legal in help text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared machinery: naming, labels, child management.

    A metric declared with ``labelnames`` is a *parent*: it holds no
    value itself, only children keyed by their label-value tuple
    (obtained via :meth:`labels`).  A metric declared without labels
    holds its value directly.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        _lock: threading.Lock | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = _lock if _lock is not None else threading.Lock()
        self._children: dict[tuple[str, ...], _Metric] = {}

    # -- labels --------------------------------------------------------
    def labels(self, *values, **kwvalues) -> "_Metric":
        """The child metric for one label-value combination.

        Accepts positional values (in ``labelnames`` order) or
        keyword values; children are created on first use and reused
        thereafter.
        """
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if kwvalues:
            if values:
                raise ValueError("pass label values positionally or by "
                                 "keyword, not both")
            try:
                values = tuple(str(kwvalues[n]) for n in self.labelnames)
            except KeyError as e:
                raise ValueError(
                    f"metric {self.name!r} missing label {e.args[0]!r}"
                ) from None
            if len(kwvalues) != len(self.labelnames):
                extra = set(kwvalues) - set(self.labelnames)
                raise ValueError(
                    f"metric {self.name!r} got unknown labels {sorted(extra)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {values}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                child.name = self.name
                child.help = self.help
                self._children[values] = child
            return child

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def _series(self):
        """Yield ``(label_values, leaf)`` pairs, sorted by labels."""
        if self.labelnames:
            with self._lock:
                items = sorted(self._children.items())
            for values, child in items:
                yield values, child
        else:
            yield (), self

    # -- exposition ----------------------------------------------------
    def snapshot(self) -> dict:
        out: dict = {"type": self.kind, "help": self.help}
        if self.labelnames:
            out["labelnames"] = list(self.labelnames)
            series = []
            for vals, leaf in self._series():
                entry = {"labels": dict(zip(self.labelnames, vals)),
                         "value": leaf._value()}
                entry.update(leaf._extra())
                series.append(entry)
            out["series"] = series
        else:
            out["value"] = self._value()
            out.update(self._extra())
        return out

    def _value(self):
        raise NotImplementedError

    def _extra(self) -> dict:
        """Extra per-leaf snapshot fields (e.g. histogram exemplars)."""
        return {}

    def prometheus_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for vals, leaf in self._series():
            lines.extend(leaf._sample_lines(self.name, self.labelnames, vals))
        return lines

    def _sample_lines(self, name, labelnames, labelvalues) -> list[str]:
        return [
            f"{name}{_label_str(labelnames, labelvalues)} "
            f"{_format_value(self._value())}"
        ]

    def _reset(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Zero this metric (and every label child)."""
        if self.labelnames:
            with self._lock:
                children = list(self._children.values())
            for c in children:
                c._reset()
        else:
            self._reset()


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._count = 0

    def _make_child(self) -> "Counter":
        return Counter("", _lock=self._lock)

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._count += amount

    @property
    def value(self) -> float:
        return self._count

    def _value(self):
        return self._count

    def _reset(self) -> None:
        with self._lock:
            self._count = 0


class Gauge(_Metric):
    """A value that can go up and down (or track a running max)."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gauge = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge("", _lock=self._lock)

    def set(self, value: float) -> None:
        with self._lock:
            self._gauge = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._gauge += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._gauge -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum of observed values."""
        with self._lock:
            if value > self._gauge:
                self._gauge = value

    @property
    def value(self) -> float:
        return self._gauge

    def _value(self):
        return self._gauge

    def _reset(self) -> None:
        with self._lock:
            self._gauge = 0.0


class Histogram(_Metric):
    """Bucketed distribution of observations (typically durations).

    Quantiles are estimated from the cumulative bucket counts with
    linear interpolation inside the crossing bucket — the standard
    Prometheus ``histogram_quantile`` estimator, computed locally.
    """

    kind = "histogram"

    def __init__(self, name="", help="", labelnames=(), *,
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 _lock=None) -> None:
        super().__init__(name, help, labelnames, _lock=_lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)  # +inf bucket last
        self._sum = 0.0
        self._exemplar: dict | None = None

    def _make_child(self) -> "Histogram":
        return Histogram(buckets=self.bounds, _lock=self._lock)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation.

        ``exemplar`` (optionally) names the correlation id — in
        practice the request ID — behind this observation; the leaf
        keeps the most recent one and surfaces it in snapshots, so a
        latency series can be traced back to a concrete request.
        Hot-path callers omit it and pay nothing.
        """
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            if exemplar is not None:
                self._exemplar = {
                    "id": exemplar, "value": value, "ts": time.time(),
                }

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        n = self.count
        return self._sum / n if n else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        cum = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            prev = cum
            cum += self._counts[i]
            if cum >= rank:
                in_bucket = cum - prev
                if in_bucket == 0:
                    return bound
                frac = (rank - prev) / in_bucket
                return lower + frac * (bound - lower)
            lower = bound
        return self.bounds[-1]  # observations beyond the last bound

    def _value(self):
        return {
            "count": self.count,
            "sum": self._sum,
            "buckets": {
                _format_value(b): c
                for b, c in zip(self.bounds, self._counts)
            },
            "inf": self._counts[-1],
        }

    def _extra(self) -> dict:
        with self._lock:
            if self._exemplar is None:
                return {}
            return {"exemplar": dict(self._exemplar)}

    def _sample_lines(self, name, labelnames, labelvalues) -> list[str]:
        lines = []
        cum = 0
        for bound, c in zip(self.bounds, self._counts):
            cum += c
            ls = _label_str(
                labelnames + ("le",), labelvalues + (_format_value(bound),)
            )
            lines.append(f"{name}_bucket{ls} {cum}")
        cum += self._counts[-1]
        ls = _label_str(labelnames + ("le",), labelvalues + ("+Inf",))
        lines.append(f"{name}_bucket{ls} {cum}")
        base = _label_str(labelnames, labelvalues)
        lines.append(f"{name}_sum{base} {_format_value(self._sum)}")
        lines.append(f"{name}_count{base} {cum}")
        return lines

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._exemplar = None


class MetricsRegistry:
    """A named collection of metrics with JSON/Prometheus exposition.

    Declaring the same name twice returns the existing metric when the
    type and label schema match (so modules can declare their metrics
    at call time without coordination) and raises otherwise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- declaration ---------------------------------------------------
    def _declare(self, cls, name: str, help: str,
                 labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    # -- access --------------------------------------------------------
    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels):
        """Convenience: the current value of a metric (0 if absent).

        For labeled metrics pass the label values; a missing child is
        also 0 (nothing recorded there yet).
        """
        m = self.get(name)
        if m is None:
            return 0
        if labels:
            key = tuple(str(labels[n]) for n in m.labelnames)
            with m._lock:
                child = m._children.get(key)
            return child._value() if child is not None else 0
        if m.labelnames:
            total = 0
            for _vals, leaf in m._series():
                total += leaf._value()
            return total
        return m._value()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Zero every metric's value; registrations survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()

    # -- exposition ----------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able, deterministically ordered view of every metric."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: m.snapshot() for name, m in items}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: list[str] = []
        for _name, m in items:
            lines.extend(m.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")


#: the process-wide default registry every instrumented layer records
#: to unless handed a private one.
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the old one.

    Benchmarks and tests install a fresh registry so their counters
    describe only their own workload.
    """
    global _GLOBAL_REGISTRY
    old = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return old
