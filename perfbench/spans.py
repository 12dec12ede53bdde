"""Spans from outside the program: timing wrappers on each layer's
public functions, and the self-time arithmetic over them.

A wrapper goes on the name where the *caller* looks it up (callers
bind names at import, so wrapping the defining module alone would
miss them).  Each call records one span ``(id, name, start, end,
parent, request_id, counts)``: the parent is the innermost open span
of the same thread or, on a thread with none open, the root span of
the same request (a simulation runs on a worker thread but belongs to
the HTTP request that queued it).  Spans stay in memory until the
recorder is dumped.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

#: one name per layer boundary; the per-layer metric each feeds is
#: fixed in :data:`LAYER_OF`.
SITES = (
    # (span name, module, owner attribute path, attribute)
    ("http.request", "repro.service.http", "SchedulingService", "dispatch"),
    ("io.dag_from_dict", "repro.service.http", None, "dag_from_dict"),
    ("io.dag_from_dict", "repro.service.durability", None, "dag_from_dict"),
    ("io.dag_from_dict", "repro.core.io", None, "dag_from_dict"),
    ("io.dag_from_dict", "repro.service.durability", None,
     "schedule_from_dict"),
    ("io.dag_to_dict", "repro.service.durability", None, "dag_to_dict"),
    ("io.dag_to_dict", "repro.core.io", None, "dag_to_dict"),
    ("io.dag_to_dict", "repro.service.durability", None, "schedule_to_dict"),
    ("registry.put", "repro.service.registry", "DagRegistry", "put"),
    ("registry.get", "repro.service.registry", "DagRegistry", "get"),
    ("registry.attach", "repro.service.registry", "DagRegistry",
     "attach_schedule"),
    ("durability.append", "repro.service.durability", "DurabilityManager",
     "_append"),
    ("durability.snapshot", "repro.service.durability",
     "DurabilityManager", "snapshot_now"),
    ("durability.recover", "repro.service.durability", "DurabilityManager",
     "recover"),
    ("api.schedule", "repro.api", None, "schedule"),
    ("api.simulate", "repro.api", None, "simulate"),
    ("api.verify", "repro.api", None, "verify"),
    ("api.compare", "repro.api", None, "compare"),
    ("certify", "repro.core.certify", None, "certify"),
    ("recognition", "repro.core.certify", None, "recognize"),
    ("optimality", "repro.core.certify", None, "max_eligibility_profile"),
    ("optimality", "repro.core.certify", None, "find_ic_optimal_schedule"),
    ("optimality", "repro.core.certify", None,
     "partial_max_eligibility_profile"),
    ("optimality", "repro.core.profile_cache", None,
     "max_eligibility_profile"),
    ("optimality", "repro.core.optimality", None,
     "find_ic_optimal_schedule"),
    ("composition", "repro.core.certify", None,
     "linear_composition_schedule"),
    ("composition", "repro.core.composition", "CompositionChain",
     "is_priority_linear"),
    ("composition", "repro.core.composition", "CompositionChain",
     "segmented_priority_linear"),
    ("composition", "repro.core.composition", "CompositionChain",
     "priority_reordered"),
    ("dag.fingerprint", "repro.core.dag", "ComputationDag", "fingerprint"),
    ("sim.simulate", "repro.sim.server", None, "simulate"),
    ("sim.simulate", "repro.sim.metrics", None, "simulate"),
    ("compare.policies", "repro.sim.metrics", None, "compare_policies"),
    ("observatory.record", "repro.obs.observatory", "FrameStore", "record"),
)


def _sim_loop(args, kwargs) -> str:
    """Which of the three simulation loops the arguments select."""
    if kwargs.get("fault_plan") is not None or \
            kwargs.get("server_policy") is not None:
        return "sim.faults"
    if kwargs.get("machine") is not None:
        return "sim.machine"
    return "sim.ideal"


def _sim_counts(args, kwargs, result) -> dict:
    rep = getattr(result, "machine_report", None)
    if rep is None:
        return {}
    return {"supersteps": rep.supersteps, "stalls": rep.placement_stalls}


def _recognized(args, kwargs, result) -> dict:
    return {"recognized": int(result is not None)}


def _certified(args, kwargs, result) -> dict:
    return {f"kind.{result.kind}": 1}


def _journal_bytes(args, kwargs, result) -> dict:
    """Bytes one journal append wrote: the record as the journal
    encodes it (``seq`` stands in at one digit) plus the 8-byte
    length/CRC header."""
    record = dict(args[1], seq=0)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return {"bytes": len(payload.encode()) + 8} if result else {}


def _http_name(args, kwargs) -> str:
    path = args[3] if len(args) > 3 else kwargs.get("path", "")
    return {"/v1/dags": "http.submit",
            "/v1/simulate": "http.simulate"}.get(path, "http.other")


#: per-span-name hooks: a name function over ``(args, kwargs)`` (for
#: wrappers whose span name depends on the call) and a counts function
#: over ``(args, kwargs, result)``, run after the span's end so its
#: cost is not charged to the span.
_NAMERS = {"sim.simulate": _sim_loop, "http.request": _http_name}
_COUNTERS = {"sim.simulate": _sim_counts, "recognition": _recognized,
             "certify": _certified, "durability.append": _journal_bytes}


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, request_id=None) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        # the program's own request ID when it binds one, else the ID
        # of the enclosing :meth:`root` on this thread
        self._request_id = request_id or (
            lambda: getattr(self._local, "rid", None))
        self._ids = itertools.count(1)
        self._roots: dict[str, int] = {}
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        namer = _NAMERS.get(name)
        counter = _COUNTERS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            rid = rec._request_id()
            if stack:
                parent = stack[-1]
            else:
                parent = rec._roots.get(rid) if rid is not None else None
                if parent is None and rid is not None:
                    rec._roots[rid] = sid
            span_name = namer(args, kwargs) if namer else name
            stack.append(sid)
            t0 = time.perf_counter()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = None
                if counter is not None and not failed:
                    counts = counter(args, kwargs, result)
                rec.spans.append((sid, span_name, t0, t1, parent, rid,
                                  counts))
        return wrapper

    def install(self, sites=SITES) -> None:
        """Wrap every site whose module is importable."""
        import importlib

        for name, module, owner_name, attr in sites:
            mod = importlib.import_module(module)
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def root(self, request_id: str):
        """Context manager: an ``op`` span that is the root of one
        in-process operation (the benchmark's own boundary)."""
        return _Root(self, request_id)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Root:
    def __init__(self, rec: Recorder, rid: str) -> None:
        self.rec, self.rid = rec, rid

    def __enter__(self):
        self.sid = next(self.rec._ids)
        self.rec._roots[self.rid] = self.sid
        self.rec._local.rid = self.rid
        self.rec._stack().append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.rec._stack().pop()
        self.rec._local.rid = None
        self.rec.spans.append((self.sid, "op", self.t0, t1, None,
                               self.rid, None))


# -- self-time arithmetic ----------------------------------------------
def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to the window)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id → self time: duration minus the part of its interval
    its child spans cover."""
    children = defaultdict(list)
    for sid, _n, s, e, parent, _r, _c in spans:
        if parent is not None:
            children[parent].append((s, e))
    return {sid: (e - s) - covered(s, e, children.get(sid, ()))
            for sid, _n, s, e, _p, _r, _c in spans}


def self_table(spans, e2e_by_request: dict[str, float]) -> dict:
    """Self time per span name over the requests in ``e2e_by_request``
    (request ID → end-to-end seconds), plus the unattributed rest.

    Returns ``{"rows": {name: {"calls", "self_s"}}, "counts": {...},
    "e2e_s", "unattributed_s", "worst_overrun_s"}``, where
    ``worst_overrun_s`` is the largest amount by which one request's
    span self times exceed its end-to-end time (clock or nesting
    errors make it positive).
    """
    wanted = [sp for sp in spans if sp[5] in e2e_by_request]
    own = self_times(wanted)
    rows: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    per_request: dict[str, float] = defaultdict(float)
    for sp in wanted:
        sid, name, _s, _e, _p, rid, c = sp
        rows[name]["calls"] += 1
        rows[name]["self_s"] += own[sid]
        per_request[rid] += own[sid]
        for key, val in (c or {}).items():
            counts[f"{name}.{key}"] += val
    e2e = sum(e2e_by_request.values())
    covered_s = sum(per_request.values())
    overrun = max((per_request[r] - t for r, t in e2e_by_request.items()),
                  default=0.0)
    return {"rows": dict(rows), "counts": dict(counts), "e2e_s": e2e,
            "unattributed_s": e2e - covered_s, "worst_overrun_s": overrun}
