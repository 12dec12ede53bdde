"""Correctness checks, run after each timed window.

Every check returns a list of problems, one string per wrong
operation; an empty list means every checked output was right.  The
slow oracle is :func:`repro.core.optimality.max_eligibility_profile`
called without any cache, so a fast path that went wrong cannot agree
with it by reading its own memo.
"""

from __future__ import annotations

import json
import random

#: anytime state budget small enough that the search cannot finish on
#: the checked dags, so the bounds are a real interval.
ANYTIME_BUDGET = 4
#: simulate responses re-run in process, per run.
SIMULATE_SAMPLE = 30
#: library-sweep dags re-checked against the oracle, per run.
SWEEP_SAMPLE = 12

#: simulate response fields that must match an in-process run.
_SIM_FIELDS = ("policy", "certificate", "kind", "makespan", "utilization",
               "starvation_events", "idle_time", "completed",
               "lost_allocations", "mean_headroom", "machine")


def _ceiling(dag) -> list[int]:
    from repro.core.optimality import max_eligibility_profile

    return list(max_eligibility_profile(dag, 500_000))


def _decode(sample):
    try:
        return json.loads(sample.body)
    except ValueError:
        return None


def check_statuses(samples, what: str) -> list[str]:
    problems = []
    for s in samples:
        body = _decode(s)
        if s.status != 200 or body is None:
            problems.append(f"{what}: HTTP {s.status}")
        elif body.get("how") == "degraded":
            problems.append(f"{what}: degraded {body.get('fingerprint')}")
    return problems


def check_submits(samples, stream) -> list[str]:
    """Fresh submits: right fingerprint, never degraded, and for exact
    and composed certificates the profile the oracle computes."""
    from repro import api

    problems = []
    for s in samples:
        body = _decode(s)
        if s.status != 200 or body is None:
            continue  # counted as failed by the caller
        _cls, w = stream[s.index % len(stream)]
        dag = api.dag_from_dict(w)
        profile = body["profile"]
        if body["how"] != "search":
            problems.append(f"submit {s.index}: how={body['how']}")
        elif body["fingerprint"] != dag.fingerprint():
            problems.append(f"submit {s.index}: wrong fingerprint")
        elif len(profile) != len(dag) + 1:
            problems.append(f"submit {s.index}: profile length")
        elif body["kind"] in ("exact", "composed"):
            ceiling = _ceiling(dag)
            if body["ic_optimal"]:
                if profile != ceiling:
                    problems.append(f"submit {s.index}: profile is not "
                                    f"the max-eligibility profile")
            else:
                loss = max(m - e for e, m in zip(profile, ceiling))
                if body["bounds"] != [loss, loss]:
                    problems.append(f"submit {s.index}: none-exists "
                                    f"bounds {body['bounds']} != {loss}")
    return problems


def check_anytime(wires) -> list[str]:
    """Anytime bounds must bracket the true eligibility loss."""
    from repro import api

    problems = []
    for w in wires:
        dag = api.dag_from_dict(w)
        res = api.schedule(dag, strategy="anytime", budget=ANYTIME_BUDGET,
                           cache=False)
        ceiling = _ceiling(dag)
        loss = max(m - e for e, m in zip(res.profile, ceiling))
        lower, upper = res.bounds
        if not lower <= loss <= upper:
            problems.append(f"anytime {w['name']}: bounds ({lower}, "
                            f"{upper}) miss the loss {loss}")
    return problems


def check_simulates(samples, requests, by_fp: dict, seed: int) -> list[str]:
    """A seeded sample of simulate responses must equal an in-process
    ``api.simulate`` with the same arguments."""
    from repro import api

    ok = [s for s in samples if s.status == 200]
    rng = random.Random(f"check-simulate:{seed}")
    problems = []
    for s in rng.sample(ok, min(SIMULATE_SAMPLE, len(ok))):
        req = requests[s.index % len(requests)]
        body = json.loads(s.body)
        dag = api.dag_from_dict(by_fp[req["fingerprint"]])
        local = api.simulate(dag, policy=req["policy"],
                             machine=req["machine"],
                             clients=req["clients"], seed=req["seed"])
        for name in _SIM_FIELDS:
            if body[name] != getattr(local, name):
                problems.append(f"simulate {s.index}: {name} "
                                f"{body[name]!r} != {getattr(local, name)!r}")
                break
    return problems


def _without(payload: dict, key: str) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != key},
                      sort_keys=True)


def check_resubmits(samples, before: dict) -> list[str]:
    """Every post-restart resubmit answers ``cached`` with the same
    certificate it was served before the restart."""
    problems = []
    for s in samples:
        body = _decode(s)
        if s.status != 200 or body is None:
            continue
        old = before.get(body["fingerprint"])
        if body["how"] != "cached":
            problems.append(f"resubmit {s.index}: how={body['how']}")
        elif old is None or _without(body, "how") != _without(old[0], "how"):
            problems.append(f"resubmit {s.index}: response differs "
                            f"from before the restart")
    return problems


def check_schedules(port: int, before: dict, threads: int) -> list[str]:
    """``GET /v1/schedules/{fp}`` after the restart serves the schedule
    byte for byte as before it (the volatile hit count aside)."""
    from client import get_all

    fps = list(before)
    fetched = get_all(port, [f"/v1/schedules/{fp}" for fp in fps], threads)
    problems = []
    for fp, (status, new) in zip(fps, fetched):
        old = before[fp][1]
        if status != 200:
            problems.append(f"schedule {fp[:12]}: HTTP {status}")
        elif _without(json.loads(new), "hits") != \
                _without(json.loads(old), "hits"):
            problems.append(f"schedule {fp[:12]}: differs after restart")
    return problems


def check_sweep(dags, results, sweep) -> list[str]:
    """library-sweep, over :func:`workloads.summarize` tuples: verify
    agrees with every certified schedule, every grid cell ran every
    policy, and a seeded sample matches the oracle and reproduces its
    grid exactly."""
    problems = []
    for i, (bounds, ic_optimal, _profile, complete, _rows) in \
            enumerate(results):
        if bounds == (0, 0) and not ic_optimal:
            problems.append(f"sweep {i}: certified schedule fails verify")
        if not complete:
            problems.append(f"sweep {i}: incomplete compare grid")
    rng = random.Random(len(results))
    for i in rng.sample(range(len(results)), min(SWEEP_SAMPLE,
                                                   len(results))):
        _bounds, ic_optimal, profile, _complete, rows = results[i]
        if ic_optimal and profile != _ceiling(dags[i]):
            problems.append(f"sweep {i}: profile is not the "
                            f"max-eligibility profile")
        if sweep(dags[i])[4] != rows:
            problems.append(f"sweep {i}: compare grid not reproducible")
    return problems
