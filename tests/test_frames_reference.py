"""Differential test: frame capture against the frozen eager store.

:class:`repro.obs.observatory.FrameStore` keeps the run's completion
order and builds the sorted executed/eligible/blocked partition only
when a frame is read.  Every frame it serves — through ``since``,
``latest`` and ``recent`` — must serialize to the same bytes as the
frame :class:`tests.frames_reference.EagerFrameStore` captured eagerly
in the same run, on random dags under every machine, fault plan and
policy, with a ring small enough to wrap.  A second test reads frames
on another thread while simulations record them.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro import api
from repro.core.dag import ComputationDag
from repro.obs import MetricsRegistry, set_global_registry
from repro.obs.flightrecorder import (
    FlightRecorder,
    set_global_flight_recorder,
)
from repro.obs.observatory import FrameStore, set_global_frame_store
from repro.sim import ClientSpec

from .frames_reference import EagerFrameStore

MACHINES = ("ideal", "bsp", "memcap", "hetero")
FAULTS = (None, "blackout", "flaky")
POLICIES = ("IC-OPT", "FIFO", "CRITPATH")
#: small, so most runs wrap the ring
FRAMES_PER_DAG = 16
DAGS_PER_CELL = 3
#: keeps IC-OPT's certification of random dags quick (a search past
#: it falls back to a heuristic schedule)
STATE_BUDGET = 20_000


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    """A fresh registry, and flight-recorder dumps (quarantines in
    fault runs trigger them) kept under ``tmp_path``."""
    old_reg = set_global_registry(MetricsRegistry())
    old_rec = set_global_flight_recorder(
        FlightRecorder(str(tmp_path / "dumps")))
    yield
    set_global_flight_recorder(old_rec)
    set_global_registry(old_reg)


def random_dag(rng: random.Random, n: int, name: str) -> ComputationDag:
    """A random low→high dag of ``n`` nodes, each with up to three
    parents among the earlier nodes; labels are strings or ints."""
    names = ([f"t{i}" for i in range(n)] if rng.random() < 0.5
             else list(range(n)))
    arcs = {(names[p], names[i]) for i in range(1, n)
            for p in rng.sample(range(i), min(i, rng.randint(0, 3)))}
    return ComputationDag(nodes=names, arcs=sorted(arcs, key=str),
                          name=name)


def cases():
    """Every machine × fault plan × policy cell over random 2–40 node
    dags, plus a few 50–300 node dags."""
    rng = random.Random(2007)
    out = []
    for machine in MACHINES:
        for fault in FAULTS:
            for policy in POLICIES:
                for _ in range(DAGS_PER_CELL):
                    out.append((random_dag(rng, rng.randint(2, 40),
                                           f"rand{len(out)}"),
                                machine, fault, policy, rng))
    for n, machine, fault, policy in ((50, "bsp", None, "IC-OPT"),
                                      (120, "memcap", "flaky", "FIFO"),
                                      (300, "hetero", "blackout",
                                       "CRITPATH"),
                                      (300, "ideal", None, "IC-OPT")):
        out.append((random_dag(rng, n, f"big{n}"), machine, fault,
                    policy, rng))
    return out


def _simulate(store, dag, kwargs):
    old = set_global_frame_store(store)
    try:
        api.simulate(dag, **kwargs)
    finally:
        set_global_frame_store(old)
    return store.get(dag.fingerprint())


def _wire(payloads) -> str:
    return json.dumps(payloads)


def test_lazy_frames_match_eager_reference():
    mismatched = []
    wrapped = with_events = with_optimal = with_replicas = 0
    for dag, machine, fault, policy, rng in cases():
        n_clients = rng.randint(2, 6)
        clients = [ClientSpec(speed=rng.uniform(0.5, 2.0),
                              loss=rng.choice((0.0, 0.0, 0.2)))
                   for _ in range(n_clients)]
        kwargs = dict(policy=policy, clients=clients,
                      seed=rng.randrange(1000), machine=machine,
                      state_budget=STATE_BUDGET)
        if fault is not None:
            kwargs.update(
                fault_plan=api.FaultPlan.parse(fault, n_clients=n_clients),
                server_policy=api.ServerPolicy())
        ref_store = EagerFrameStore(FRAMES_PER_DAG)
        ref = _simulate(ref_store, dag, kwargs)
        live_store = FrameStore(frames_per_dag=FRAMES_PER_DAG)
        live_store.enable()
        live = _simulate(live_store, dag, kwargs)

        expected = [f.to_payload() for f in ref.frames]
        cursor = max(0, ref.seq - 5)
        reads = {
            "since(0)": ([f.to_payload() for f in live.since(0)],
                         expected),
            "frames": ([f.to_payload() for f in live.frames], expected),
            "latest": (live.latest().to_payload(), expected[-1]),
            "since(cursor)": (
                [f.to_payload() for f in live.since(cursor)],
                [p for p in expected if p["seq"] > cursor]),
            "recent": (live_store.recent(4), ref_store.recent(4)),
            "seq/dropped": ((live.seq, live.dropped),
                            (ref.seq, ref.dropped)),
            "describe": (live.describe()["done"], expected[-1]["done"]),
        }
        mismatched += [f"{dag.name} {read}"
                       for read, (got, want) in reads.items()
                       if _wire(got) != _wire(want)]
        # both stores read the kernel's completion list: the last frame
        # must still show every task executed
        if len(expected[-1]["executed"]) != len(dag):
            mismatched.append(f"{dag.name} (unfinished)")
        wrapped += ref.dropped > 0
        with_events += any(p["events"] for p in expected)
        with_optimal += any(p["optimal"] is not None for p in expected)
        # a fault server's replica of a done task keeps it eligible
        with_replicas += any(set(p["executed"]) & set(p["eligible"])
                             for p in expected)
    assert not mismatched, f"lazy frames diverged on {mismatched}"
    # the cases must exercise ring wraparound, fault events, replicas
    # and the certified-ceiling lookup, not just clean runs
    assert wrapped >= 60
    assert with_events >= 20
    assert with_optimal >= 30
    assert with_replicas >= 5


def test_frames_read_while_recording_partition_the_dag():
    dag = random_dag(random.Random(7), 200, "concurrent")
    labels = {str(v) for v in dag.nodes}
    store = FrameStore(frames_per_dag=64)
    store.enable()
    old = set_global_frame_store(store)
    stop = threading.Event()
    reads = []
    broken = []

    def reader():
        while not stop.is_set():
            ch = store.get(dag.fingerprint())
            if ch is None:
                continue
            with store._lock:
                frames = ch.since(0)
            for f in frames:
                parts = (f.executed, f.eligible, f.blocked)
                if (sum(map(len, parts)) != len(labels)
                        or set().union(*parts) != labels):
                    broken.append(f.seq)
            reads.append(len(frames))

    def simulator(seed: int):
        for run in range(4):
            api.simulate(dag, policy="FIFO", clients=4,
                         seed=seed * 10 + run)

    # more threads than cores, switching often, so reads land while
    # a simulation appends to the completion list they slice
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader)
    sims = [threading.Thread(target=simulator, args=(s,))
            for s in (1, 2)]
    try:
        thread.start()
        for t in sims:
            t.start()
        for t in sims:
            t.join(timeout=60)
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
        set_global_frame_store(old)
    assert not any(t.is_alive() for t in (thread, *sims))
    assert store.get(dag.fingerprint()).seq > 64
    assert len(reads) > 1 and sum(reads) > 0
    assert not broken, f"frames {broken[:10]} do not partition the dag"
