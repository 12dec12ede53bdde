"""The live schedule observatory (`repro.obs.observatory`): frame
capture semantics (ring-buffer wraparound, `?since=` cursors, the
executed/eligible/blocked partition), the shared HTTP routes on both
servers, the SSE events stream, and the SVG frame renderer.
"""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.families.mesh import out_mesh_chain
from repro.obs import MetricsRegistry, ObsServer, set_global_registry
from repro.obs.observatory import (
    FrameStore,
    global_frame_store,
    graph_payload,
    render_frame_svg,
    set_global_frame_store,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def store(registry):
    fresh = FrameStore()
    old = set_global_frame_store(fresh)
    fresh.enable()
    yield fresh
    set_global_frame_store(old)


@pytest.fixture
def mesh():
    return out_mesh_chain(3).dag


def _record_n(store, dag, n, clients=2):
    """Record ``n`` synthetic frames walking the topological order."""
    ch = store.channel(dag, clients=clients, policy="FIFO")
    order = [str(v) for v in dag.topological_order()]
    for i in range(n):
        done = min(i, len(order))
        store.record(
            ch,
            step=i + 1,
            t=float(i),
            executed=[v for v in dag.nodes if str(v) in order[:done]],
            eligible=[],
            occupancy=[None] * clients,
            done=done == len(order),
        )
    return ch


def _get(url):
    try:
        resp = urllib.request.urlopen(url, timeout=5)
        return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read().decode()


class TestFrameStore:
    def test_record_partitions_the_dag(self, store, mesh):
        ch = store.channel(mesh)
        nodes = list(mesh.nodes)
        store.record(
            ch, step=1, t=0.5,
            executed=nodes[:2], eligible=nodes[2:4],
            occupancy=[nodes[2], None],
        )
        frame = ch.latest()
        assert frame.seq == 1
        every = set(frame.executed) | set(frame.eligible) | set(
            frame.blocked)
        assert every == {str(v) for v in nodes}
        assert not set(frame.executed) & set(frame.blocked)
        assert frame.occupancy == (str(nodes[2]), None)

    def test_disabled_store_records_nothing_via_simulator(
            self, store, mesh):
        store.disable()
        api.simulate(mesh, policy="FIFO", clients=2)
        assert store.get(mesh.fingerprint()) is None

    def test_ring_wraparound_keeps_newest_and_counts_dropped(
            self, registry, mesh):
        small = FrameStore(frames_per_dag=4)
        ch = _record_n(small, mesh, 10)
        assert ch.seq == 10
        assert [f.seq for f in ch.frames] == [7, 8, 9, 10]
        assert ch.dropped == 6

    def test_since_cursor_semantics(self, registry, mesh):
        small = FrameStore(frames_per_dag=4)
        ch = _record_n(small, mesh, 10)
        # in-window cursor: strictly-newer frames only
        assert [f.seq for f in ch.since(8)] == [9, 10]
        # cursor at/past the head: nothing
        assert ch.since(10) == []
        assert ch.since(99) == []
        # cursor behind the ring tail: everything retained (the gap
        # shows as dropped/seq discontinuity, not an error)
        assert [f.seq for f in ch.since(2)] == [7, 8, 9, 10]
        assert [f.seq for f in ch.since(0)] == [7, 8, 9, 10]

    def test_channel_lru_eviction(self, registry):
        tiny = FrameStore(max_dags=2)
        dags = [out_mesh_chain(d).dag for d in (2, 3, 4)]
        for dag in dags:
            tiny.channel(dag)
        assert tiny.get(dags[0].fingerprint()) is None
        assert tiny.get(dags[1].fingerprint()) is not None
        assert tiny.get(dags[2].fingerprint()) is not None

    def test_set_profile_attaches_optimal(self, store, mesh):
        profile = api.schedule(mesh).profile
        store.set_profile(mesh, profile)
        ch = store.channel(mesh)
        nodes = list(mesh.topological_order())
        store.record(ch, step=1, t=0.0, executed=nodes[:3],
                     eligible=[], occupancy=[])
        assert ch.latest().optimal == profile[3]

    def test_global_seq_spans_channels(self, store):
        a, b = out_mesh_chain(2).dag, out_mesh_chain(3).dag
        _record_n(store, a, 3)
        _record_n(store, b, 2)
        assert store.seq == 5
        assert store.latest_seqs() == {
            a.fingerprint(): 3, b.fingerprint(): 2}

    def test_wait_returns_immediately_when_ahead(self, store, mesh):
        _record_n(store, mesh, 2)
        assert store.wait(0, timeout=5.0) == 2

    def test_simulator_integration_captures_run(self, store, mesh):
        result = api.simulate(mesh, clients=3, seed=0)
        ch = store.get(mesh.fingerprint())
        assert ch is not None
        last = ch.latest()
        assert last.done
        assert len(last.executed) == len(mesh) == result.completed
        assert last.eligible == () and last.blocked == ()
        # the certification path attached the profile, so frames
        # carry the certified ceiling
        assert last.optimal is not None

    def test_fault_engine_integration_captures_events(self, store, mesh):
        plan = api.FaultPlan.parse("crash:0@1", n_clients=3)
        api.simulate(mesh, clients=3, seed=0,
                     server_policy=api.ServerPolicy(), fault_plan=plan)
        ch = store.get(mesh.fingerprint())
        assert ch is not None and ch.latest().done
        kinds = {e["kind"] for f in ch.frames for e in f.events}
        assert "crash" in kinds


class TestKernelFrames:
    """Every simulation path — ideal, machine and fault — publishes
    through the kernel's one frame publisher."""

    @pytest.mark.parametrize("machine", ["ideal", "memcap:cap=2",
                                         "bsp:g=1,L=2"])
    def test_machine_runs_record_frames_and_gauges(self, registry, store,
                                                   mesh, machine):
        res = api.simulate(mesh, policy="FIFO", clients=3, seed=0,
                           machine=machine)
        ch = store.get(mesh.fingerprint())
        assert ch is not None and ch.latest().done
        # one frame per processed event plus the initial allocation
        assert ch.seq == registry.value("sim_steps_total") + 1
        assert [f.step for f in ch.frames] == list(range(1, ch.seq + 1))
        assert registry.value("sim_completed") == res.completed
        assert registry.value("sim_allocatable") == 0
        assert registry.value("sim_eligible") == 0

    def test_crashed_clients_read_idle_in_frames(self, registry, store):
        from repro.families.butterfly_net import butterfly_dag

        dag = butterfly_dag(4)
        plan = api.FaultPlan.scenario("blackout", n_clients=6, seed=0)
        api.simulate(dag, policy="CRITPATH", clients=6, seed=1,
                     fault_plan=plan)
        ch = store.get(dag.fingerprint())
        crashed_at = {ev.client: ev.time for ev in plan.events
                      if ev.kind == "crash"}
        assert sorted(crashed_at) == [1, 2, 3, 4, 5]
        last = ch.latest()
        assert last.done
        assert last.t == pytest.approx(28.781629, abs=1e-6)
        assert all(last.occupancy[c] is None for c in crashed_at)
        for frame in ch.frames:
            for cid, t in crashed_at.items():
                if frame.t >= t:
                    assert frame.occupancy[cid] is None, (frame.seq, cid)


class TestGraphPayload:
    def test_levels_are_longest_path_depths(self, mesh):
        g = graph_payload(mesh)
        assert g["n"] == len(mesh)
        assert sum(len(lv) for lv in g["levels"]) == len(mesh)
        depth = {name: d for d, lv in enumerate(g["levels"])
                 for name in lv}
        for u, v in g["arcs"]:
            assert depth[v] > depth[u]


class TestHTTPRoutes:
    @pytest.fixture
    def server(self, store):
        with ObsServer() as srv:
            yield srv

    def test_ui_is_self_contained_html(self, server):
        status, headers, body = _get(server.url + "/ui")
        assert status == 200
        assert headers["Content-Type"] == "text/html; charset=utf-8"
        assert headers["Cache-Control"] == "no-store"
        assert "</html>" in body
        assert "https://" not in body  # no CDN / external assets
        assert "EventSource" in body  # push-driven, not polling
        assert "setInterval" not in body

    def test_frames_index(self, server, store, mesh):
        _record_n(store, mesh, 3)
        status, _h, body = _get(server.url + "/v1/frames")
        payload = json.loads(body)
        assert status == 200 and payload["enabled"] is True
        assert payload["dags"][mesh.fingerprint()]["latest"] == 3

    def test_frame_latest_and_catchup(self, server, store, mesh):
        _record_n(store, mesh, 5)
        fp = mesh.fingerprint()
        status, _h, body = _get(server.url + f"/v1/dags/{fp}/frame")
        doc = json.loads(body)
        assert status == 200 and doc["latest"] == 5
        assert doc["frame"]["seq"] == 5
        assert doc["frame"]["eligible_count"] == len(
            doc["frame"]["eligible"])
        _s, _h, body = _get(
            server.url + f"/v1/dags/{fp}/frames?since=3")
        frames = json.loads(body)["frames"]
        assert [f["seq"] for f in frames] == [4, 5]

    def test_graph_route_carries_profile(self, server, store, mesh):
        store.set_profile(mesh, [1, 2, 3])
        _record_n(store, mesh, 1)
        fp = mesh.fingerprint()
        _s, _h, body = _get(server.url + f"/v1/dags/{fp}/graph")
        g = json.loads(body)
        assert g["profile"] == [1, 2, 3]
        assert g["fingerprint"] == fp and g["levels"]

    def test_unknown_fingerprint_404(self, server, store):
        status, _h, body = _get(
            server.url + "/v1/dags/feedface/frame")
        assert status == 404
        assert "feedface" in json.loads(body)["error"]

    def test_bad_since_400(self, server, store, mesh):
        _record_n(store, mesh, 1)
        fp = mesh.fingerprint()
        status, _h, _b = _get(
            server.url + f"/v1/dags/{fp}/frames?since=potato")
        assert status == 400

    def test_events_stream_delivers_delta(self, server, store, mesh):
        _record_n(store, mesh, 2)
        with urllib.request.urlopen(
                server.url + "/v1/events?timeout=0.2",
                timeout=5) as resp:
            assert resp.headers["Content-Type"] == (
                "text/event-stream; charset=utf-8")
            stream = resp.read().decode()
        assert "event: frames" in stream
        datum = next(ln for ln in stream.splitlines()
                     if ln.startswith("data: "))
        msg = json.loads(datum[len("data: "):])
        assert msg["seq"] == 2
        assert msg["dags"] == {mesh.fingerprint(): 2}
        assert "stats" in msg

    def test_events_cursor_suppresses_old_frames(self, server, store,
                                                 mesh):
        _record_n(store, mesh, 2)
        with urllib.request.urlopen(
                server.url + "/v1/events?since=2&timeout=0.2",
                timeout=5) as resp:
            stream = resp.read().decode()
        # nothing new past the cursor: only heartbeat ticks
        assert "event: frames" not in stream
        assert "event: tick" in stream

    def test_observatory_endpoints_listed_on_404(self, server, store):
        _s, _h, body = _get(server.url + "/nope")
        endpoints = json.loads(body)["endpoints"]
        assert "/ui" in endpoints
        assert "/v1/events" in endpoints


class TestRenderFrameSvg:
    def test_renders_partition_and_sparkline(self, store, mesh):
        api.simulate(mesh, clients=2, seed=0)
        ch = store.get(mesh.fingerprint())
        frames = list(ch.frames)
        mid = frames[len(frames) // 2]
        svg = render_frame_svg(
            ch.graph, mid.to_payload(),
            achieved=[len(f.eligible) for f in frames],
            profile=ch.profile,
        )
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "M(t)" in svg and "E(t)" in svg
        assert "executed" in svg and "blocked" in svg  # legend

    def test_escapes_hostile_names(self):
        graph = {"name": 'x<&>"y', "n": 1, "nodes": ["<a>"],
                 "arcs": [], "levels": [["<a>"]]}
        svg = render_frame_svg(graph, None)
        assert "<a>" not in svg
        assert "&lt;a&gt;" in svg

    def test_empty_frame_renders_unexecuted_dag(self, mesh):
        svg = render_frame_svg(graph_payload(mesh), None)
        assert svg.startswith("<svg")
        assert svg.count("<circle") >= len(mesh)

    def test_observe_snapshot_reproduces_committed_svg(self, tmp_path):
        """``repro observe --snapshot`` in a fresh interpreter writes
        ``docs/observatory.svg`` byte for byte."""
        root = os.path.join(os.path.dirname(__file__), "..")
        out = tmp_path / "observatory.svg"
        subprocess.run(
            [sys.executable, "-m", "repro", "observe", "--snapshot",
             str(out), "--family", "mesh", "--param", "4",
             "--clients", "3"],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, check=True, timeout=120,
        )
        with open(os.path.join(root, "docs", "observatory.svg"),
                  "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestServiceKnob:
    def test_service_enables_frames_on_start(self, registry):
        from repro.service import SchedulingService

        old = set_global_frame_store(FrameStore())
        try:
            with SchedulingService():
                assert global_frame_store().enabled is True
        finally:
            set_global_frame_store(old)

    def test_no_frames_knob_keeps_capture_off(self, registry):
        from repro.service import SchedulingService

        old = set_global_frame_store(FrameStore())
        try:
            with SchedulingService(frames=False):
                assert global_frame_store().enabled is False
        finally:
            set_global_frame_store(old)
