"""Tests of the benchmark's own code.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from proc import metric_sum, parse_prometheus  # noqa: E402


# -- generator determinism ---------------------------------------------
@pytest.mark.parametrize("make", [
    lambda seed: gen.submit_stream(seed, 300),
    gen.hot_set,
    lambda seed: gen.sweep_corpus(seed, 100),
    lambda seed: gen.simulate_requests(seed, ["a", "b", "c"], 200),
])
def test_same_seed_same_inputs(make):
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


def test_submit_stream_is_distinct_and_mixed():
    stream = gen.submit_stream(3, 1000)
    keys = {gen.structure_key(w) for _, w in stream}
    assert len(keys) == len(stream)
    classes = {cls for cls, _ in stream}
    assert classes == {"composed", "exact", "heuristic"}
    for cls, w in stream:
        if cls == "heuristic":
            assert gen.nonsinks(w) > gen.EXHAUSTIVE_LIMIT
        else:
            assert gen.nonsinks(w) <= gen.EXHAUSTIVE_LIMIT


def test_hot_set_sizes():
    for seed in range(5):
        hot = gen.hot_set(seed)
        assert 16 <= len(hot) <= 32
        assert all(50 <= w["n"] <= 300 for w in hot)


def test_generated_dags_certify_as_their_class():
    from repro import api

    for cls, w in gen.submit_stream(11, 60):
        assert api.schedule(api.dag_from_dict(w)).kind == cls, w["name"]


# -- the percentile rule -------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([5.0], 0.99) == 5.0


@pytest.mark.parametrize("n,enough", [(999, False), (1000, True),
                                      (1001, True), (100, False)])
def test_p99_needs_ten_samples_beyond(n, enough):
    assert (run.beyond(n, 0.99) >= run.TAIL_BEYOND) is enough
    assert run.beyond(run.MIN_SAMPLES, run.TAIL_Q) >= run.TAIL_BEYOND


def test_end_to_end_flags_a_short_tail():
    class Out:
        latencies = [0.001] * 500
        setup = [1.0, 2.0, 3.0]
        ops, wall, rss_mb = 500, 10.0, 50.0

    values, problems = run.end_to_end(Out)
    assert problems and values["setup_s"] == 2.0
    Out.latencies = [0.001] * 1000
    assert run.end_to_end(Out)[1] == []


# -- self-time arithmetic ------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(-5, 20)]) == 10


def test_self_times_subtract_children():
    tree = [
        (1, "root", 0.0, 10.0, None, "r", None),
        (2, "a", 1.0, 4.0, 1, "r", None),
        (3, "b", 2.0, 3.0, 2, "r", None),
        (4, "c", 3.5, 6.0, 1, "r", None),  # overlaps a
    ]
    own = spans.self_times(tree)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.5}


def test_self_table_reconciles_with_end_to_end():
    tree = [
        (1, "http", 0.0, 8.0, None, "r1", None),
        (2, "work", 1.0, 6.0, 1, "r1", {"n": 2}),
        (3, "http", 20.0, 21.0, None, "r2", None),
        (4, "other", 30.0, 31.0, None, "ignored", None),
    ]
    table = spans.self_table(tree, {"r1": 10.0, "r2": 1.5})
    assert table["rows"]["http"] == {"calls": 2, "self_s": 4.0}
    assert table["rows"]["work"] == {"calls": 1, "self_s": 5.0}
    assert "other" not in table["rows"]
    assert table["counts"] == {"work.n": 2}
    covered = sum(r["self_s"] for r in table["rows"].values())
    assert covered + table["unattributed_s"] == table["e2e_s"] == 11.5
    assert table["worst_overrun_s"] == -0.5


def _http_samples(count, total):
    route = (("route", "/v1/dags"), ("status", "200"))
    return {("service_request_seconds_count", route): count,
            ("service_request_seconds_sum", route): total}


def test_clock_check_passes_when_spans_match_the_service():
    tree = [
        (1, "http.submit", 0.0, 0.010, None, "r1", None),
        (2, "certify", 0.001, 0.009, 1, "r1", None),
        (3, "http.submit", 1.0, 1.020, None, "r2", None),
        (4, "http.other", 2.0, 2.5, None, "scrape", None),
    ]
    e2e = {"r1": 0.05, "r2": 0.06}
    problems, summary = layers.check_clock("submit-cold", tree, e2e, [],
                                           _http_samples(2, 0.0301))
    assert problems == [] and summary.startswith("2 http.submit spans")


@pytest.mark.parametrize("count,total", [(2, 0.040), (5, 0.075), (0, 0.0)])
def test_clock_check_fails_when_spans_and_service_disagree(count, total):
    tree = [(1, "http.submit", 0.0, 0.010, None, "r1", None),
            (3, "http.submit", 1.0, 1.020, None, "r2", None)]
    problems, _ = layers.check_clock("restart-replay", tree,
                                     {"r1": 0.05, "r2": 0.06}, [],
                                     _http_samples(count, total))
    assert problems and problems[0].startswith("reconciliation")


def test_clock_check_in_process_uses_per_call_timings():
    tree = [
        (1, "op", 0.0, 1.0, None, "pb-0", None),
        (2, "api.verify", 0.0, 0.2, 1, "pb-0", None),
        (3, "api.compare", 0.3, 0.9, 1, "pb-0", None),
        (4, "api.verify", 0.4, 0.5, 3, "pb-0", None),  # nested: skipped
    ]

    def problems(latencies):
        return layers.check_clock("library-sweep", tree, {"pb-0": 1.0},
                                  latencies, {})[0]

    assert problems([0.2001, 0.6001]) == []
    assert problems([0.2001, 0.9])
    assert problems([0.2001])


def test_recorder_parents_and_request_ids():
    import threading

    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        def outer(self, x):
            return Box.inner(x) * 2

    rec = spans.Recorder()
    sites = [("outer", __name__, "Box", "outer"),
             ("inner", __name__, "Box", "inner")]
    globals()["Box"] = Box
    rec.install(sites)
    try:
        with rec.root("op-1"):
            assert Box().outer(1) == 4
        t = threading.Thread(target=lambda: Box.inner(0))
        t.start()
        t.join()
    finally:
        rec.uninstall()
    assert Box.outer.__name__ == "outer" and Box().outer(1) == 4
    (op,) = [sp for sp in rec.spans if sp[1] == "op"]
    (outer,) = [sp for sp in rec.spans if sp[1] == "outer"]
    nested, threaded = [sp for sp in rec.spans if sp[1] == "inner"]
    assert outer[4] == op[0] and nested[4] == outer[0]
    assert op[5] == outer[5] == nested[5] == "op-1"
    # another thread, outside any root: no parent, no request
    assert threaded[4] is None and threaded[5] is None


# -- telemetry parsing ---------------------------------------------------
def test_parse_prometheus_and_sum():
    text = (
        "# HELP x help\n# TYPE x counter\n"
        'x_total{result="hit"} 3\n'
        'x_total{result="miss"} 1.5\n'
        'h_seconds_sum{route="/v1/dags",phase="certify"} 0.25 # {} 1\n'
        "plain 7\n"
    )
    samples = parse_prometheus(text)
    assert metric_sum(samples, "x_total") == 4.5
    assert metric_sum(samples, "x_total", result="hit") == 3
    assert metric_sum(samples, "h_seconds_sum", phase="certify") == 0.25
    assert metric_sum(samples, "plain") == 7


# -- the benchmark's declaration ----------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert set(layers.EXPECTED) == set(workloads.WORKLOADS)

