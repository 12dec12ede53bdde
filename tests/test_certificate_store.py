"""The certificate store (:class:`repro.core.profile_cache.ProfileCache`)
against cold runs.

A store hit must answer exactly what a cold search answers: a private
cold store, the same store warm, a path-backed store reloaded in a
fresh instance, a tampered file and ``cache=False`` all give the same
certificate, kind, profile, schedule order and bounds on the family
catalogue and on seeded random dags, and :func:`repro.api.verify`
measures them against the same ceiling.  ``cache=False`` keeps blocks
out of the store too.
"""

import json
import sys
import threading

import pytest

from repro import api
from repro.blocks import block
from repro.core import ProfileCache, Schedule, set_global_profile_cache
from repro.exceptions import OptimalityError, ScheduleError
from repro.families.mesh import out_mesh_dag
from repro.obs import MetricsRegistry, set_global_registry

from .test_optimality_parallel import RANDOM_CASES, _all_cases, random_dag


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def store():
    """A fresh certificate store installed as the global."""
    fresh = ProfileCache()
    old = set_global_profile_cache(fresh)
    yield fresh
    set_global_profile_cache(old)


def _states(registry) -> float:
    return registry.value("search_states_expanded_total")


def test_block_budget_rule(registry, store):
    # a block search past ``state_budget`` is not stored: the same
    # budget fails again, and once a larger budget has certified the
    # block, its certificate answers at any budget
    dag = out_mesh_dag(6)
    kinds = [api.schedule(dag, state_budget=20, budget=1000).kind]
    with pytest.raises(OptimalityError, match="state budget 20"):
        api.schedule(dag, strategy="compositional", state_budget=20)
    kinds.append(api.schedule(dag).kind)
    expanded = _states(registry)
    kinds.append(api.schedule(dag, state_budget=20).kind)
    assert _states(registry) == expanded
    assert kinds == ["anytime", "composed", "composed"]


def test_cache_false_keeps_blocks_out_of_the_store(registry, store):
    expanded = []
    for _ in range(2):
        before = _states(registry)
        res = api.schedule(out_mesh_dag(5), cache=False)
        assert res.kind == "composed"
        expanded.append(_states(registry) - before)
    assert expanded[0] > 0
    assert expanded[0] == expanded[1]
    assert len(store) == 0


def test_threads_sharing_a_store_lose_no_lookup(registry, tmp_path):
    # more threads than cores over a path-backed store smaller than the
    # working set, so lookups and write-throughs race LRU evictions
    store = ProfileCache(maxsize=8, path=tmp_path / "store.json")
    dags = [block("N", s)[0] for s in range(2, 12)]
    errors = []

    def work():
        try:
            for i in range(100):
                store.max_profile(dags[i % 10])
                store.find_schedule(dags[(i + 3) % 10])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # the registry counts every lookup under its own lock
    lookups = registry.value("profile_cache_lookups_total")
    assert lookups >= 4 * 100 * 2
    assert store.hits + store.misses == lookups
    assert store.evictions == \
        registry.value("profile_cache_evictions_total") > 0
    assert len(store) == 8
    # the file holds the table's certificates, not its profiles
    held = json.loads(store.path.read_text())["entries"]
    assert sorted((e["fingerprint"], e["kind"]) for e in held) == \
        sorted(key for key in store._entries if key[1] != "profile")


# -- differential: store hit vs cold run --------------------------------

DAGS = _all_cases() + [
    (f"rand{seed}", random_dag(seed)) for seed in range(RANDOM_CASES)
]


def _answers(cache) -> list:
    out = []
    for _label, dag in DAGS:
        res = api.verify(dag, cache=cache)
        out.append((res.certificate, res.kind, res.bounds,
                    tuple(res.schedule.order), tuple(res.schedule.profile),
                    res.ratio, res.deficit, res.area))
    return out


@pytest.fixture(scope="module")
def cold_answers():
    return _answers(False)


@pytest.fixture(scope="module")
def stored(tmp_path_factory, cold_answers):
    """A path-backed store filled by one pass over :data:`DAGS`, and
    the number of its entries that hold no order (whole-dag profiles
    and none-exists facts, which the file does not carry)."""
    path = tmp_path_factory.mktemp("store") / "store.json"
    filled = ProfileCache(path=path)
    assert _answers(filled) == cold_answers
    assert filled.misses == len(filled)  # one search per entry
    unordered = len(filled) - len(json.loads(path.read_text())["entries"])
    return path, unordered


def test_cold_and_warm_store_match_uncached(cold_answers):
    store = ProfileCache()
    assert _answers(store) == cold_answers
    misses = store.misses
    assert _answers(store) == cold_answers
    assert store.misses == misses
    assert store.hits > misses


def test_reloaded_store_answers_certificates_from_hits(stored,
                                                       cold_answers):
    path, unordered = stored
    reloaded = ProfileCache(path=path)
    assert len(reloaded) > 0
    assert _answers(reloaded) == cold_answers
    # every certificate the file held answered; only what it does not
    # carry was searched again
    assert reloaded.misses == unordered
    assert reloaded.hits > 0


def _reverse_orders(data):
    for entry in data["entries"]:
        entry["order"].reverse()


def _lengthen_profiles(data):
    for entry in data["entries"]:
        entry["profile"].append(0)


def _raise_profiles(data):
    for entry in data["entries"]:
        entry["profile"] = [m + 1 for m in entry["profile"]]


def _null_orders(data):
    for entry in data["entries"]:
        entry["order"] = None


def _profile_entries(data):
    # a whole-dag profile the file may not carry, raised above the
    # true ceiling
    data["entries"] += [dict(e, kind="profile",
                             profile=[m + 1 for m in e["profile"]])
                        for e in data["entries"] if e["kind"] == "schedule"]


def _worsen_orders(data):
    # swap one adjacent pair of each whole-dag schedule so that it stays
    # a schedule of the dag but loses eligibility: the order replays,
    # only its profile tells it from the certificate
    dags = {dag.fingerprint(): dag for _label, dag in DAGS}
    worsened = 0
    for entry in data["entries"]:
        dag = dags.get(entry["fingerprint"])
        if entry["kind"] != "schedule" or dag is None:
            continue  # a block, or a component of a split dag
        canonical = sorted(dag.nodes, key=repr)
        order = entry["order"]
        for i in range(len(order) - 1):
            swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
            try:
                sched = Schedule(dag, [canonical[j] for j in swapped])
            except ScheduleError:
                continue
            if sched.profile != entry["profile"]:
                entry["order"] = swapped
                worsened += 1
                break
    assert worsened > 0


TAMPER = {"reversed-orders": _reverse_orders,
          "worse-orders": _worsen_orders,
          "profile-length": _lengthen_profiles,
          "profile-values": _raise_profiles,
          "null-orders": _null_orders,
          "profile-entries": _profile_entries}


@pytest.mark.parametrize("tamper", ["bad-json", *TAMPER])
def test_tampered_file_degrades_to_search(tmp_path, stored, cold_answers,
                                          registry, tamper):
    path = tmp_path / "store.json"
    if tamper == "bad-json":
        path.write_text(stored[0].read_text()[:-40])
    else:
        data = json.loads(stored[0].read_text())
        TAMPER[tamper](data)
        path.write_text(json.dumps(data))
    tampered = ProfileCache(path=path)
    assert _answers(tampered) == cold_answers
    skipped = registry.value("profile_cache_load_skipped_total")
    if tamper == "profile-entries":
        # the injected entries are skipped; the certificates still answer
        assert skipped > 0
        assert tampered.misses == stored[1]
    else:
        assert tampered.misses > stored[1]
    if tamper == "bad-json":
        assert skipped == 1
    if tamper == "null-orders":
        assert skipped > 0
