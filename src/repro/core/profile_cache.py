"""The certificate store: content-addressed memoization of eligibility
ceilings and IC-optimality certificates, for whole dags and
composition blocks alike.

The exhaustive searches in :mod:`repro.core.optimality` are the
dominant cost of certification, yet the *same* structure is certified
over and over: every benchmark rebuilds the same family/size, the sim
server schedules the same workload dags per policy, and Theorem 2.1
assembles thousands of composed dags from a handful of distinct
blocks.  Because :meth:`~repro.core.dag.ComputationDag.fingerprint` is
content-addressed (structure only — not identity, name, or insertion
order), one bounded LRU table turns every repeat into an O(1) lookup.

Entries are keyed by ``(fingerprint, kind)``; the kind keeps the paths
apart, so no lookup is answered from an entry another path stored:

* ``"profile"`` — a whole dag's max-eligibility profile
  ``[M(0), ..., M(|N|)]`` (:meth:`ProfileCache.max_profile`);
* ``"schedule"`` — a whole dag's IC-optimal schedule, or the fact that
  none exists (:meth:`ProfileCache.find_schedule`);
* ``"block"`` — a composition block's certificate
  (:meth:`ProfileCache.certify_block`).

Certificate entries (``schedule``, ``block``) hold the profile and the
schedule's node order, with nodes encoded as indices into the dag's
nodes sorted by ``repr`` — process-stable and JSON-safe whatever the
label types.  Every hit *re-validates* what it can: the order is
replayed against the requesting dag instance and its profile checked
against the stored one (a block's attached schedule is checked against
the stored profile instead), so a stale, corrupted or colliding entry
degrades to a fresh search.  Dags whose node reprs collide cannot be
encoded and bypass the store (certified directly).

With a ``path`` the store is loaded from that JSON file on
construction (when it exists) and every new entry is written through
(:func:`repro.fsio.atomic_write_json`: temp → fsync → rename →
fsync-dir).  Only certificates that carry an order travel through the
file: a whole-dag profile or a none-exists fact has nothing to replay,
so it could not be checked without the search it stands for, and stays
in memory.  Loading is tolerant: a corrupt file or malformed entry (an
order that is ``null``, a ``profile`` kind) is skipped and counted
(``profile_cache_load_skipped_total``), never raised.  What replay
cannot check is that a stored profile is the ceiling, so the file is
trusted to hold profiles this store computed: a pair of order and
profile forged to agree would be believed.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from ..exceptions import ScheduleError
from ..fsio import atomic_write_json
from ..obs import global_registry
from .dag import ComputationDag
from .optimality import DEFAULT_STATE_BUDGET, max_eligibility_profile
from .schedule import Schedule

__all__ = [
    "CacheStats",
    "ProfileCache",
    "global_profile_cache",
    "set_global_profile_cache",
]

#: entry kinds, part of every key; the file holds the certificate kinds.
KINDS = ("profile", "schedule", "block")
_FILE_KINDS = ("schedule", "block")

#: store file format version (bumped on incompatible change).
_FILE_VERSION = 2

#: :func:`_replay` verdict for an entry that does not replay on the
#: requesting dag (``None`` already means "no IC-optimal schedule").
_INVALID = object()


def _lookup_counter(kind: str, result: str):
    """The lookup counter child of ``(kind, result)``, resolved from the
    *current* global registry at call time (so benchmarks that install
    a fresh registry capture store traffic too).  Block lookups keep
    their own series."""
    registry = global_registry()
    if kind == "block":
        return registry.counter(
            "certify_block_cache_lookups_total",
            "certificate-store lookups of composition blocks",
            ("result",),
        ).labels(result)
    return registry.counter(
        "profile_cache_lookups_total",
        "certificate-store lookups of whole dags", ("kind", "result"),
    ).labels(kind, result)


def _size_gauge():
    return global_registry().gauge(
        "profile_cache_size", "entries held by the certificate store",
    )


def _load_skip_counter():
    return global_registry().counter(
        "profile_cache_load_skipped_total",
        "corrupt or malformed certificate-store files/entries "
        "discarded on load",
    )


def _canonical_nodes(dag: ComputationDag) -> list | None:
    """The store's canonical node order: sorted by ``repr`` — stable
    across processes (unlike ``hash``) and exactly the order the
    fingerprint hashes.  ``None`` when reprs collide (the encoding
    would be ambiguous; such dags bypass the store)."""
    nodes = sorted(dag.nodes, key=repr)
    if len({repr(v) for v in nodes}) != len(nodes):
        return None
    return nodes


def _replay(dag, canonical, entry, name):
    """The schedule ``entry`` holds, rebuilt against ``dag`` and checked
    against the stored profile: a :class:`Schedule`, ``None`` (none
    exists), or :data:`_INVALID` when the entry does not replay."""
    profile, order = entry
    if order is None:
        return None
    if len(order) != len(canonical) or \
            any(not (0 <= i < len(canonical)) for i in order):
        return _INVALID
    try:
        sched = Schedule(dag, [canonical[i] for i in order], name=name)
    except ScheduleError:
        return _INVALID
    return sched if sched.profile == list(profile) else _INVALID


def _search_block(block, attached, state_budget):
    """Certify ``block`` from scratch: ``(schedule, source, profile)``.
    ``attached`` is returned only when its profile attains the
    ceiling."""
    from .optimality import find_ic_optimal_schedule

    profile = max_eligibility_profile(block, state_budget)
    if attached is not None and attached.profile == profile:
        return attached, "attached-verified", profile
    sched = find_ic_optimal_schedule(
        block, state_budget, name=f"lib({block.name})",
        max_profile=profile,
    )
    return sched, "searched", profile


def _is_ints(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ProfileCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ProfileCache:
    """The certificate store: a bounded LRU table of certification
    results keyed by ``(fingerprint, kind)``.

    Parameters
    ----------
    maxsize:
        Maximum number of entries, all kinds together; least recently
        *used* entries are evicted first.
    path:
        Optional JSON file.  Loaded (tolerantly) on construction when
        it exists; every new entry is written through (certificates
        with an order only, see the module docstring).
    """

    def __init__(self, maxsize: int = 4096,
                 path: str | Path | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.path = Path(path) if path is not None else None
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._stats = CacheStats()
        # threads share a store (service workers share the global one):
        # the table, the counters and the file change under this lock
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (the backing file,
        if any, is left untouched until the next write-through)."""
        with self._lock:
            self._entries.clear()
            self._stats = CacheStats()
        _size_gauge().set(0)

    # -- observability -------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups answered from the store."""
        return self._stats.hits

    @property
    def misses(self) -> int:
        """Lookups that had to search."""
        return self._stats.misses

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound."""
        return self._stats.evictions

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        return self._stats.hit_rate

    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters (safe to keep around;
        it does not track later lookups)."""
        return replace(self._stats)

    def _count(self, kind: str, result: str) -> None:
        with self._lock:
            if result == "hit":
                self._stats.hits += 1
            elif result == "miss":
                self._stats.misses += 1
        _lookup_counter(kind, result).inc()

    def _lookup(self, key: tuple[str, str]):
        """The entry under ``key`` (LRU-touched), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        return entry

    def _put(self, key: tuple[str, str], value, save: bool = True) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
                global_registry().counter(
                    "profile_cache_evictions_total",
                    "certificate-store entries dropped by the LRU bound",
                ).inc()
            size = len(self._entries)
            if save and self.path is not None:
                self._save()
        _size_gauge().set(size)

    # -- persistence ---------------------------------------------------
    def _save(self) -> None:
        entries = [
            {"fingerprint": fp, "kind": kind, "profile": profile,
             "order": order}
            for (fp, kind), (profile, order) in self._entries.items()
            if order is not None
        ]
        atomic_write_json(str(self.path), {
            "version": _FILE_VERSION, "entries": entries,
        }, indent=1)

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            _load_skip_counter().inc()
            return
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, list) or \
                data.get("version") != _FILE_VERSION:
            _load_skip_counter().inc()
            return
        skipped = 0
        for item in entries:
            fields = item if isinstance(item, dict) else {}
            fp, kind = fields.get("fingerprint"), fields.get("kind")
            profile, order = fields.get("profile"), fields.get("order")
            if not isinstance(fp, str) or kind not in _FILE_KINDS or \
                    not _is_ints(profile) or not _is_ints(order):
                skipped += 1
                continue
            self._put((fp, kind), (tuple(profile), tuple(order)),
                      save=False)
        if skipped:
            _load_skip_counter().inc(skipped)

    # ------------------------------------------------------------------
    def max_profile(
        self,
        dag: ComputationDag,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ) -> list[int]:
        """``max_eligibility_profile(dag, ...)``, memoized.

        A hit returns a copy of the stored profile (callers may mutate
        their list freely).  On a miss the profile is computed and
        stored.
        """
        key = (dag.fingerprint(), "profile")
        entry = self._lookup(key)
        if entry is not None and len(entry[0]) == len(dag) + 1:
            self._count("profile", "hit")
            return list(entry[0])
        self._count("profile", "miss")
        profile = max_eligibility_profile(dag, state_budget)
        self._put(key, (tuple(profile), None))
        return profile

    def find_schedule(
        self,
        dag: ComputationDag,
        state_budget: int = DEFAULT_STATE_BUDGET,
        name: str = "ic-optimal",
    ) -> Schedule | None:
        """``find_ic_optimal_schedule(dag, ...)``, memoized.

        The stored value is the node *order* (plus the none-exists
        fact); a hit rebuilds — and thereby re-validates — a
        :class:`Schedule` against the requesting dag instance.
        """
        from .optimality import find_ic_optimal_schedule

        canonical = _canonical_nodes(dag)
        if canonical is None:
            self._count("schedule", "bypass")
            return find_ic_optimal_schedule(dag, state_budget, name)
        key = (dag.fingerprint(), "schedule")
        entry = self._lookup(key)
        if entry is not None and len(entry[0]) == len(dag) + 1:
            sched = _replay(dag, canonical, entry, name)
            if sched is not _INVALID:
                self._count("schedule", "hit")
                return sched
        self._count("schedule", "miss")
        profile = self.max_profile(dag, state_budget)
        sched = find_ic_optimal_schedule(
            dag, state_budget, name, max_profile=profile,
        )
        self._put(key, (tuple(profile), _encode(sched, canonical)))
        return sched

    def certify_block(
        self,
        block: ComputationDag,
        attached: Schedule | None = None,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ) -> tuple[Schedule | None, str]:
        """A composition block's IC-optimal schedule plus its
        provenance source.

        Returns ``(schedule, source)`` with ``source`` one of
        ``"attached-verified"``, ``"cache-hit"`` or ``"searched"``
        (blocks whose reprs collide are certified directly, never
        ``"cache-hit"``).  ``schedule`` is ``None`` when the block
        provably admits no IC-optimal schedule (a fact kept in memory
        only).

        ``attached`` is a *claimed* IC-optimal schedule (e.g. carried
        by a family-built chain): it is returned only after its profile
        matches the certified ceiling, so an invalid claim costs a
        search instead of poisoning the composite certificate.
        """
        canonical = _canonical_nodes(block)
        if canonical is None:
            self._count("block", "bypass")
            return _search_block(block, attached, state_budget)[:2]
        key = (block.fingerprint(), "block")
        entry = self._lookup(key)
        if entry is not None and len(entry[0]) == len(block) + 1:
            if attached is not None and attached.profile == list(entry[0]):
                self._count("block", "hit")
                return attached, "attached-verified"
            sched = _replay(block, canonical, entry, f"lib({block.name})")
            if sched is not _INVALID:
                self._count("block", "hit")
                return sched, "cache-hit"
        self._count("block", "miss")
        sched, source, profile = _search_block(block, attached, state_budget)
        self._put(key, (tuple(profile), _encode(sched, canonical)))
        return sched, source


def _encode(sched: Schedule | None, canonical: list):
    """``sched``'s order as indices into ``canonical`` (``None`` when
    no IC-optimal schedule exists)."""
    if sched is None:
        return None
    index = {v: i for i, v in enumerate(canonical)}
    return tuple(index[v] for v in sched.order)


#: the process-wide store used by ``schedule_dag``, ``certify`` and the
#: sim server unless a caller supplies (or disables) its own.
_GLOBAL_CACHE = ProfileCache()


def global_profile_cache() -> ProfileCache:
    """The process-wide certificate store."""
    return _GLOBAL_CACHE


def set_global_profile_cache(cache: ProfileCache) -> ProfileCache:
    """Replace the process-wide store; returns the old one.

    Useful for isolating measurements (benchmarks install a fresh
    store so hit rates describe only their own workload).
    """
    global _GLOBAL_CACHE
    old = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return old
