"""Content-addressed memoization of eligibility ceilings and
IC-optimality certificates.

The exhaustive searches in :mod:`repro.core.optimality` are the
dominant cost of certification, yet the *same* dag structure is
certified over and over: every benchmark rebuilds the same
family/size, the sim server schedules the same workload dags per
policy, and tests re-verify catalog blocks.  Because
:meth:`~repro.core.dag.ComputationDag.fingerprint` is content-
addressed (structure only — not identity, name, or insertion order),
one bounded LRU map turns every repeat certification into an O(1)
lookup.

Two result kinds are cached per fingerprint:

* the **max-eligibility profile** ``[M(0), ..., M(|N|)]``;
* the **certificate**: the node order of the found IC-optimal
  schedule, or the fact that none exists.

Cached entries are exactly the sequential search's outputs, so cache
hits are byte-identical to cold runs.  A schedule is re-validated
against the *requesting* dag instance on every hit (``Schedule``
construction replays the order), so a fingerprint collision — or a
label set that coincides across semantically different uses — cannot
smuggle in an invalid order.

Entries record nothing about the ``state_budget`` they were computed
under: a search that *completed* within any budget is correct under
every budget, and failed searches are never cached.

The cache can optionally round-trip through a JSON file
(:meth:`ProfileCache.save` / :meth:`ProfileCache.load`, both built on
the power-loss-safe :func:`repro.fsio.atomic_write_json`), so a
service restart or deploy starts warm instead of re-running every
search.  Persistence is strictly best-effort: corrupt files or
entries are skipped and counted
(``profile_cache_load_skipped_total``), never raised, and a loaded
schedule order is still re-validated against the requesting dag on
every hit exactly like an in-process entry.  Only entries with
JSON-native node labels (ints/strings, e.g. every dag that arrived
over the service wire format) are persisted — exotic labels stay
in-memory-only rather than round-tripping lossily.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, replace

from ..fsio import atomic_write_json
from ..obs import global_registry
from .dag import ComputationDag, Node
from .optimality import DEFAULT_STATE_BUDGET, max_eligibility_profile
from .schedule import Schedule

__all__ = [
    "CacheStats",
    "ProfileCache",
    "global_profile_cache",
    "set_global_profile_cache",
]

#: sentinel distinguishing "no IC-optimal schedule exists" (a cachable
#: fact) from "not cached".
_NO_SCHEDULE = object()


def _lookup_counter():
    """The shared cache-lookup counter, resolved from the *current*
    global registry at call time (so benchmarks that install a fresh
    registry capture cache traffic too)."""
    return global_registry().counter(
        "profile_cache_lookups_total",
        "certification cache lookups", ("kind", "result"),
    )


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
    """A bounded LRU cache of certification results, keyed by dag
    fingerprint.

    Parameters
    ----------
    maxsize:
        Maximum number of (fingerprint, kind) entries; least recently
        *used* entries are evicted first.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._stats = CacheStats()

    # -- observability -------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._stats.hits

    @property
    def misses(self) -> int:
        """Lookups that had to run the exhaustive search."""
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

    def _get(self, key: tuple[str, str]):
        kind = key[1]
        try:
            value = self._entries[key]
        except KeyError:
            self._stats.misses += 1
            _lookup_counter().labels(kind, "miss").inc()
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        _lookup_counter().labels(kind, "hit").inc()
        return value

    def _put(self, key: tuple[str, str], value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
            global_registry().counter(
                "profile_cache_evictions_total",
                "certification cache entries dropped by the LRU bound",
            ).inc()

    # -- persistence ---------------------------------------------------
    _FILE_VERSION = 1

    def save(self, path: str) -> int:
        """Persist every JSON-representable entry to ``path``
        (atomic, fsync'd); returns how many were written.

        Profile entries always persist; schedule entries persist only
        when every node label is an int or str (lossless round-trip).
        """
        entries = []
        for (fp, kind), value in self._entries.items():
            if value is _NO_SCHEDULE:
                entries.append({"fingerprint": fp, "kind": kind,
                                "none_exists": True})
                continue
            seq = list(value)  # tuple of ints (profile) or labels
            if kind == "schedule" and not all(
                isinstance(x, (int, str)) for x in seq
            ):
                continue
            entries.append({"fingerprint": fp, "kind": kind,
                            "value": seq})
        atomic_write_json(path, {
            "version": self._FILE_VERSION,
            "entries": entries,
        })
        return len(entries)

    def load(self, path: str) -> int:
        """Merge entries from ``path`` (written by :meth:`save`);
        returns how many were accepted.  Corrupt files and malformed
        entries are skipped and counted
        (``profile_cache_load_skipped_total``), never raised.
        """
        def skip(n: int = 1) -> None:
            global_registry().counter(
                "profile_cache_load_skipped_total",
                "corrupt or malformed profile-cache files/entries "
                "discarded on load",
            ).inc(n)

        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            skip()
            return 0
        if not isinstance(data, dict) or \
                data.get("version") != self._FILE_VERSION:
            skip()
            return 0
        loaded = skipped = 0
        for entry in data.get("entries", ()):
            if not isinstance(entry, dict):
                skipped += 1
                continue
            fp = entry.get("fingerprint")
            kind = entry.get("kind")
            if not isinstance(fp, str) or kind not in ("profile",
                                                       "schedule"):
                skipped += 1
                continue
            if entry.get("none_exists"):
                if kind != "schedule":
                    skipped += 1
                    continue
                self._put((fp, kind), _NO_SCHEDULE)
                loaded += 1
                continue
            value = entry.get("value")
            if not isinstance(value, list):
                skipped += 1
                continue
            if kind == "profile" and not all(
                isinstance(x, int) and not isinstance(x, bool)
                for x in value
            ):
                skipped += 1
                continue
            if kind == "schedule" and not all(
                isinstance(x, (int, str)) for x in value
            ):
                skipped += 1
                continue
            self._put((fp, kind), tuple(value))
            loaded += 1
        if skipped:
            skip(skipped)
        return loaded

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
        cached = self._get(key)
        if cached is not None:
            return list(cached)
        profile = max_eligibility_profile(dag, state_budget)
        self._put(key, tuple(profile))
        return profile

    def find_schedule(
        self,
        dag: ComputationDag,
        state_budget: int = DEFAULT_STATE_BUDGET,
        name: str = "ic-optimal",
    ) -> Schedule | None:
        """``find_ic_optimal_schedule(dag, ...)``, memoized.

        The cached value is the node *order* (plus the none-exists
        fact); a hit rebuilds — and thereby re-validates — a
        :class:`Schedule` against the requesting dag instance.
        """
        from .optimality import find_ic_optimal_schedule

        key = (dag.fingerprint(), "schedule")
        cached = self._get(key)
        if cached is _NO_SCHEDULE:
            return None
        if cached is not None:
            order: tuple[Node, ...] = cached  # type: ignore[assignment]
            return Schedule(dag, order, name=name)
        sched = find_ic_optimal_schedule(
            dag,
            state_budget,
            name,
            max_profile=self.max_profile(dag, state_budget),
        )
        self._put(key, _NO_SCHEDULE if sched is None else tuple(sched.order))
        return sched


#: process-wide default cache used by ``schedule_dag`` and the sim
#: server unless a caller supplies (or disables) its own.
_GLOBAL_CACHE = ProfileCache()


def global_profile_cache() -> ProfileCache:
    """The process-wide default :class:`ProfileCache`."""
    return _GLOBAL_CACHE


def set_global_profile_cache(cache: ProfileCache) -> ProfileCache:
    """Replace the process-wide default cache; returns the old one.

    Useful for isolating measurements (benchmarks install a fresh
    cache so hit rates describe only their own workload).
    """
    global _GLOBAL_CACHE
    old = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return old
