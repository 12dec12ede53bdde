"""Decomposition-first certification: the strategy engine behind
:func:`~repro.core.scheduler.schedule_dag`.

The exhaustive ideal-lattice search of :mod:`repro.core.optimality` is
exact but exponential (``B_3`` already expands ~6.7k states), while
Theorem 2.1 assembles IC-optimal schedules for ⇑-compositions from
their blocks in linear time.  This module puts the theorem first
(``docs/CERTIFICATION.md`` is the playbook):

1. **decompose** — a :class:`~repro.core.composition.CompositionChain`
   is certified directly; a bare dag is factored by
   :func:`~repro.core.recognition.recognize` (or split into weakly
   connected components composed as sum steps);
2. **certify blocks** — each block's IC-optimal schedule comes from the
   content-addressed :class:`BlockCertificateLibrary` (attached
   schedules are *verified* against the library ceiling, never
   trusted), so repeated blocks cost one lattice search per structure
   per process lifetime — or one ever, with a persisted library;
3. **assemble** — the existing Theorem 2.1 machinery
   (:func:`~repro.core.composition.linear_composition_schedule` plus
   the ▷-linear / reordered / segmented checks) builds the composite
   schedule; the per-block provenance is recorded on the result;
4. **residuals** — only dags that resist decomposition fall back to
   the exhaustive lattice search, and only within
   ``exhaustive_limit``/``state_budget``;
5. **anytime** — when a ``budget`` is given and certification cannot
   finish inside it, the result is the best (greedy) schedule found
   together with *sound* lower/upper bounds on its eligibility loss
   (exact ceiling prefix from
   :func:`~repro.core.optimality.partial_max_eligibility_profile`,
   structural tail from
   :func:`~repro.core.optimality.eligibility_upper_bound`);
6. **heuristic** — the unbounded greedy fallback still exists, but it
   is *stamped*: every result carries its certificate kind
   (``exact`` / ``composed`` / ``anytime`` / ``heuristic``), and every
   request increments ``search_strategy_total{strategy,certificate}``.

Nothing here changes *what* a certificate means — a composed
certificate's eligibility profile is byte-identical to the exhaustive
search's (both attain ``M(t)`` pointwise; only the witness order may
differ).  What changes is the cost of producing it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import OptimalityError, ScheduleError
from ..fsio import atomic_write_json
from ..obs import global_registry, span
from .composition import BlockRecord, CompositionChain, linear_composition_schedule
from .dag import ComputationDag
from .optimality import (
    eligibility_upper_bound,
    find_ic_optimal_schedule,
    max_eligibility_profile,
    partial_max_eligibility_profile,
)
from .profile_cache import ProfileCache, global_profile_cache
from .recognition import recognize
from .schedule import Schedule
from .scheduler import Certificate, SchedulingResult, greedy_schedule

__all__ = [
    "STRATEGIES",
    "BlockProvenance",
    "BlockCertificateLibrary",
    "global_block_library",
    "set_global_block_library",
    "certify",
]

#: the recognized certification strategies, in fallback order.
STRATEGIES = ("auto", "compositional", "exhaustive", "anytime", "heuristic")

#: library file format version (bumped on incompatible change).
_LIBRARY_VERSION = 1


@dataclass(frozen=True)
class BlockProvenance:
    """How one block of a composed certificate was certified.

    Attributes
    ----------
    block:
        The block dag's name (``V_2``, ``W_3``, a component label...).
    fingerprint:
        The block's content-addressed structure fingerprint
        (:meth:`~repro.core.dag.ComputationDag.fingerprint`).
    source:
        * ``"attached-verified"`` — the chain carried a block schedule
          and it was verified against the certified ceiling;
        * ``"cache-hit"`` — rebuilt from the block-certificate library;
        * ``"searched"`` — certified by a fresh lattice search;
        * ``"composed"`` — the block is itself a composed component
          (component-split path).
    """

    block: str
    fingerprint: str
    source: str


def _lookup_counter():
    return global_registry().counter(
        "certify_block_cache_lookups_total",
        "block-certificate library lookups", ("result",),
    )


def _load_skip_counter():
    return global_registry().counter(
        "certify_block_cache_load_skipped_total",
        "corrupt or malformed block-certificate library files/entries "
        "discarded on load",
    )


def _size_gauge():
    return global_registry().gauge(
        "certify_block_cache_size",
        "entries held by the block-certificate library",
    )


def _canonical_nodes(block: ComputationDag) -> list | None:
    """The library's canonical node order: sorted by ``repr`` — stable
    across processes (unlike ``hash``) and exactly the order the
    fingerprint hashes.  ``None`` when reprs collide (the encoding
    would be ambiguous; such blocks bypass the library)."""
    nodes = sorted(block.nodes, key=repr)
    if len({repr(v) for v in nodes}) != len(nodes):
        return None
    return nodes


class BlockCertificateLibrary:
    """Content-addressed memo of *block* certificates, optionally
    persisted to disk.

    Where :class:`~repro.core.profile_cache.ProfileCache` memoizes
    whole-dag search results within a process, this library memoizes
    the building blocks of composed certificates — keyed by the same
    structure fingerprint — and can round-trip them through a JSON
    file, so block certification is deterministic *across* processes.

    Each entry stores the block's max-eligibility profile and the node
    order of its IC-optimal schedule (or the fact that none exists),
    with nodes encoded as indices into the canonical sorted-by-``repr``
    node order — process-stable and JSON-safe regardless of label
    types.  A hit *re-validates*: the order is replayed against the
    requesting block instance and its profile checked against the
    stored ceiling, so a stale or corrupted file degrades to a fresh
    search, never to a wrong certificate.

    Parameters
    ----------
    path:
        Optional JSON file.  Loaded (tolerantly) on construction when
        it exists; every new entry is written through.
    maxsize:
        LRU bound on in-memory entries.
    """

    def __init__(self, path: str | Path | None = None,
                 maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.path = Path(path) if path is not None else None
        self.maxsize = maxsize
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        if self.path is not None and self.path.exists():
            self.load()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (the backing file,
        if any, is left untouched until the next write-through)."""
        self._entries.clear()
        self.hits = self.misses = self.bypasses = 0
        _size_gauge().set(0)

    # -- persistence ---------------------------------------------------
    def load(self) -> int:
        """(Re)load entries from :attr:`path`; returns how many were
        accepted.  Malformed files or entries are skipped and counted
        (``certify_block_cache_load_skipped_total``), never raised —
        the library is a cache, correctness never depends on it."""
        if self.path is None:
            return 0
        skipped = 0
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            _load_skip_counter().inc()
            return 0
        if not isinstance(data, dict) or \
                data.get("version") != _LIBRARY_VERSION:
            _load_skip_counter().inc()
            return 0
        loaded = 0
        for fp, entry in data.get("blocks", {}).items():
            if not isinstance(entry, dict):
                skipped += 1
                continue
            profile = entry.get("profile")
            order = entry.get("order")
            if not isinstance(profile, list) or \
                    not all(isinstance(x, int) for x in profile):
                skipped += 1
                continue
            if order is not None and (
                not isinstance(order, list)
                or not all(isinstance(x, int) for x in order)
            ):
                skipped += 1
                continue
            self._entries[str(fp)] = {
                "name": str(entry.get("name", "")),
                "profile": profile,
                "order": order,
            }
            loaded += 1
        if skipped:
            _load_skip_counter().inc(skipped)
        _size_gauge().set(len(self._entries))
        return loaded

    def save(self) -> None:
        """Write every entry to :attr:`path` (power-loss-safe atomic
        replace: temp → fsync → rename → fsync-dir, via
        :func:`repro.fsio.atomic_write_json`)."""
        if self.path is None:
            return
        payload = {
            "version": _LIBRARY_VERSION,
            "blocks": dict(self._entries),
        }
        atomic_write_json(str(self.path), payload, indent=1)

    def _put(self, fingerprint: str, entry: dict) -> None:
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        _size_gauge().set(len(self._entries))
        self.save()

    # ------------------------------------------------------------------
    def certify_block(
        self,
        block: ComputationDag,
        attached: Schedule | None = None,
        state_budget: int = 500_000,
    ) -> tuple[Schedule | None, str]:
        """The block's IC-optimal schedule plus its provenance source.

        Returns ``(schedule, source)`` with ``source`` one of the
        :class:`BlockProvenance` values (``"bypass"`` never escapes —
        repr-colliding blocks are certified directly and reported as
        ``"attached-verified"`` / ``"searched"``).  ``schedule`` is
        ``None`` when the block provably admits no IC-optimal schedule
        (a cachable fact).

        ``attached`` is a *claimed* IC-optimal schedule (e.g. carried
        by a family-built chain): it is returned only after its profile
        matches the certified ceiling, so an invalid claim costs a
        search instead of poisoning the composite certificate.
        """
        canonical = _canonical_nodes(block)
        if canonical is None:
            self.bypasses += 1
            _lookup_counter().labels("bypass").inc()
            return self._certify_direct(block, attached, state_budget)
        fp = block.fingerprint()
        entry = self._entries.get(fp)
        if entry is not None:
            rebuilt = self._from_entry(block, canonical, entry, attached)
            if rebuilt is not None:
                self.hits += 1
                self._entries.move_to_end(fp)
                _lookup_counter().labels("hit").inc()
                return rebuilt
            # stored entry does not replay on this block (corrupt or
            # colliding file): recompute and overwrite.
        self.misses += 1
        _lookup_counter().labels("miss").inc()
        sched, source, profile = self._certify_with_profile(
            block, attached, state_budget
        )
        index = {v: i for i, v in enumerate(canonical)}
        self._put(fp, {
            "name": block.name,
            "profile": [int(x) for x in profile],
            "order": None if sched is None
            else [index[v] for v in sched.order],
        })
        return sched, source

    # ------------------------------------------------------------------
    def _from_entry(self, block, canonical, entry, attached):
        profile = entry["profile"]
        if len(profile) != len(block) + 1:
            return None
        if attached is not None and list(attached.profile) == profile:
            return attached, "attached-verified"
        if entry["order"] is None:
            return None, "cache-hit"
        order_idx = entry["order"]
        if len(order_idx) != len(canonical) or \
                any(not (0 <= i < len(canonical)) for i in order_idx):
            return None
        try:
            sched = Schedule(
                block, [canonical[i] for i in order_idx],
                name=f"lib({block.name})",
            )
        except ScheduleError:
            return None
        if list(sched.profile) != profile:
            return None
        return sched, "cache-hit"

    @staticmethod
    def _certify_with_profile(block, attached, state_budget):
        profile = max_eligibility_profile(block, state_budget)
        if attached is not None and \
                list(attached.profile) == list(profile):
            return attached, "attached-verified", profile
        sched = find_ic_optimal_schedule(
            block, state_budget, name=f"lib({block.name})",
            max_profile=profile,
        )
        return sched, "searched", profile

    def _certify_direct(self, block, attached, state_budget):
        sched, source, _profile = self._certify_with_profile(
            block, attached, state_budget
        )
        return sched, source


#: process-wide default library used by ``certify`` unless a caller
#: supplies (or disables) its own.  In-memory by default; install a
#: path-backed one with :func:`set_global_block_library` to persist
#: block certificates across processes.
_GLOBAL_LIBRARY = BlockCertificateLibrary()


def global_block_library() -> BlockCertificateLibrary:
    """The process-wide default :class:`BlockCertificateLibrary`."""
    return _GLOBAL_LIBRARY


def set_global_block_library(
    library: BlockCertificateLibrary,
) -> BlockCertificateLibrary:
    """Replace the process-wide default library; returns the old one."""
    global _GLOBAL_LIBRARY
    old = _GLOBAL_LIBRARY
    _GLOBAL_LIBRARY = library
    return old


# ----------------------------------------------------------------------
# strategy engine
# ----------------------------------------------------------------------


def certify(
    target: ComputationDag | CompositionChain,
    *,
    strategy: str = "auto",
    budget: int | None = None,
    exhaustive_limit: int = 24,
    state_budget: int = 500_000,
    cache: ProfileCache | bool = True,
    library: BlockCertificateLibrary | bool = True,
) -> SchedulingResult:
    """Certify a schedule for ``target`` under the chosen strategy.

    This is the engine behind
    :func:`~repro.core.scheduler.schedule_dag` (which documents every
    option); call it directly to pass a private
    :class:`BlockCertificateLibrary`.  Strategies:

    * ``"auto"`` — decomposition first (chain / recognized family /
      component split; a block whose search passes ``state_budget``
      counts as not decomposing), exhaustive on residuals within
      ``exhaustive_limit``/``state_budget``, then anytime when a
      ``budget`` was given, else the stamped greedy heuristic;
    * ``"compositional"`` — decomposition only; raises
      :class:`~repro.exceptions.OptimalityError` when ``target`` does
      not decompose into certified blocks;
    * ``"exhaustive"`` — monolithic lattice search regardless of
      ``exhaustive_limit`` (``state_budget`` still applies and
      overruns raise);
    * ``"anytime"`` — budgeted certification: always returns a
      schedule with sound eligibility-loss bounds (uses ``budget``,
      falling back to ``state_budget`` when ``None``);
    * ``"heuristic"`` — the greedy schedule, stamped as such.

    Every call increments
    ``search_strategy_total{strategy,certificate}``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    cache_ = global_profile_cache() if cache is True else (
        cache if isinstance(cache, ProfileCache) else None
    )
    lib = global_block_library() if library is True else (
        library if isinstance(library, BlockCertificateLibrary) else None
    )
    chain = target if isinstance(target, CompositionChain) else None
    dag = target.dag if chain is not None else target
    with span("certify", dag=dag.name, strategy=strategy):
        result = _dispatch(
            strategy, chain, dag, budget, exhaustive_limit,
            state_budget, cache_, lib,
        )
    result.strategy = strategy
    global_registry().counter(
        "search_strategy_total",
        "certification requests by strategy and certificate granted",
        ("strategy", "certificate"),
    ).labels(strategy, result.certificate.value).inc()
    return result


def _dispatch(strategy, chain, dag, budget, exhaustive_limit,
              state_budget, cache, lib):
    if strategy == "heuristic":
        return _heuristic(dag)
    if strategy == "anytime":
        return _anytime(
            dag, budget if budget is not None else state_budget
        )
    if strategy == "exhaustive":
        return _exhaustive(dag, state_budget, cache)
    if strategy == "compositional":
        res = _decompose(chain, dag, lib, exhaustive_limit,
                         state_budget, cache)
        if res is None:
            raise OptimalityError(
                f"dag {dag.name!r} does not decompose into certified "
                "blocks (no ▷-chain found); use strategy='auto' to "
                "fall back to exhaustive search"
            )
        return res

    # auto: decompose, then exhaustive residual, then anytime/greedy.
    # A block search past ``state_budget`` means "did not decompose"
    # here, so the ladder below still runs.
    try:
        res = _decompose(chain, dag, lib, exhaustive_limit, state_budget,
                         cache)
    except OptimalityError:
        res = None
    if res is not None:
        return res
    if _nonsinks(dag) <= exhaustive_limit:
        try:
            return _exhaustive(dag, state_budget, cache)
        except OptimalityError:
            pass
    if budget is not None:
        return _anytime(dag, budget)
    return _heuristic(dag)


def _nonsinks(dag: ComputationDag) -> int:
    return sum(1 for v in dag.nodes if not dag.is_sink(v))


# -- decomposition -----------------------------------------------------


def _decompose(chain, dag, lib, exhaustive_limit, state_budget, cache):
    """The compositional certification attempt: explicit chain, then
    family recognition, then component split.  ``None`` when no
    decomposition certifies."""
    if chain is not None:
        res = _try_chain(chain, lib, state_budget)
        if res is not None:
            return res
    recognized = recognize(dag)
    if recognized is not None and (chain is None
                                   or recognized is not chain):
        res = _try_chain(recognized, lib, state_budget)
        if res is not None:
            return res
    return _component_split(dag, lib, exhaustive_limit, state_budget,
                            cache)


def _resolve_chain(chain, lib, state_budget):
    """Certify every block of ``chain`` (through the library when one
    is installed); returns ``(resolved_chain, provenance)`` or
    ``(None, ())`` when some block admits no IC-optimal schedule."""
    records: list[BlockRecord] = []
    provenance: list[BlockProvenance] = []
    for rec in chain.blocks:
        if lib is not None:
            sched, source = lib.certify_block(
                rec.block, rec.schedule, state_budget
            )
        else:
            sched, source, _profile = \
                BlockCertificateLibrary._certify_with_profile(
                    rec.block, rec.schedule, state_budget
                )
        if sched is None:
            return None, ()
        records.append(BlockRecord(
            block=rec.block, schedule=sched, node_map=rec.node_map,
        ))
        provenance.append(BlockProvenance(
            block=rec.block.name,
            fingerprint=rec.block.fingerprint(),
            source=source,
        ))
    resolved = object.__new__(CompositionChain)
    resolved.name = chain.name
    resolved.dag = chain.dag
    resolved.blocks = records
    return resolved, tuple(provenance)


def _try_chain(chain, lib, state_budget, provenance=None):
    """Certify a chain via Theorem 2.1 at the strongest level that
    holds: ▷-linear, ▷-linear after priority reordering, segmented,
    reordered segmented.  ``None`` when none does.

    When ``provenance`` is ``None`` the blocks are first resolved
    through the library; otherwise the chain's attached schedules are
    taken as already certified (component-split path)."""
    if provenance is None:
        chain, provenance = _resolve_chain(chain, lib, state_budget)
        if chain is None:
            return None
    # each certification level is checked once; the builder is then
    # invoked unchecked to avoid recomputing block profiles.
    candidates = (chain, chain.priority_reordered())
    for cand in candidates:
        if cand.is_priority_linear():
            sched = linear_composition_schedule(
                cand, require_priority_chain=False
            )
            return SchedulingResult(
                sched, Certificate.COMPOSITION, bounds=(0, 0),
                provenance=provenance,
            )
    for cand in candidates:
        if cand.segmented_priority_linear():
            sched = linear_composition_schedule(
                cand, require_priority_chain=False
            )
            return SchedulingResult(
                sched, Certificate.SEGMENTED, bounds=(0, 0),
                provenance=provenance,
            )
    return None


def _component_split(dag, lib, exhaustive_limit, state_budget, cache):
    """Certify a disconnected dag as the ⇑-sum of its weakly connected
    components (Section 2.3.1 allows an empty merge set), each
    component certified recursively (recognition, then exhaustive).

    The ▷-chain over components is checked by the ordinary chain
    machinery — an order-free certificate does not exist for sums (the
    7-node none-exists example *is* such a sum), so failure here
    correctly falls through to the monolithic search."""
    comps = dag.connected_components()
    if len(comps) < 2:
        return None
    blocks = []
    for i, comp in enumerate(comps):
        sub = dag.induced_subdag(comp, name=f"{dag.name}/c{i}")
        res = _certify_component(sub, lib, exhaustive_limit,
                                 state_budget, cache)
        if res is None or not res.ic_optimal:
            return None
        blocks.append((sub, res))
    first_sub, first_res = blocks[0]
    chain = CompositionChain(
        first_sub, first_res.schedule,
        name=f"{dag.name}:components",
        labels={v: v for v in first_sub.nodes},
    )
    for sub, res in blocks[1:]:
        chain.compose_with(
            sub, res.schedule, merge_pairs=[],
            labels={v: v for v in sub.nodes},
        )
    provenance = tuple(
        BlockProvenance(
            block=sub.name,
            fingerprint=sub.fingerprint(),
            source="composed" if res.kind == "composed" else "searched",
        )
        for sub, res in blocks
    )
    res = _try_chain(chain, lib, state_budget, provenance=provenance)
    if res is None:
        return None
    # the component schedules certify the *composite* dag: rebuild the
    # order against it so downstream consumers see one dag instance.
    order = [v for v in res.schedule.order]
    sched = Schedule(dag, order, name=f"thm2.1({dag.name})")
    return SchedulingResult(
        sched, res.certificate, bounds=(0, 0),
        provenance=res.provenance,
    )


def _certify_component(sub, lib, exhaustive_limit, state_budget,
                       cache):
    """One component's certification: recognition, then exhaustive —
    no further component split (components are connected) and no
    unbounded fallbacks (a block must be certified or the split
    fails)."""
    recognized = recognize(sub)
    if recognized is not None:
        res = _try_chain(recognized, lib, state_budget)
        if res is not None:
            return res
    if _nonsinks(sub) <= exhaustive_limit:
        try:
            return _exhaustive(sub, state_budget, cache)
        except OptimalityError:
            return None
    return None


# -- monolithic strategies ---------------------------------------------


def _exhaustive(dag, state_budget, cache):
    """The classic path: exact ceiling + lattice search.  Returns
    ``EXHAUSTIVE`` (IC-optimal) or ``NONE_EXISTS`` (greedy schedule
    with its *exact* loss as a degenerate bounds interval); raises
    :class:`OptimalityError` past ``state_budget``."""
    if cache is not None:
        profile = cache.max_profile(dag, state_budget)
        sched = cache.find_schedule(dag, state_budget)
    else:
        profile = max_eligibility_profile(dag, state_budget)
        sched = find_ic_optimal_schedule(
            dag, state_budget, max_profile=profile,
        )
    if sched is not None:
        return SchedulingResult(
            sched, Certificate.EXHAUSTIVE, bounds=(0, 0)
        )
    fallback = greedy_schedule(dag)
    loss = max(m - e for e, m in zip(fallback.profile, profile))
    return SchedulingResult(
        fallback, Certificate.NONE_EXISTS, bounds=(loss, loss)
    )


def _anytime(dag, anytime_budget):
    """Budgeted certification with sound loss bounds.

    The returned greedy schedule's true eligibility loss
    ``L = max_t (M(t) - E(t))`` is bracketed by

    * *lower*: the max over the exactly enumerated ceiling prefix
      (level-synchronous BFS: completed levels are exact);
    * *upper*: the max against the structural pointwise bound
      ``U(t) >= M(t)`` beyond the prefix.

    When the whole lattice fits in the budget the interval collapses
    to the exact loss — ``(0, 0)`` then certifies IC-optimality (see
    :attr:`~repro.core.scheduler.SchedulingResult.ic_optimal`)."""
    if anytime_budget < 1:
        raise ValueError(
            f"anytime budget must be >= 1, got {anytime_budget}"
        )
    prefix, complete = partial_max_eligibility_profile(
        dag, anytime_budget
    )
    sched = greedy_schedule(dag, name="anytime")
    prof = sched.profile
    if complete:
        loss = max(m - e for e, m in zip(prof, prefix))
        bounds = (loss, loss)
    else:
        lower = max(
            (m - e for e, m in zip(prof, prefix)), default=0
        )
        lower = max(0, lower)
        estimate = list(prefix) + \
            eligibility_upper_bound(dag)[len(prefix):]
        upper = max(m - e for e, m in zip(prof, estimate))
        bounds = (lower, max(lower, upper))
    return SchedulingResult(sched, Certificate.ANYTIME, bounds=bounds)


def _heuristic(dag):
    """The greedy fallback — stamped, never silent."""
    return SchedulingResult(
        greedy_schedule(dag), Certificate.HEURISTIC, bounds=None
    )
