"""The computation-dag substrate.

A *computation-dag* (Section 2.1 of the paper) is a directed acyclic
graph in which each node represents a task and each arc ``(u -> v)``
records that task ``v`` cannot be executed before task ``u``.

:class:`ComputationDag` is the single graph type used throughout the
library.  It is deliberately small and deterministic:

* nodes are arbitrary hashable labels;
* parent/child sets preserve insertion order (Python dicts), so every
  derived iteration order — sources, sinks, topological orders,
  schedules — is reproducible run to run;
* all mutation goes through :meth:`add_node` / :meth:`add_arc`, which
  maintain the parent/child indices and reject cycles lazily via
  :meth:`validate`.

``networkx`` is intentionally *not* the backing store; it is available
through :meth:`to_networkx` / :meth:`from_networkx` for interop, VF2
recognition (:mod:`repro.core.recognition`) and independent
cross-checks in the test-suite, and is imported only when one of those
methods runs.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Callable

from ..exceptions import CycleError, DagStructureError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Node", "Arc", "ComputationDag"]

Node = Hashable
Arc = tuple[Node, Node]


class ComputationDag:
    """A directed acyclic graph modelling a computation.

    Parameters
    ----------
    nodes:
        Optional iterable of initial node labels.
    arcs:
        Optional iterable of ``(parent, child)`` pairs.  Endpoints not
        already present are added automatically.
    name:
        Human-readable identifier used in ``repr`` and reports.

    Notes
    -----
    Acyclicity is enforced by :meth:`validate`, which is invoked by the
    scheduling layers before any execution-order computation.  Callers
    building dags incrementally may insert arcs freely and validate
    once at the end.
    """

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        arcs: Iterable[Arc] = (),
        name: str = "dag",
    ) -> None:
        self.name = name
        # node -> insertion-ordered dict-as-set of children / parents.
        self._children: dict[Node, dict[Node, None]] = {}
        self._parents: dict[Node, dict[Node, None]] = {}
        # mutation counter; invalidates the memoized fingerprint.
        self._version: int = 0
        self._fp_cache: tuple[int, str] | None = None
        for v in nodes:
            self.add_node(v)
        for u, v in arcs:
            self.add_arc(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> Node:
        """Insert node ``v``; inserting an existing node is a no-op."""
        if v not in self._children:
            self._children[v] = {}
            self._parents[v] = {}
            self._version += 1
        return v

    def add_arc(self, u: Node, v: Node) -> Arc:
        """Insert arc ``(u -> v)``, adding endpoints as needed.

        Self-loops are rejected immediately (they are 1-cycles); longer
        cycles are caught by :meth:`validate`.
        """
        if u == v:
            raise CycleError(f"self-loop on node {u!r} is not acyclic")
        self.add_node(u)
        self.add_node(v)
        self._children[u][v] = None
        self._parents[v][u] = None
        self._version += 1
        return (u, v)

    def add_arcs(self, arcs: Iterable[Arc]) -> None:
        """Insert every arc in ``arcs``."""
        for u, v in arcs:
            self.add_arc(u, v)

    def remove_node(self, v: Node) -> None:
        """Remove node ``v`` and every arc incident to it."""
        self._require(v)
        for c in list(self._children[v]):
            del self._parents[c][v]
        for p in list(self._parents[v]):
            del self._children[p][v]
        del self._children[v]
        del self._parents[v]
        self._version += 1

    def remove_arc(self, u: Node, v: Node) -> None:
        """Remove arc ``(u -> v)``; it must exist."""
        self._require(u)
        self._require(v)
        if v not in self._children[u]:
            raise DagStructureError(f"arc ({u!r} -> {v!r}) does not exist")
        del self._children[u][v]
        del self._parents[v][u]
        self._version += 1

    def _require(self, v: Node) -> None:
        if v not in self._children:
            raise DagStructureError(f"node {v!r} is not in dag {self.name!r}")

    # ------------------------------------------------------------------
    # basic queries (Section 2.1 vocabulary)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._children)

    @property
    def arcs(self) -> list[Arc]:
        """All arcs ``(parent, child)``, in insertion order."""
        return [(u, v) for u, cs in self._children.items() for v in cs]

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, v: object) -> bool:
        return v in self._children

    def __iter__(self) -> Iterator[Node]:
        return iter(self._children)

    def has_arc(self, u: Node, v: Node) -> bool:
        """True iff arc ``(u -> v)`` is present."""
        return u in self._children and v in self._children[u]

    def parents(self, v: Node) -> list[Node]:
        """The parents of ``v`` (tasks ``v`` depends on)."""
        self._require(v)
        return list(self._parents[v])

    def children(self, v: Node) -> list[Node]:
        """The children of ``v`` (tasks depending on ``v``)."""
        self._require(v)
        return list(self._children[v])

    def indegree(self, v: Node) -> int:
        """Number of parents of ``v``."""
        self._require(v)
        return len(self._parents[v])

    def outdegree(self, v: Node) -> int:
        """Number of children of ``v``."""
        self._require(v)
        return len(self._children[v])

    @property
    def sources(self) -> list[Node]:
        """Parentless nodes.  Sources are always ELIGIBLE."""
        return [v for v, ps in self._parents.items() if not ps]

    @property
    def sinks(self) -> list[Node]:
        """Childless nodes."""
        return [v for v, cs in self._children.items() if not cs]

    @property
    def nonsinks(self) -> list[Node]:
        """Nodes with at least one child; the ones whose execution can
        render other nodes ELIGIBLE."""
        return [v for v, cs in self._children.items() if cs]

    @property
    def nonsources(self) -> list[Node]:
        """Nodes with at least one parent."""
        return [v for v, ps in self._parents.items() if ps]

    def is_source(self, v: Node) -> bool:
        self._require(v)
        return not self._parents[v]

    def is_sink(self, v: Node) -> bool:
        self._require(v)
        return not self._children[v]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`CycleError` unless the graph is acyclic.

        Uses Kahn's algorithm; cost ``O(|N| + |A|)``.
        """
        indeg = {v: len(ps) for v, ps in self._parents.items()}
        queue = deque(v for v, d in indeg.items() if d == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != len(self._children):
            raise CycleError(
                f"dag {self.name!r} contains a cycle "
                f"({len(self._children) - seen} nodes lie on cycles)"
            )

    def is_acyclic(self) -> bool:
        """True iff the graph has no directed cycle."""
        try:
            self.validate()
        except CycleError:
            return False
        return True

    def topological_order(self) -> list[Node]:
        """One topological order (deterministic: Kahn with FIFO ties)."""
        indeg = {v: len(ps) for v, ps in self._parents.items()}
        queue = deque(v for v, d in indeg.items() if d == 0)
        order: list[Node] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self._children):
            raise CycleError(f"dag {self.name!r} contains a cycle")
        return order

    def is_connected(self) -> bool:
        """Connectivity ignoring arc orientation (Section 2.1).

        The empty dag is vacuously connected.
        """
        if not self._children:
            return True
        start = next(iter(self._children))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in list(self._children[v]) + list(self._parents[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._children)

    def connected_components(self) -> list[list[Node]]:
        """Weakly connected components, each in insertion order."""
        seen: set[Node] = set()
        comps: list[list[Node]] = []
        for v in self._children:
            if v in seen:
                continue
            comp = [v]
            seen.add(v)
            stack = [v]
            while stack:
                x = stack.pop()
                for w in list(self._children[x]) + list(self._parents[x]):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def descendants(self, v: Node) -> set[Node]:
        """All nodes reachable from ``v`` by directed paths (excl. ``v``)."""
        self._require(v)
        out: set[Node] = set()
        stack = list(self._children[v])
        while stack:
            x = stack.pop()
            if x not in out:
                out.add(x)
                stack.extend(self._children[x])
        return out

    def ancestors(self, v: Node) -> set[Node]:
        """All nodes from which ``v`` is reachable (excl. ``v``)."""
        self._require(v)
        out: set[Node] = set()
        stack = list(self._parents[v])
        while stack:
            x = stack.pop()
            if x not in out:
                out.add(x)
                stack.extend(self._parents[x])
        return out

    def depth(self) -> int:
        """Length (in arcs) of the longest directed path; 0 if arcless."""
        depth = 0
        level: dict[Node, int] = {}
        for v in self.topological_order():
            lv = max((level[p] + 1 for p in self._parents[v]), default=0)
            level[v] = lv
            depth = max(depth, lv)
        return depth

    def node_levels(self) -> dict[Node, int]:
        """Map each node to the length of the longest path reaching it."""
        level: dict[Node, int] = {}
        for v in self.topological_order():
            level[v] = max((level[p] + 1 for p in self._parents[v]), default=0)
        return level

    # ------------------------------------------------------------------
    # derived dags
    # ------------------------------------------------------------------
    def dual(self, name: str | None = None) -> "ComputationDag":
        """The dual dag: every arc reversed (Section 2.3.2).

        Sources and sinks swap roles.  ``dual(dual(G))`` equals ``G``
        node-for-node and arc-for-arc.
        """
        d = ComputationDag(name=name or f"dual({self.name})")
        for v in self._children:
            d.add_node(v)
        for u, v in self.arcs:
            d.add_arc(v, u)
        return d

    def copy(self, name: str | None = None) -> "ComputationDag":
        """An independent structural copy (labels shared, indices new)."""
        c = ComputationDag(name=name or self.name)
        for v in self._children:
            c.add_node(v)
        for u, v in self.arcs:
            c.add_arc(u, v)
        return c

    def relabel(
        self,
        mapping: Mapping[Node, Node] | Callable[[Node], Node],
        name: str | None = None,
    ) -> "ComputationDag":
        """A copy with node labels rewritten.

        ``mapping`` may be a dict (missing labels pass through
        unchanged) or a callable.  The rewrite must be injective on the
        node set.
        """
        if callable(mapping):
            fn = mapping
        else:
            fn = lambda v: mapping.get(v, v)  # noqa: E731
        new_labels = {v: fn(v) for v in self._children}
        if len(set(new_labels.values())) != len(new_labels):
            raise DagStructureError("relabeling is not injective")
        out = ComputationDag(name=name or self.name)
        for v in self._children:
            out.add_node(new_labels[v])
        for u, v in self.arcs:
            out.add_arc(new_labels[u], new_labels[v])
        return out

    def prefixed(self, prefix: str, name: str | None = None) -> "ComputationDag":
        """A copy with every label wrapped as ``(prefix, label)``.

        Used to force disjointness before summing/composing dags built
        from the same template (footnote 4 of the paper: composition
        operands may be "the same dag with nodes renamed").
        """
        return self.relabel(lambda v: (prefix, v), name=name)

    def induced_subdag(self, keep: Iterable[Node], name: str | None = None) -> "ComputationDag":
        """The subdag induced by node set ``keep`` (arcs with both ends kept)."""
        keep_set = set(keep)
        missing = keep_set - set(self._children)
        if missing:
            raise DagStructureError(f"nodes not in dag: {sorted(map(repr, missing))}")
        out = ComputationDag(name=name or f"{self.name}[sub]")
        for v in self._children:
            if v in keep_set:
                out.add_node(v)
        for u, v in self.arcs:
            if u in keep_set and v in keep_set:
                out.add_arc(u, v)
        return out

    # ------------------------------------------------------------------
    # comparison / interop
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A content-addressed identity for the dag's *structure*.

        SHA-256 over the canonically ordered node and arc label reprs —
        independent of insertion order, the ``name``, and the process
        (unlike ``hash()``, which is salted per interpreter), so two
        dags built separately from the same family/size fingerprint
        identically.  This is the cache key used by
        :mod:`repro.core.profile_cache` to reuse eligibility ceilings
        and certificates across repeated certifications.

        The value is memoized and invalidated on any mutation, so
        repeated calls on an unchanged dag are O(1).
        """
        if self._fp_cache is not None and self._fp_cache[0] == self._version:
            return self._fp_cache[1]
        h = hashlib.sha256()
        for line in sorted(f"n:{v!r}" for v in self._children):
            h.update(line.encode())
            h.update(b"\x00")
        for line in sorted(f"a:{u!r}\x01{v!r}" for u, v in self.arcs):
            h.update(line.encode())
            h.update(b"\x00")
        fp = h.hexdigest()
        self._fp_cache = (self._version, fp)
        return fp

    def same_structure(self, other: "ComputationDag") -> bool:
        """True iff node sets and arc sets coincide (labels compared)."""
        return set(self.nodes) == set(other.nodes) and set(self.arcs) == set(other.arcs)

    def is_isomorphic_to(self, other: "ComputationDag") -> bool:
        """Digraph isomorphism test (delegates to networkx VF2)."""
        import networkx as nx

        return nx.is_isomorphic(self.to_networkx(), other.to_networkx())

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` (labels preserved)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(self._children)
        g.add_edges_from(self.arcs)
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, name: str | None = None) -> "ComputationDag":
        """Import from a :class:`networkx.DiGraph`."""
        dag = cls(name=name or (g.name or "dag"))
        for v in g.nodes:
            dag.add_node(v)
        for u, v in g.edges:
            dag.add_arc(u, v)
        return dag

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputationDag):
            return NotImplemented
        return self.same_structure(other)

    def __hash__(self) -> int:  # structural hash; order-insensitive
        return hash((frozenset(map(self._freeze, self.nodes)), frozenset(self.arcs)))

    @staticmethod
    def _freeze(v: Node) -> Node:
        return v

    def __repr__(self) -> str:
        return (
            f"ComputationDag(name={self.name!r}, nodes={len(self)}, "
            f"arcs={sum(len(c) for c in self._children.values())})"
        )

    def summary(self) -> str:
        """A one-line structural summary used in reports."""
        return (
            f"{self.name}: {len(self)} nodes, {len(self.arcs)} arcs, "
            f"{len(self.sources)} sources, {len(self.sinks)} sinks, "
            f"depth {self.depth()}"
        )
