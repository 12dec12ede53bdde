"""Structure recognition for bare dags.

The families in :mod:`repro.families` carry their composition
certificates because we built them; a dag that arrives from elsewhere
(a workflow file, a trace, ``networkx``) is just nodes and arcs.  This
module recovers the certificate: :func:`recognize` identifies a bare
dag as one of the paper's families and returns an equivalent
:class:`~repro.core.composition.CompositionChain` over the dag's *own*
labels, ready for Theorem 2.1 — or ``None`` when no family matches.

Trees and meshes are recognized structurally at any size; butterfly
and parallel-prefix dags are matched via graph isomorphism against the
canonical construction (sizes are prefiltered, so the check only runs
when the node/arc counts already fit, and networkx is imported only
then).
"""

from __future__ import annotations

from .composition import CompositionChain
from .dag import ComputationDag, Node

__all__ = ["recognize", "recognize_mesh_coordinates"]


def _tree_children(dag: ComputationDag) -> tuple[dict, Node]:
    root = dag.sources[0]
    children = {v: dag.children(v) for v in dag.nodes if dag.children(v)}
    return children, root


def recognize_mesh_coordinates(
    dag: ComputationDag,
) -> dict[Node, tuple[int, int]] | None:
    """If ``dag`` is an out-mesh (any labels), return the canonical
    ``(level, index)`` coordinate of every node; else ``None``.

    Reconstruction: levels are longest-path depths; level ``k`` must
    hold ``k + 1`` nodes; within a level, indices follow the unique
    walk from the node whose parent set is a prefix of the previous
    level (out-mesh node ``(k, 0)`` has the single parent
    ``(k-1, 0)``), with adjacent nodes sharing one parent.
    """
    if len(dag.sources) != 1 or not dag.is_acyclic():
        return None
    levels: dict[int, list[Node]] = {}
    for v, lv in dag.node_levels().items():
        levels.setdefault(lv, []).append(v)
    depth = max(levels)
    coord: dict[Node, tuple[int, int]] = {dag.sources[0]: (0, 0)}
    if levels[0] != [dag.sources[0]]:
        return None
    prev = [dag.sources[0]]
    for k in range(1, depth + 1):
        members = levels.get(k, [])
        if len(members) != k + 1:
            return None
        by_parents = {v: set(dag.parents(v)) for v in members}
        # walk the level: position m has parents {prev[m-1], prev[m]}
        ordered: list[Node] = []
        for m in range(k + 1):
            expected = set()
            if m > 0:
                expected.add(prev[m - 1])
            if m < k:
                expected.add(prev[m])
            matches = [
                v
                for v in members
                if by_parents[v] == expected and v not in ordered
            ]
            if not matches:
                return None
            # level 1 is reflection-symmetric (both nodes have the
            # apex as sole parent); either choice extends to a full
            # labeling because reflection is a mesh automorphism
            ordered.append(matches[0])
        for m, v in enumerate(ordered):
            coord[v] = (k, m)
        prev = ordered
    # verify arcs are exactly the mesh arcs
    expected_arcs = set()
    for v, (k, m) in coord.items():
        if k < depth:
            expected_arcs.add((v, prev_lookup(coord, k + 1, m)))
            expected_arcs.add((v, prev_lookup(coord, k + 1, m + 1)))
    if set(dag.arcs) != expected_arcs:
        return None
    return coord


def prev_lookup(coord: dict, k: int, m: int) -> Node:
    """Inverse coordinate lookup (helper for mesh verification)."""
    for v, c in coord.items():
        if c == (k, m):
            return v
    raise KeyError((k, m))


def _recognize_out_mesh(dag: ComputationDag) -> CompositionChain | None:
    if dag.depth() < 1:
        return None
    coord = recognize_mesh_coordinates(dag)
    if coord is None:
        return None
    from ..families.mesh import out_mesh_chain

    canonical = out_mesh_chain(dag.depth())
    inverse = {c: v for v, c in coord.items()}
    return _relabel_chain(canonical, inverse, name=f"{dag.name}:out-mesh")


def _relabel_chain(
    chain: CompositionChain, mapping: dict, name: str
) -> CompositionChain:
    """Rewrite a chain's composite labels through ``mapping`` (the
    blocks and block schedules are label-spaces of their own and stay
    untouched; only node_maps and the composite dag change)."""
    clone = object.__new__(CompositionChain)
    clone.name = name
    clone.dag = chain.dag.relabel(lambda v: mapping[v], name=name)
    from .composition import BlockRecord

    clone.blocks = [
        BlockRecord(
            block=rec.block,
            schedule=rec.schedule,
            node_map={bv: mapping[cv] for bv, cv in rec.node_map.items()},
        )
        for rec in chain.blocks
    ]
    return clone


def _recognize_tree(dag: ComputationDag) -> CompositionChain | None:
    from ..families.trees import in_tree_chain, is_in_tree, is_out_tree, out_tree_chain

    if len(dag) < 2:
        return None
    if is_out_tree(dag):
        children, root = _tree_children(dag)
        return out_tree_chain(children, root, name=f"{dag.name}:out-tree")
    if is_in_tree(dag):
        dual = dag.dual()
        children = {v: dual.children(v) for v in dual.nodes if dual.children(v)}
        root = dual.sources[0]
        return in_tree_chain(children, root, name=f"{dag.name}:in-tree")
    return None


def _recognize_by_isomorphism(
    dag: ComputationDag, canonical: CompositionChain, label: str
) -> CompositionChain | None:
    if len(dag) != len(canonical.dag) or len(dag.arcs) != len(
        canonical.dag.arcs
    ):
        return None
    import networkx as nx

    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        canonical.dag.to_networkx(), dag.to_networkx()
    )
    if not matcher.is_isomorphic():
        return None
    return _relabel_chain(
        canonical, matcher.mapping, name=f"{dag.name}:{label}"
    )


def _recognize_butterfly(dag: ComputationDag) -> CompositionChain | None:
    from ..families.butterfly_net import butterfly_chain

    n = len(dag)
    # B_d has (d+1)·2^d nodes
    for d in range(1, 8):
        if n == (d + 1) << d:
            return _recognize_by_isomorphism(
                dag, butterfly_chain(d), f"B_{d}"
            )
    return None


def _recognize_prefix(dag: ComputationDag) -> CompositionChain | None:
    from ..families.prefix import prefix_chain, prefix_levels

    n_nodes = len(dag)
    for width in range(2, 257):
        if n_nodes == (prefix_levels(width) + 1) * width:
            chain = prefix_chain(width)
            if len(chain.dag.arcs) != len(dag.arcs):
                continue
            found = _recognize_by_isomorphism(dag, chain, f"P_{width}")
            if found is not None:
                return found
    return None


def _recognize_in_mesh(dag: ComputationDag) -> CompositionChain | None:
    """In-meshes are recognized through their dual: coordinates come
    from the dual out-mesh, the chain from
    :func:`~repro.families.mesh.in_mesh_chain`."""
    if dag.depth() < 1:
        return None
    coord = recognize_mesh_coordinates(dag.dual())
    if coord is None:
        return None
    from ..families.mesh import in_mesh_chain

    canonical = in_mesh_chain(dag.depth())
    inverse = {c: v for v, c in coord.items()}
    return _relabel_chain(canonical, inverse, name=f"{dag.name}:in-mesh")


def _recognize_diamond(dag: ComputationDag) -> CompositionChain | None:
    """Recognize an expansion-reduction diamond: an out-tree whose
    leaves feed an in-tree (Fig. 2 shape, trees of any arities).

    The expansive part is the set of nodes all of whose ancestors
    (including themselves) have indegree <= 1; it must form an
    out-tree whose leaves each feed the reductive remainder, which —
    with the leaves re-attached as its sources — must form an in-tree.
    """
    if len(dag.sources) != 1 or len(dag.sinks) != 1 or len(dag) < 3:
        return None
    # expansive part: indegree <= 1 transitively from the source
    expansive: set[Node] = set()
    stack = [dag.sources[0]]
    while stack:
        v = stack.pop()
        if v in expansive:
            continue
        expansive.add(v)
        for c in dag.children(v):
            if dag.indegree(c) <= 1:
                stack.append(c)
    out_part = dag.induced_subdag(expansive)
    from ..families.trees import is_in_tree, is_out_tree

    if not is_out_tree(out_part):
        return None
    leaves = [v for v in expansive if all(c not in expansive for c in dag.children(v))]
    reductive = (set(dag.nodes) - expansive) | set(leaves)
    in_part = dag.induced_subdag(reductive)
    if not is_in_tree(in_part) or set(in_part.sources) != set(leaves):
        return None
    # cross-check: together the parts cover every arc exactly once
    if len(out_part.arcs) + len(in_part.arcs) != len(dag.arcs):
        return None
    from ..families.trees import attach_in_tree, attach_out_tree

    out_children = {
        v: out_part.children(v) for v in out_part.nodes if out_part.children(v)
    }
    dual = in_part.dual()
    in_children = {
        v: dual.children(v) for v in dual.nodes if dual.children(v)
    }
    name = f"{dag.name}:diamond"
    chain = attach_out_tree(None, out_children, dag.sources[0], name=name)
    # merged nodes carry the same label on both sides, so the leaf
    # merge is the identity pairing
    return attach_in_tree(
        chain,
        in_children,
        dag.sinks[0],
        leaf_merge={v: v for v in leaves},
        name=name,
    )


def recognize(dag: ComputationDag) -> CompositionChain | None:
    """Identify ``dag`` as a paper family and return its composition
    chain over the dag's own labels (``None`` if unrecognized).

    Tried in order: out-/in-tree (any size), expansion-reduction
    diamond, out-mesh (any size, structural), butterfly network,
    parallel-prefix dag (the last two via isomorphism after size
    prefilters).  The returned chain satisfies
    ``chain.dag.same_structure(dag)`` and is directly schedulable by
    :func:`~repro.core.scheduler.schedule_dag`.
    """
    dag.validate()
    for attempt in (
        _recognize_tree,
        _recognize_diamond,
        _recognize_out_mesh,
        _recognize_in_mesh,
        _recognize_butterfly,
        _recognize_prefix,
    ):
        chain = attempt(dag)
        if chain is not None:
            return chain
    return None
