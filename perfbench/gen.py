"""Seeded input generators for every workload.

Every generator takes a ``random.Random`` (or a seed) and returns dags
in the service's ``dag_to_dict`` wire format (index-labelled, so the
program receives nothing but the generated inputs).  The same seed
always yields the same list, byte for byte.

Shapes, and the certificate kind the service is expected to stamp:

* ``composed`` — uniform-arity out-/in-trees, expansion-reduction
  diamonds, out-/in-meshes, and ⇑-sums (disjoint unions) of trees,
  every instance under a random node numbering, so whole-dag
  fingerprints never repeat while the blocks they decompose into do;
* ``exact`` — small fork-join dags with cross arcs and random layered
  dags: unrecognized, within ``exhaustive_limit``;
* ``heuristic`` — connected layered dags with more nonsinks than the
  default ``exhaustive_limit`` (24), so ``auto`` stamps them heuristic
  without searching.
"""

from __future__ import annotations

import hashlib
import random

#: default ``exhaustive_limit`` of ``repro serve`` / ``repro.api``.
EXHAUSTIVE_LIMIT = 24

#: submit-cold stream mix: (class, weight).  Chosen, not measured:
#: every kind carries at least 15% of requests, composed the majority
#: (the rules behind every share are in NOTES.md).
SUBMIT_MIX = (("composed", 55), ("exact", 30), ("heuristic", 15))


# -- wire helpers -------------------------------------------------------
def wire(n: int, arcs, name: str, rng: random.Random) -> dict:
    """Wire dict for a dag on nodes ``0..n-1`` after a random
    renumbering (the renumbering is what makes fingerprints distinct)."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_arcs = sorted((perm[u], perm[v]) for u, v in arcs)
    return {
        "format": 1,
        "name": name,
        "n": n,
        "label_reprs": [repr(i) for i in range(n)],
        "arcs": [[u, v] for u, v in new_arcs],
    }


def structure_key(w: dict) -> str:
    """Identity of a wire dag's structure (its fingerprint's inputs:
    node count and arc set)."""
    h = hashlib.sha256(str(w["n"]).encode())
    for u, v in sorted(map(tuple, w["arcs"])):
        h.update(f"{u},{v};".encode())
    return h.hexdigest()


def nonsinks(w: dict) -> int:
    return len({u for u, _ in w["arcs"]})


# -- shapes (index arcs) ------------------------------------------------
def full_out_tree(rng: random.Random, internal: int, arity: int):
    """A random-shape out-tree whose internal nodes all have ``arity``
    children; returns ``(n, arcs, leaves)``."""
    arcs, leaves, n = [], [0], 1
    for _ in range(internal):
        v = leaves.pop(rng.randrange(len(leaves)))
        for _ in range(arity):
            arcs.append((v, n))
            leaves.append(n)
            n += 1
    return n, arcs, leaves


def reverse(arcs):
    return [(v, u) for u, v in arcs]


def diamond(rng: random.Random, internal: int, arity: int):
    """An out-tree whose leaves feed an in-tree of the same arity
    (the Fig. 2 expansion-reduction shape)."""
    n, arcs, leaves = full_out_tree(rng, internal, arity)
    frontier = list(leaves)
    rng.shuffle(frontier)
    while len(frontier) > 1:
        k = min(arity, len(frontier))
        group, frontier = frontier[:k], frontier[k:]
        for u in group:
            arcs.append((u, n))
        frontier.insert(rng.randrange(len(frontier) + 1), n)
        n += 1
    return n, arcs


def out_mesh(depth: int):
    index = {}
    for k in range(depth + 1):
        for m in range(k + 1):
            index[(k, m)] = len(index)
    arcs = [(index[(k, m)], index[(k + 1, m + j)])
            for k in range(depth) for m in range(k + 1) for j in (0, 1)]
    return len(index), arcs


def layered(rng: random.Random, widths, with_source: bool):
    """Random layered dag: each node draws 1-2 parents from the layer
    above; with ``with_source`` a single apex feeds the first layer,
    which keeps the dag weakly connected."""
    arcs, layers, n = [], [], 0
    if with_source:
        layers.append([0])
        n = 1
    for w in widths:
        layer = list(range(n, n + w))
        n += w
        if layers:
            prev = layers[-1]
            for v in layer:
                for u in rng.sample(prev, min(len(prev), rng.randint(1, 2))):
                    arcs.append((u, v))
            for u in prev:  # nobody in the layer above is a dead end
                if not any(a == u for a, _ in arcs):
                    arcs.append((u, rng.choice(layer)))
        layers.append(layer)
    return n, sorted(set(arcs))


def fork_join(rng: random.Random):
    """Source → k two-stage branches → join, plus cross arcs between
    branches (which break the diamond shape recognition looks for)."""
    k = rng.randint(2, 4)
    arcs, n = [], 1
    first, second = [], []
    for _ in range(k):
        a, b = n, n + 1
        n += 2
        arcs += [(0, a), (a, b)]
        first.append(a)
        second.append(b)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(k), 2)
        arcs.append((first[i], second[j]))
    join = n
    n += 1
    arcs += [(b, join) for b in second]
    return n, sorted(set(arcs))


# -- per-class generators -----------------------------------------------
COMPOSED_SHAPES = ("out-tree", "in-tree", "diamond", "mesh", "sum")
EXACT_SHAPES = ("forkjoin", "layered")


def composed_dag(rng: random.Random, i: int, big: bool = False,
                 shape: str | None = None) -> dict:
    if big:  # simulate-hot sizes: 50-300 nodes
        shape = rng.choice(("out-tree", "in-tree", "diamond", "mesh"))
        arity = rng.choice((2, 3))
        if shape in ("out-tree", "in-tree"):
            n, arcs, _ = full_out_tree(rng, rng.randint(50, 140) // arity,
                                       arity)
            if shape == "in-tree":
                arcs = reverse(arcs)
        elif shape == "diamond":
            n, arcs = diamond(rng, rng.randint(20, 70) // arity, arity)
        else:
            n, arcs = out_mesh(rng.randint(9, 14))
            if rng.random() < 0.5:
                arcs = reverse(arcs)
        return wire(n, arcs, f"{shape}-{i}", rng)
    shape = shape or rng.choice(COMPOSED_SHAPES)
    if shape == "sum":
        n, arcs = 0, []
        for _ in range(2):
            arity = rng.choice((2, 3))
            m, part, _ = full_out_tree(rng, rng.randint(1, 6 // arity),
                                       arity)
            if rng.random() < 0.5:
                part = reverse(part)
            arcs += [(u + n, v + n) for u, v in part]
            n += m
        return wire(n, arcs, f"sum-{i}", rng)
    if shape in ("out-tree", "in-tree"):
        # at most 12 leaves keeps the in-tree's ideal lattice (and
        # so the exhaustive oracle) small
        arity = rng.choice((2, 3, 4))
        n, arcs, _ = full_out_tree(rng, rng.randint(2, 11 // (arity - 1)),
                                   arity)
        if shape == "in-tree":
            arcs = reverse(arcs)
    elif shape == "diamond":
        n, arcs = diamond(rng, rng.randint(2, 4), rng.choice((2, 3)))
    else:
        n, arcs = out_mesh(rng.randint(2, 4))
        if rng.random() < 0.5:
            arcs = reverse(arcs)
    return wire(n, arcs, f"{shape}-{i}", rng)


def exact_dag(rng: random.Random, i: int, shape: str | None = None) -> dict:
    shape = shape or rng.choice(EXACT_SHAPES)
    if shape == "forkjoin":
        n, arcs = fork_join(rng)
        return wire(n, arcs, f"forkjoin-{i}", rng)
    widths = [rng.randint(2, 3) for _ in range(rng.randint(3, 4))]
    n, arcs = layered(rng, widths, with_source=rng.random() < 0.5)
    return wire(n, arcs, f"layered-{i}", rng)


def heuristic_dag(rng: random.Random, i: int, big: bool = False) -> dict:
    while True:
        if big:
            widths = [rng.randint(4, 10) for _ in range(rng.randint(8, 20))]
        else:
            widths = [rng.randint(4, 7) for _ in range(rng.randint(6, 8))]
        n, arcs = layered(rng, widths, with_source=True)
        w = wire(n, arcs, f"wide-{i}", rng)
        if nonsinks(w) > EXHAUSTIVE_LIMIT:
            return w


_CLASSES = {"composed": composed_dag, "exact": exact_dag,
            "heuristic": heuristic_dag}


def submit_stream(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` distinct ``(class, wire)`` pairs of the submit-cold mix."""
    rng = random.Random(f"submit:{seed}")
    names = [c for c, _ in SUBMIT_MIX]
    weights = [w for _, w in SUBMIT_MIX]
    seen: set[str] = set()
    out: list[tuple[str, dict]] = []
    while len(out) < count:
        cls = rng.choices(names, weights)[0]
        w = _CLASSES[cls](rng, len(out))
        key = structure_key(w)
        if key in seen:
            continue
        seen.add(key)
        out.append((cls, w))
    return out


#: simulate-hot's warm set holds about this many nodes in total, so
#: every seed offers the service the same amount of state.
HOT_NODES = 2400


def hot_set(seed: int) -> list[dict]:
    """simulate-hot's warm set: 16-32 distinct dags of 50-300 nodes,
    added until they hold ``HOT_NODES`` nodes."""
    rng = random.Random(f"hot:{seed}")
    seen: set[str] = set()
    out: list[dict] = []
    total = 0
    while len(out) < 16 or (total < HOT_NODES and len(out) < 32):
        if rng.random() < 0.75:
            w = composed_dag(rng, len(out), big=True)
        else:
            w = heuristic_dag(rng, len(out), big=True)
        if not 50 <= w["n"] <= 300:
            continue
        key = structure_key(w)
        if key not in seen:
            seen.add(key)
            out.append(w)
            total += w["n"]
    return out


POLICIES = ("IC-OPT", "CRITPATH", "FIFO")
MACHINES = ("ideal", "bsp", "memcap", "hetero")


def simulate_requests(seed: int, fingerprints: list[str],
                      count: int) -> list[dict]:
    """Seeded simulate bodies by fingerprint over policy × machine."""
    rng = random.Random(f"simulate:{seed}")
    return [{
        "fingerprint": rng.choice(fingerprints),
        "policy": rng.choice(POLICIES),
        "machine": rng.choice(MACHINES),
        "clients": rng.randint(2, 8),
        "seed": rng.randrange(1 << 16),
    } for _ in range(count)]


def sweep_corpus(seed: int, count: int) -> list[dict]:
    """library-sweep corpus: small dags (composed and exact classes)
    the exhaustive oracle settles in milliseconds.  Shapes take turns,
    so every prefix of every seed's corpus has the same shape mix."""
    rng = random.Random(f"sweep:{seed}")
    shapes = COMPOSED_SHAPES + EXACT_SHAPES
    seen: set[str] = set()
    out: list[dict] = []
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        if shape in COMPOSED_SHAPES:
            w = composed_dag(rng, len(out), shape=shape)
        else:
            w = exact_dag(rng, len(out), shape=shape)
        key = structure_key(w)
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out
