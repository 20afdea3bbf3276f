"""Simple directed graphs with initial vertices and partial sieve-defined maps.

A sieve is a vertex subset closed under outgoing edges.  A partial
sieve-defined homomorphism is a vertex map whose domain is a sieve, which
preserves edges, and which is defined on (and preserves) initial vertices.
These compose, with domain ``Def f ∩ f⁻¹(Def g)``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Tuple

from .core import (CheckResult, KeyCollisionError, Slot, Tx, UtxoSet, _once,
                   _state_without_once, apply_tx, check_tx)


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple directed graph with distinguished initial vertices.

    At most one edge per ordered vertex pair; self-loops allowed.
    """

    vertices: frozenset
    edges: frozenset
    initial: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "initial", frozenset(self.initial))
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise ValueError("edge endpoint not a vertex: %r" % ((a, b),))
        if not self.initial <= self.vertices:
            raise ValueError("initial vertices must be vertices")

    @_once
    def _succ(self) -> dict:
        """The adjacency map: each vertex with an out-edge -> its successors."""
        adj = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
        return {a: frozenset(bs) for a, bs in adj.items()}

    __getstate__ = _state_without_once

    def successors(self, v) -> frozenset:
        return self._succ.get(v, frozenset())


def _leaving_edge(graph: SimpleGraph, subset) -> Optional[tuple]:
    """The first edge of ``graph.edges``, in iteration order, from inside
    ``subset`` to outside it, or None when ``subset`` is a sieve."""
    return next(((a, b) for a, b in graph.edges if a in subset and b not in subset), None)


def is_sieve(graph: SimpleGraph, subset: Iterable) -> bool:
    """True iff every edge leaving ``subset`` ends inside it."""
    sub = frozenset(subset)
    if not sub <= graph.vertices:
        raise ValueError("subset must be contained in the vertex set")
    return _leaving_edge(graph, sub) is None


@dataclass(frozen=True)
class PartialSieveHom:
    """Vertex map between simple graphs, defined on a sieve of the source.

    ``mapping`` is copied at construction and its keys are Def f, so two
    homs compare equal exactly when they agree extensionally.
    """

    source: SimpleGraph
    target: SimpleGraph
    mapping: Mapping

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    @property
    def domain(self):
        return self.mapping.keys()

    def __call__(self, v):
        return self.mapping[v]

    def defined_at(self, v) -> bool:
        return v in self.mapping


def check_hom(hom: PartialSieveHom) -> CheckResult:
    """Verify the three homomorphism invariants on explicit finite graphs."""
    src, tgt = hom.source, hom.target
    if not hom.domain <= src.vertices:
        return CheckResult(False, "domain-not-in-source", hom.domain - src.vertices)
    if (edge := _leaving_edge(src, hom.domain)) is not None:
        return CheckResult(False, "domain-not-a-sieve", edge)
    for v in hom.domain:
        if hom(v) not in tgt.vertices:
            return CheckResult(False, "image-not-in-target", v)
    for a, b in src.edges:
        if a in hom.domain and (hom(a), hom(b)) not in tgt.edges:
            return CheckResult(False, "edge-not-preserved", (a, b))
    for v in src.initial:
        if v not in hom.domain:
            return CheckResult(False, "initial-not-in-domain", v)
        if hom(v) not in tgt.initial:
            return CheckResult(False, "initial-not-preserved", v)
    return CheckResult(True)


def compose_homs(f: PartialSieveHom, g: PartialSieveHom) -> PartialSieveHom:
    """Composition g∘f with domain Def f ∩ f⁻¹(Def g)."""
    if f.target != g.source:
        raise ValueError("target of f must equal source of g")
    mapping = {v: g(w) for v, w in f.mapping.items() if g.defined_at(w)}
    return PartialSieveHom(f.source, g.target, mapping)


def enumerate_paths(graph: SimpleGraph, depth: int) -> frozenset:
    """All paths with ``depth`` vertices starting at an initial vertex."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    paths = [(v,) for v in graph.initial]
    for _ in range(depth - 1):
        paths = [p + (w,) for p in paths for w in graph.successors(p[-1])]
    return frozenset(paths)


def has_truncated_lift(
    target_prefix: traces.TracePrefix, hom: PartialSieveHom, n: int
) -> Tuple[bool, Optional[Tuple]]:
    """Search for a source path of n+1 states mapping onto the target head.

    The search goes goal state by goal state and keeps one lifting path per
    last vertex, as paths that end alike extend alike.  The witness, when
    found, is one lifting path starting at an initial vertex.  Only the
    target's states are read, so this module does not import ``traces``.
    """
    if n < 0:
        raise ValueError("n must be at least 0")
    if len(target_prefix) < n + 1:
        raise ValueError("target prefix must have at least n+1 states")
    goal = target_prefix.states[: n + 1]
    lifts = {v: (v,) for v in hom.source.initial
             if hom.defined_at(v) and hom(v) == goal[0]}
    for state in goal[1:]:
        lifts = {w: path + (w,) for v, path in lifts.items()
                 for w in hom.source.successors(v)
                 if hom.defined_at(w) and hom(w) == state}
    witness = next(iter(lifts.values()), None)
    return (witness is not None), witness


# --- ledger transition graphs ----------------------------------------------

def build_ledger_graph(
    initial_utxos: Iterable[UtxoSet],
    initial_slots: Iterable[Slot],
    tx_universe: Iterable[Tx],
    slot_universe: Iterable[Slot],
    additional_checks=None,
) -> SimpleGraph:
    """Explicit transition graph over reachable (slot, utxo, tx) triples.

    Vertices satisfy check_tx; (q,u,t) -> (q',u',t') is an edge exactly when
    step_ledger takes (q,u,t) to u', (q',u',t') is checkable and q <= q'.
    Only the part reachable from the initial vertices is built.  A vertex
    passed check_tx, so apply_tx alone steps it, once per distinct (u, t) as
    it reads no slot, and the after-state's checkable pairs are found once,
    at every slot.  A state tries only the txs that spend one of its refs.
    """
    spenders = {}  # ref -> the universe txs spending it, in universe order
    for t in tx_universe:
        for ref, _ in t.inputs:
            spenders.setdefault(ref, []).append(t)

    def checkable(u, slots):
        txs = dict.fromkeys(t for ref in u.keys() for t in spenders.get(ref, ()))
        return [(q, u, t) for q in slots for t in txs
                if check_tx(q, u, t, additional_checks)]

    slots = sorted(set(slot_universe))
    initial_slots = sorted(set(initial_slots))
    initial = frozenset(v for u in initial_utxos for v in checkable(u, initial_slots))
    vertices = set(initial)
    edges = set()
    succ = {}  # (u, t) -> checkable(u', slots) after the step, [] if it collides
    frontier = deque(initial)
    while frontier:
        v = frontier.popleft()
        q, u, t = v
        if (u, t) not in succ:
            try:
                succ[u, t] = checkable(apply_tx(u, t), slots)
            except KeyCollisionError:  # a created ref is still unspent
                succ[u, t] = []
        for w in succ[u, t]:
            if w[0] >= q:
                edges.add((v, w))
                if w not in vertices:
                    vertices.add(w)
                    frontier.append(w)
    return SimpleGraph(frozenset(vertices), frozenset(edges), initial)


def project_graph(
    graph: SimpleGraph, state_of: Callable
) -> Tuple[SimpleGraph, PartialSieveHom]:
    """The image of a transition graph under the state map ``state_of``.

    Its vertices are the states of the vertices, with one edge
    ``state_of(a) -> state_of(b)`` per edge ``a -> b`` and the states of the
    initial vertices as initial.  ``state_of`` runs per vertex, per edge
    endpoint and per initial vertex, so no vertex is hashed to look its state
    up; the per-vertex mapping is the everywhere defined hom onto the image.
    """
    image = {v: state_of(v) for v in graph.vertices}
    projected = SimpleGraph(
        frozenset(image.values()),
        frozenset((state_of(a), state_of(b)) for a, b in graph.edges),
        frozenset(map(state_of, graph.initial)),
    )
    return projected, PartialSieveHom(graph, projected, image)


def project_ledger_graph(
    lam: SimpleGraph,
) -> Tuple[SimpleGraph, PartialSieveHom]:
    """Λ′, the image of a ledger graph under (q,u,t) -> u, with that hom.

    An edge u -> u' of Λ′ comes from an edge (q,u,t) -> (q',u',t') of Λ, so
    a step onto u' is an edge only when u' has a checkable transaction at a
    slot no earlier than q.
    """
    return project_graph(lam, lambda v: v[1])
