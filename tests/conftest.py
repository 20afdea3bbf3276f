import json
import random

import pytest

from ledgerlab.core import Output, Tx, UtxoSet, hash_tx, mk_outs
from ledgerlab.gen import WIDE_INTERVAL, make_proposer, make_scenario
from ledgerlab.traces import generate_valid_traces


def out(tag: str, coins: int = 10, token=None, token_qty: int = 0) -> Output:
    value = {b"coin": coins}
    if token is not None and token_qty:
        value[token] = token_qty
    return Output(address=b"addr-" + tag.encode(), value=value, datum=tag.encode())


def spend(utxo: UtxoSet, *refs) -> frozenset:
    return frozenset((r, utxo.get(r)) for r in refs)


def tx_of(inputs, outputs, interval=WIDE_INTERVAL, extra=b"") -> Tx:
    return Tx(
        inputs=frozenset(inputs),
        outputs=tuple(outputs),
        validity_interval=interval,
        additional_data=extra,
    )


def output_comparisons(monkeypatch) -> list:
    """The ``Output.__eq__`` and ``__ne__`` calls made from now on, one
    entry each.  ``Output`` is a tuple, whose C ``__ne__`` does not call a
    patched ``__eq__``, so both are counted."""
    calls = []

    def counted(compare):
        def compare_counted(self, other):
            calls.append(self)
            return compare(self, other)
        return compare_counted

    for name in ("__eq__", "__ne__"):
        monkeypatch.setattr(Output, name, counted(getattr(Output, name)))
    return calls


def produced_ref(tx: Tx, index: int):
    return sorted(mk_outs(tx).keys())[0].__class__(hash_tx(tx), index)


@pytest.fixture
def scenario():
    return make_scenario(11)


def gen_traces(scenario, depth=6, count=10, seed=23, token=None, hook=None):
    return generate_valid_traces(
        [scenario.initial_utxo],
        [scenario.initial_slot],
        make_proposer(token=token),
        depth=depth,
        count=count,
        seed=seed,
        additional_checks=hook,
    )


def ball(center, k, candidates) -> set:
    """The ball of radius 2^-k around a trace: the candidates sharing
    ``center``'s k-state head.  One shorter than k is undecided, left out."""
    return {t for t in candidates if len(t) >= k and t.states[:k] == center.states[:k]}


def check_monitor_monotone(bad_prefix, samples) -> bool:
    """Spot-check irremediability, which ``monitor_trace``'s bisection
    assumes: on every sample, a bad head never becomes clean again."""
    for prefix in samples:
        bad = False
        for n in range(len(prefix)):
            now = bad_prefix(prefix.head(n + 1))
            if bad and not now:
                return False
            bad = bad or now
    return True


@pytest.fixture
def eight_tx():
    """The worked 8-transaction dependency scenario.

    Dependencies: t2 spends from t1; t4 from t0, t2, t3; t5 from t2, t3;
    t6 from t1, t3; t7 from t5, t6.  Expected levels: {0,1,3} at 0,
    {2,6} at 1, {4,5} at 2, {7} at 3.
    """
    genesis = tx_of((), [out("g%d" % k) for k in range(8)])
    u0 = mk_outs(genesis)
    from ledgerlab.core import OutputRef

    def ref(tx, ix):
        return OutputRef(hash_tx(tx), ix)

    def claim(tx, ix):
        return (ref(tx, ix), tx.outputs[ix])

    g = [claim(genesis, k) for k in range(8)]
    t0 = tx_of([g[0]], [out("a0"), out("a1")])
    t1 = tx_of([g[1]], [out("b0"), out("b1")])
    t2 = tx_of([claim(t1, 0), g[2]], [out("e0"), out("e1")])
    t3 = tx_of([g[3]], [out("d0"), out("d1"), out("d2")])
    t4 = tx_of([claim(t0, 0), claim(t2, 0), claim(t3, 0)], [out("x4")])
    t5 = tx_of([claim(t2, 1), claim(t3, 1)], [out("x5")])
    t6 = tx_of([claim(t1, 1), claim(t3, 2)], [out("x6")])
    t7 = tx_of([claim(t5, 0), claim(t6, 0)], [out("x7")])
    return genesis, u0, [t0, t1, t2, t3, t4, t5, t6, t7]


@pytest.fixture
def non_well_founded():
    """A start state that already holds the ref t1 creates, and [t0, t1].

    t0 spends that ref and t1 creates it again, so t0 depends on the later
    t1: levels are [1, 0].  Applying t1 to the start state collides.
    """
    from ledgerlab.core import OutputRef

    genesis = tx_of((), [out("g")])
    g_ref = OutputRef(hash_tx(genesis), 0)
    t1 = tx_of([(g_ref, genesis.outputs[0])], [out("r")])
    r_ref = OutputRef(hash_tx(t1), 0)
    u0 = UtxoSet({g_ref: genesis.outputs[0], r_ref: t1.outputs[0]})
    t0 = tx_of([(r_ref, t1.outputs[0])], [out("s")])
    return u0, [t0, t1]


def random_graph(rng: random.Random, max_vertices: int = 12):
    """Seeded small simple graph with a nonempty sieve-closed initial set."""
    from ledgerlab.graphs import SimpleGraph

    n = rng.randint(1, max_vertices)
    vertices = frozenset(range(n))
    edges = frozenset(
        (a, b) for a in range(n) for b in range(n) if rng.random() < 0.22
    )
    initial = frozenset(v for v in vertices if rng.random() < 0.3)
    return SimpleGraph(vertices, edges, initial)


def forward_closure(graph, seed_set):
    closed = set(seed_set)
    frontier = list(seed_set)
    while frontier:
        v = frontier.pop()
        for w in graph.successors(v):
            if w not in closed:
                closed.add(w)
                frontier.append(w)
    return frozenset(closed)


def random_hom(rng: random.Random, source):
    """A random sieve-defined hom out of ``source`` onto a fresh target."""
    from ledgerlab.graphs import PartialSieveHom, SimpleGraph

    seed_set = frozenset(
        v for v in source.vertices if rng.random() < 0.4
    ) | source.initial
    domain = forward_closure(source, seed_set)
    # collapse vertices through a random labeling, then take image edges
    labels = {v: ("w", rng.randint(0, max(1, len(source.vertices) // 2)))
              for v in domain}
    vertices = frozenset(labels.values())
    edges = frozenset(
        (labels[a], labels[b])
        for a, b in source.edges
        if a in domain and b in domain
    )
    initial = frozenset(labels[v] for v in source.initial)
    target = SimpleGraph(vertices, edges, initial)
    return PartialSieveHom(source, target, labels)


def json_nodes(node, path=()):
    """Every (path, node) of a parsed JSON value, the root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def json_parent(payload, path):
    """The container holding the node at ``path``, and its key there."""
    node = payload
    for key in path[:-1]:
        node = node[key]
    return node, path[-1]


def both_spellings(payload):
    """A file's payload spelled by ``json.dumps`` and canonically, as the
    writers spell it: a reader's canonical-text path sees only the second."""
    return [
        json.dumps(payload),
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
    ]
