import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forward_closure, gen_traces, out, random_graph, random_hom, tx_of
from ledgerlab.contracts import nft_contract
from ledgerlab.core import (
    CheckResult,
    OutputRef,
    apply_tx,
    check_tx,
    hash_tx,
    mk_outs,
    step_ledger,
)
from ledgerlab.gen import graph_universe, make_scenario
from ledgerlab.graphs import (
    PartialSieveHom,
    SimpleGraph,
    build_ledger_graph,
    check_hom,
    compose_homs,
    enumerate_paths,
    is_sieve,
    project_ledger_graph,
)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    vertices = frozenset(range(n))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    edges = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=12)))
    initial = frozenset(draw(st.sets(st.sampled_from(range(n)), max_size=n)))
    return SimpleGraph(vertices, edges, initial)


def full_subgraph(graph, subset):
    """Induced subgraph on ``subset``; keeps the initial vertices inside it."""
    sub = frozenset(subset)
    if not sub <= graph.vertices:
        raise ValueError("subset must be contained in the vertex set")
    return SimpleGraph(
        vertices=sub,
        edges=frozenset(e for e in graph.edges if e[0] in sub and e[1] in sub),
        initial=graph.initial & sub,
    )


def a_sieve(draw, graph):
    seeds = frozenset(
        draw(st.sets(st.sampled_from(sorted(graph.vertices)), max_size=4))
    )
    return forward_closure(graph, seeds)


class TestSimpleGraph:
    def test_edge_endpoints_must_be_vertices(self):
        with pytest.raises(ValueError):
            SimpleGraph(frozenset([1]), frozenset([(1, 2)]))

    def test_initial_must_be_vertices(self):
        with pytest.raises(ValueError):
            SimpleGraph(frozenset([1]), frozenset(), frozenset([2]))

    def test_successors(self):
        g = SimpleGraph(frozenset([1, 2, 3]), frozenset([(1, 2), (1, 3)]))
        assert g.successors(1) == frozenset([2, 3])
        assert g.successors(3) == frozenset()

    def test_successors_match_the_edge_scan(self):
        rng = random.Random(90)
        for _ in range(200):
            g = random_graph(rng)
            twin = SimpleGraph(g.vertices, g.edges, g.initial)
            for v in sorted(g.vertices) + [len(g.vertices)]:
                assert g.successors(v) == frozenset(b for a, b in g.edges if a == v)
            # the adjacency cache is not part of the value
            assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)

    def test_full_subgraph(self):
        g = SimpleGraph(
            frozenset([1, 2, 3]), frozenset([(1, 2), (2, 3)]), frozenset([1])
        )
        sub = full_subgraph(g, [1, 2])
        assert sub.edges == frozenset([(1, 2)])
        assert sub.initial == frozenset([1])
        with pytest.raises(ValueError):
            full_subgraph(g, [4])


class TestSieves:
    def test_whole_vertex_set_is_a_sieve(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset([(1, 2)]))
        assert is_sieve(g, g.vertices)
        assert is_sieve(g, frozenset())

    def test_sink_is_a_sieve_source_is_not(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset([(1, 2)]))
        assert is_sieve(g, [2])
        assert not is_sieve(g, [1])

    def test_subset_must_be_vertices(self):
        g = SimpleGraph(frozenset([1]), frozenset())
        with pytest.raises(ValueError):
            is_sieve(g, [9])

    def test_intersection_of_sieves(self):
        g = SimpleGraph(
            frozenset([1, 2, 3]), frozenset([(1, 3), (2, 3)])
        )
        s1, s2 = frozenset([1, 3]), frozenset([2, 3])
        assert is_sieve(g, s1) and is_sieve(g, s2)
        assert s1 & s2 == frozenset([3])
        assert is_sieve(g, s1 & s2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_forward_closures_are_sieves_and_intersect(self, data):
        g = data.draw(graphs())
        s1 = a_sieve(data.draw, g)
        s2 = a_sieve(data.draw, g)
        assert is_sieve(g, s1) and is_sieve(g, s2)
        assert is_sieve(g, s1 & s2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sieve_of_a_sieve_is_a_sieve(self, data):
        g = data.draw(graphs())
        outer = a_sieve(data.draw, g)
        inner_graph = full_subgraph(g, outer)
        inner = forward_closure(
            inner_graph,
            frozenset(
                data.draw(
                    st.sets(st.sampled_from(sorted(outer) or [0]), max_size=3)
                )
            )
            & outer,
        )
        assert is_sieve(g, inner)


class TestHoms:
    def test_identity_is_a_hom(self):
        g = SimpleGraph(
            frozenset([1, 2]), frozenset([(1, 2)]), frozenset([1])
        )
        assert check_hom(PartialSieveHom(g, g, {v: v for v in g.vertices}))

    def test_domain_is_the_mapping_keys(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset())
        f = PartialSieveHom(g, g, {1: 1})
        assert f.domain == frozenset([1])
        assert f.defined_at(1) and not f.defined_at(2)
        with pytest.raises(KeyError):
            f(2)

    def test_mapping_is_copied(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset())
        mapping = {1: 1}
        f = PartialSieveHom(g, g, mapping)
        mapping[2] = 2
        del mapping[1]
        assert f.mapping == {1: 1}
        assert f.domain == frozenset([1])

    def test_extensional_equality(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset())
        f = PartialSieveHom(g, g, {1: 1, 2: 2})
        h = PartialSieveHom(g, g, dict([(2, 2), (1, 1)]))
        assert f == h
        assert f != PartialSieveHom(g, g, {1: 1})

    def test_key_outside_source_detected(self):
        g = SimpleGraph(frozenset([1]), frozenset())
        verdict = check_hom(PartialSieveHom(g, g, {1: 1, 7: 1}))
        assert verdict.reason == "domain-not-in-source"
        assert verdict.witness == frozenset([7])

    def test_non_sieve_domain_detected(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset([(1, 2)]))
        f = PartialSieveHom(g, g, {1: 1})
        verdict = check_hom(f)
        assert not verdict
        assert verdict.reason == "domain-not-a-sieve"
        assert verdict.witness == (1, 2)

    def test_sieve_clause_agrees_with_is_sieve(self):
        """The partial identity on a subset S holding the initial vertices
        fails ``check_hom`` as ``domain-not-a-sieve`` exactly when S is not
        a sieve, with an edge from S out of it, and passes otherwise."""
        rng = random.Random(8008)
        seen = set()
        for _ in range(300):
            g = random_graph(rng, max_vertices=12)
            subset = g.initial | {v for v in g.vertices if rng.random() < 0.4}
            if rng.random() < 0.5:
                subset = forward_closure(g, subset)
            verdict = check_hom(PartialSieveHom(g, g, {v: v for v in subset}))
            sieve = is_sieve(g, subset)
            seen.add(sieve)
            if sieve:
                assert verdict
            else:
                assert verdict.reason == "domain-not-a-sieve"
                a, b = verdict.witness
                assert (a, b) in g.edges and a in subset and b not in subset
        assert seen == {True, False}

    def test_image_outside_target_detected(self):
        src = SimpleGraph(frozenset([1]), frozenset())
        tgt = SimpleGraph(frozenset([8]), frozenset())
        verdict = check_hom(PartialSieveHom(src, tgt, {1: 9}))
        assert verdict.reason == "image-not-in-target"
        assert verdict.witness == 1

    def test_edge_preservation_detected(self):
        src = SimpleGraph(frozenset([1, 2]), frozenset([(1, 2)]))
        tgt = SimpleGraph(frozenset([9]), frozenset())
        f = PartialSieveHom(src, tgt, {1: 9, 2: 9})
        verdict = check_hom(f)
        assert verdict.reason == "edge-not-preserved"
        assert verdict.witness == (1, 2)

    def test_collapsing_needs_a_self_loop(self):
        src = SimpleGraph(frozenset([1, 2]), frozenset([(1, 2)]))
        tgt = SimpleGraph(frozenset([9]), frozenset([(9, 9)]))
        assert check_hom(PartialSieveHom(src, tgt, {1: 9, 2: 9}))

    def test_initial_clauses(self):
        src = SimpleGraph(
            frozenset([1, 2]), frozenset([(1, 2)]), frozenset([1])
        )
        tgt = SimpleGraph(frozenset([8, 9]), frozenset([(8, 9)]))
        outside = PartialSieveHom(src, tgt, {2: 9})
        assert check_hom(outside).reason == "initial-not-in-domain"
        not_kept = PartialSieveHom(src, tgt, {1: 8, 2: 9})
        assert check_hom(not_kept).reason == "initial-not-preserved"

    def test_compose_requires_matching_middle(self):
        g1 = SimpleGraph(frozenset([1]), frozenset())
        g2 = SimpleGraph(frozenset([2]), frozenset())
        f = PartialSieveHom(g1, g1, {1: 1})
        g = PartialSieveHom(g2, g2, {2: 2})
        with pytest.raises(ValueError):
            compose_homs(f, g)

    def test_compose_domain_rule(self):
        src = SimpleGraph(frozenset([1, 2]), frozenset())
        mid = SimpleGraph(frozenset([3, 4]), frozenset())
        tgt = SimpleGraph(frozenset([5]), frozenset())
        f = PartialSieveHom(src, mid, {1: 3, 2: 4})
        g = PartialSieveHom(mid, tgt, {3: 5})
        gf = compose_homs(f, g)
        assert gf.domain == frozenset([1])
        assert gf(1) == 5

    def test_random_homs_pass_check(self):
        rng = random.Random(7)
        for _ in range(60):
            f = random_hom(rng, random_graph(rng))
            assert check_hom(f)

    def test_random_compositions_pass_check_and_associate(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_hom(rng, random_graph(rng))
            g = random_hom(rng, f.target)
            h = random_hom(rng, g.target)
            gf = compose_homs(f, g)
            assert check_hom(gf)
            assert gf.domain == frozenset(
                v for v in f.domain if f(v) in g.domain
            )
            left = compose_homs(gf, h)
            right = compose_homs(f, compose_homs(g, h))
            assert left == right


class TestPaths:
    def test_self_loop(self):
        g = SimpleGraph(frozenset([1]), frozenset([(1, 1)]), frozenset([1]))
        assert enumerate_paths(g, 3) == frozenset([(1, 1, 1)])

    def test_depth_one_is_initial_vertices(self):
        g = SimpleGraph(frozenset([1, 2]), frozenset(), frozenset([2]))
        assert enumerate_paths(g, 1) == frozenset([(2,)])

    def test_acyclic_paths_run_out(self):
        g = SimpleGraph(
            frozenset([1, 2, 3]), frozenset([(1, 2), (2, 3)]), frozenset([1])
        )
        assert enumerate_paths(g, 3) == frozenset([(1, 2, 3)])
        assert enumerate_paths(g, 4) == frozenset()

    def test_branching(self):
        g = SimpleGraph(
            frozenset([1, 2, 3]), frozenset([(1, 2), (1, 3)]), frozenset([1])
        )
        assert enumerate_paths(g, 2) == frozenset([(1, 2), (1, 3)])

    def test_prefix_closure(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng, max_vertices=6)
            deep = enumerate_paths(g, 3)
            shallow = enumerate_paths(g, 2)
            assert {p[:2] for p in deep} <= shallow

    def test_depth_must_be_positive(self):
        g = SimpleGraph(frozenset([1]), frozenset())
        with pytest.raises(ValueError):
            enumerate_paths(g, 0)


@pytest.fixture
def ledger_graph():
    sc, txs, slots = graph_universe(31, 4)
    lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
    return sc, txs, slots, lam


def assert_ledger_successors(lam, utxos, initial_slots, txs, slots, hook=None):
    """Λ's initial vertices, successors and vertex set against brute force."""
    assert lam.initial == {
        (q, u, t) for q in initial_slots for u in utxos for t in txs
        if check_tx(q, u, t, hook)
    }
    for q, u, t in lam.vertices:
        u2 = step_ledger(q, u, t, hook)
        expected = set() if isinstance(u2, CheckResult) else {
            (q2, u2, t2) for q2 in slots if q2 >= q for t2 in txs
            if check_tx(q2, u2, t2, hook)
        }
        assert lam.successors((q, u, t)) == expected
    assert lam.vertices == forward_closure(lam, lam.initial)


def assert_projected_edges(lam, txs, slots, hook=None):
    """Λ′ against brute force, without reading Λ's edges: u -> w iff some
    vertex (q,u,t) steps to w and some (q2, w, t2) with q2 >= q is checkable."""
    lam_prime, _ = project_ledger_graph(lam)
    expected = set()
    for q, u, t in lam.vertices:
        w = step_ledger(q, u, t, hook)
        if not isinstance(w, CheckResult) and any(
            check_tx(q2, w, t2, hook) for q2 in slots if q2 >= q for t2 in txs
        ):
            expected.add((u, w))
    assert lam_prime.edges == expected
    assert lam_prime.vertices == {u for _, u, _ in lam.vertices}
    return lam_prime


class TestLedgerGraphs:
    def test_empty_universe_gives_empty_graph(self):
        sc = make_scenario(32)
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], [], [0])
        assert lam.vertices == frozenset()
        assert lam.initial == frozenset()

    def test_vertices_are_checkable_and_slots_monotone(self, ledger_graph):
        _, _, _, lam = ledger_graph
        assert lam.vertices
        for q, u, t in lam.vertices:
            assert check_tx(q, u, t)
        for (q, _, _), (q2, _, _) in lam.edges:
            assert q2 >= q

    def test_edges_follow_application(self, ledger_graph):
        from ledgerlab.core import apply_tx

        _, _, _, lam = ledger_graph
        for (q, u, t), (q2, u2, t2) in lam.edges:
            assert u2 == apply_tx(u, t)

    def test_projection_is_a_hom(self, ledger_graph):
        _, _, _, lam = ledger_graph
        lam_prime, phi = project_ledger_graph(lam)
        assert check_hom(phi)
        assert phi.domain == lam.vertices
        assert lam_prime.initial == frozenset(u for _, u, _ in lam.initial)
        for q, u, t in lam.vertices:
            assert phi((q, u, t)) == u

    def test_projected_edges_match_brute_force(self, ledger_graph):
        _, txs, slots, lam = ledger_graph
        assert assert_projected_edges(lam, txs, slots).edges

    def test_projected_edges_match_brute_force_on_collisions(self, non_well_founded):
        u0, txs = non_well_founded
        for universe in ([txs[1]], txs):
            lam = build_ledger_graph([u0], [0], universe, [0, 1])
            assert_projected_edges(lam, universe, [0, 1])

    def test_successors_match_brute_force(self, ledger_graph):
        sc, txs, slots, lam = ledger_graph
        assert_ledger_successors(lam, [sc.initial_utxo], [sc.initial_slot], txs, slots)

    def test_successors_match_brute_force_on_collisions(self, non_well_founded):
        u0, txs = non_well_founded
        for hook in (None, nft_contract(b"NFT").additional_checks):
            for universe in ([txs[1]], txs):
                lam = build_ledger_graph([u0], [0], universe, [0, 1], hook)
                assert_ledger_successors(lam, [u0], [0], universe, [0, 1], hook)

    def test_successors_match_brute_force_under_the_nft_policy(self):
        token = b"NFT"
        hook = nft_contract(token).additional_checks
        sc = make_scenario(21, token=token)
        trace = gen_traces(sc, depth=3, count=1, seed=8, token=token, hook=hook)[0]
        txs = [tx for _, tx in trace.annotations]
        # each step again, minting one more unit: the policy must refuse these
        mint = (out("m", token=token, token_qty=1),)
        txs += [tx_of(tx.inputs, tx.outputs + mint) for tx in txs]
        slots = sorted({sc.initial_slot} | {q for q, _ in trace.annotations})
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots, hook)
        assert_ledger_successors(lam, [sc.initial_utxo], [sc.initial_slot], txs, slots, hook)
        assert lam != build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)

    def test_benchmark_graph_matches_brute_force(self):
        # the graph the benchmark's `graph dump --seed 0 --depth 25` writes
        sc, txs, slots = graph_universe(0, 25)
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
        assert len(lam.vertices) == 642
        assert_ledger_successors(lam, [sc.initial_utxo], [sc.initial_slot], txs, slots)
        assert len(assert_projected_edges(lam, txs, slots).vertices) == 50

    def test_each_state_tries_only_txs_spending_its_refs(
        self, monkeypatch, non_well_founded, narrow_universe
    ):
        tried = []

        def spy(q, u, t, hook=None):
            tried.append((u, t))
            return check_tx(q, u, t, hook)

        monkeypatch.setattr("ledgerlab.graphs.check_tx", spy)
        sc, txs, slots = graph_universe(31, 6)
        build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
        u0, universe = non_well_founded
        build_ledger_graph([u0], [0], universe, [0, 1])
        u0, universe, hook = narrow_universe
        build_ledger_graph([u0], [0, 1], universe, [0, 1, 2, 3], hook)
        assert tried
        for u, t in tried:
            assert any(ref in u for ref, _ in t.inputs)

    def test_each_pair_is_stepped_once(self, monkeypatch):
        # a (u, t) reached at several slots steps to the same state at each
        calls = {"step": 0, "check": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr("ledgerlab.graphs.apply_tx", counted("step", apply_tx))
        monkeypatch.setattr("ledgerlab.graphs.check_tx", counted("check", check_tx))
        sc, txs, slots = graph_universe(0, 25)
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
        pairs = {(u, t) for _, u, t in lam.vertices}
        assert len(lam.vertices) == 642 and len(pairs) == 82
        assert calls["step"] == len(pairs)
        assert calls["check"] < len(lam.edges) == 4696

    def test_a_vertex_is_not_checked_again(self, monkeypatch, narrow_universe,
                                           non_well_founded):
        # a vertex passed check_tx, and the hook, to be one; step_ledger
        # would check it again through core's check_tx
        sc, txs, slots = graph_universe(0, 25)
        u0, universe, hook = narrow_universe
        u1, colliding = non_well_founded

        def refuse(*args):
            raise AssertionError("a vertex was checked again")

        monkeypatch.setattr("ledgerlab.core.check_tx", refuse)
        assert build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots).edges
        assert build_ledger_graph([u0], [0, 1], universe, [0, 1, 2, 3], hook).edges
        assert build_ledger_graph([u1], [0], colliding, [0]).edges

    def test_refused_step_has_no_successor(self, non_well_founded):
        # u0 already holds the ref t1 creates, so t1 collides on u0
        u0, (t0, t1) = non_well_founded
        lam = build_ledger_graph([u0], [0], [t1], [0])
        assert lam.vertices == lam.initial == frozenset([(0, u0, t1)])
        assert lam.edges == frozenset()
        assert project_ledger_graph(lam)[0].edges == frozenset()

        # t0 then t1 recreate that ref, after which t0 collides
        lam = build_ledger_graph([u0], [0], [t0, t1], [0])
        refused = [v for v in lam.vertices if isinstance(step_ledger(*v), CheckResult)]
        assert len(lam.vertices) == 4 and len(refused) == 2
        assert all(not lam.successors(v) for v in refused)
        lam_prime, phi = project_ledger_graph(lam)
        assert check_hom(phi)
        assert len(lam_prime.vertices) == 3 and len(lam_prime.edges) == 2


def claim(tx, ix):
    return (OutputRef(hash_tx(tx), ix), tx.outputs[ix])


@pytest.fixture
def narrow_universe():
    """Narrow validity intervals where one after-state is reached at two slots.

    a is valid at slots 0 and 1, so (0,u0,a) and (1,u0,a) both step to the
    same state; from it b is checkable only at slot 0, so the first vertex
    has b as a successor and the second does not.  c and d need later slots;
    d adds a second token unit next to g1's, which the NFT policy refuses.
    """
    token = b"NFT"
    genesis = tx_of((), [out("g0"), out("g1", token=token, token_qty=1)])
    u0 = mk_outs(genesis)
    a = tx_of([claim(genesis, 0)], [out("a0")], interval=(0, 2))
    b = tx_of([claim(a, 0)], [out("b0")], interval=(0, 1))
    c = tx_of([claim(genesis, 1)], [out("c0", token=token, token_qty=1)],
              interval=(1, 3))
    d = tx_of([claim(a, 0)], [out("d0", token=token, token_qty=1)],
              interval=(2, 4))
    return u0, [a, b, c, d], nft_contract(token).additional_checks


@st.composite
def narrow_universes(draw, token=b"NFT"):
    """A genesis state and up to five txs with intervals of one or two slots.

    Each tx spends one or two outputs of genesis or of earlier txs, so
    conflicts, chains and double spends all occur; outputs carry 0-2 units
    of ``token`` so the NFT policy both passes and refuses.
    """
    def outs(tag, n):
        return [out("%s%d" % (tag, k), token=token,
                    token_qty=draw(st.integers(0, 2))) for k in range(n)]

    genesis = tx_of((), outs("g", draw(st.integers(1, 3))))
    pool = [claim(genesis, k) for k in range(len(genesis.outputs))]
    txs = []
    for n in range(draw(st.integers(1, 5))):
        spent = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=2))
        start = draw(st.integers(0, 3))
        tx = tx_of(spent, outs("t%d." % n, draw(st.integers(1, 2))),
                   interval=(start, start + draw(st.integers(1, 2))))
        txs.append(tx)
        pool += [claim(tx, k) for k in range(len(tx.outputs))]
    initial_slots = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)))
    slots = sorted(set(initial_slots) | draw(st.sets(st.integers(0, 4), max_size=4)))
    return mk_outs(genesis), txs, initial_slots, slots


class TestLedgerGraphSlots:
    """Λ against the brute-force oracle where validity intervals make slots matter."""

    def test_state_reached_at_two_slots_keeps_its_own_successors(self, narrow_universe):
        u0, (a, b, c, d), hook = narrow_universe
        built = {}
        for checks in (None, hook):
            lam = built[checks] = build_ledger_graph(
                [u0], [0, 1], [a, b, c, d], [0, 1, 2, 3], checks
            )
            assert_ledger_successors(lam, [u0], [0, 1], [a, b, c, d], [0, 1, 2, 3], checks)
            ua = step_ledger(0, u0, a)
            assert step_ledger(1, u0, a) == ua
            assert (0, ua, b) in lam.successors((0, u0, a))
            assert (0, ua, b) not in lam.successors((1, u0, a))
            assert lam.successors((1, u0, a)) < lam.successors((0, u0, a))
        assert built[hook] != built[None]

    def test_projection_keeps_only_steps_that_continue(self):
        """Λ′ is Λ's image: a step onto a state of Λ′ from which nothing is
        checkable at a later slot gives no edge, though the state is reached
        with a successor at an earlier slot."""
        genesis = tx_of((), [out("g0"), out("g1")])
        u0 = mk_outs(genesis)
        a = tx_of([claim(genesis, 0)], [out("a0")], interval=(1, 3))
        b = tx_of([claim(genesis, 1)], [out("b0")], interval=(0, 3))
        t0 = tx_of([claim(a, 0)], [out("c0")], interval=(0, 2))
        txs, slots = [a, b, t0], [0, 1, 2]
        lam = build_ledger_graph([u0], [0, 2], txs, slots)
        lam_prime = assert_projected_edges(lam, txs, slots)
        ua = step_ledger(2, u0, a)
        uab = step_ledger(2, ua, b)
        # (2, ua, b) steps onto uab, where t0 is checkable only at slot 1
        assert (2, ua, b) in lam.vertices and uab in lam_prime.vertices
        assert (1, uab, t0) in lam.vertices and not lam.successors((2, ua, b))
        assert (ua, uab) not in lam_prime.edges
        assert len(lam_prime.edges) == 3

    @settings(max_examples=60, deadline=None)
    @given(narrow_universes(), st.sampled_from(["none", "nft", "slot"]))
    def test_successors_match_brute_force_on_narrow_intervals(self, universe, policy):
        u0, txs, initial_slots, slots = universe
        hook = {
            "none": None,
            "nft": nft_contract(b"NFT").additional_checks,
            "slot": lambda q, u, t: q != 2,  # a pure hook that reads the slot
        }[policy]
        lam = build_ledger_graph([u0], initial_slots, txs, slots, hook)
        assert_ledger_successors(lam, [u0], initial_slots, txs, slots, hook)
        assert_projected_edges(lam, txs, slots, hook)
