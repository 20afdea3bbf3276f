import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poset_oracle as oracle
from conftest import gen_traces, out, tx_of
from ledgerlab.core import (
    LedgerStep,
    OutputRef,
    TxInput,
    UtxoSet,
    hash_tx,
    mk_outs,
)
from ledgerlab.gen import make_scenario
from ledgerlab.properties import (
    AnnotatedRun,
    ReplayRejection,
    TxPoset,
    assign_slots,
    build_tx_poset,
    canonical_presentation,
    check_commutativity,
    check_disjointness,
    check_replay_protection,
    check_trivial_update_protection,
    check_well_founded,
    enumerate_valid_permutations,
    replay_sequence,
)


def run_from_trace(scenario, trace) -> AnnotatedRun:
    slots = [slot for slot, _ in trace.annotations]
    txs = [tx for _, tx in trace.annotations]
    outcome = replay_sequence(scenario.initial_utxo, slots, txs)
    assert isinstance(outcome, AnnotatedRun)
    return outcome


def fabricate(initial, triples) -> AnnotatedRun:
    """Chain (slot, tx, after) triples into a run without re-validating."""
    steps = []
    before = initial
    for slot, tx, after in triples:
        steps.append(LedgerStep(slot, before, tx, after))
        before = after
    return AnnotatedRun(initial, tuple(steps))


class TestAnnotatedRun:
    def test_empty_run(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        run = AnnotatedRun(u0)
        assert len(run) == 0
        assert run.final == u0

    def test_chaining_enforced(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        u1 = mk_outs(tx_of((), [out("h")]))
        step = LedgerStep(0, u1, tx_of((), [out("x")]), u1)
        with pytest.raises(ValueError):
            AnnotatedRun(u0, (step,))

    def test_final_and_accessors(self, scenario):
        trace = gen_traces(scenario, depth=4, count=1, seed=1)[0]
        run = run_from_trace(scenario, trace)
        assert run.final == trace.states[-1]
        assert len(run.txs()) == len(run)
        for i in range(len(run)):
            assert run.spent_refs(i) and run.created_refs(i)


class TestWellFounded:
    def test_empty_state(self):
        assert check_well_founded(UtxoSet(), [])

    def test_genesis_built_state(self, scenario):
        assert check_well_founded(scenario.initial_utxo, scenario.genesis_txs)

    def test_missing_genesis_tx(self, scenario):
        verdict = check_well_founded(scenario.initial_utxo, [])
        assert verdict.reason == "non-genesis-key"

    def test_tx_with_inputs_does_not_found(self):
        spender = tx_of(
            [TxInput(OutputRef(b"h", 0), out("p"))], [out("q")]
        )
        verdict = check_well_founded(mk_outs(spender), [spender])
        assert verdict.reason == "non-genesis-key"

    def test_output_mismatch(self):
        genesis = tx_of((), [out("g")])
        tampered = UtxoSet({OutputRef(hash_tx(genesis), 0): out("forged")})
        verdict = check_well_founded(tampered, [genesis])
        assert verdict.reason == "output-mismatch"


class TestReplayProtection:
    def test_generated_runs_are_clean(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=10, seed=2):
            assert check_replay_protection(run_from_trace(scenario, trace))

    def test_duplicate_tx_reported_with_minimal_pair(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        t_a = tx_of((), [out("p")], interval=(0, 1))
        t_b = tx_of((), [out("q")], interval=(0, 1))
        run = fabricate(
            u0,
            [(0, t_a, u0), (0, t_b, u0), (0, t_a, u0), (0, t_a, u0)],
        )
        verdict = check_replay_protection(run)
        assert not verdict
        assert verdict.witness == (0, 2)

    def test_empty_run_is_clean(self):
        assert check_replay_protection(AnnotatedRun(UtxoSet()))


class TestTrivialUpdateProtection:
    def test_generated_runs_are_clean(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=10, seed=3):
            assert check_trivial_update_protection(
                run_from_trace(scenario, trace)
            )

    def test_recurring_state_reported(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        u1 = mk_outs(tx_of((), [out("h")]))
        t = tx_of((), [out("p")], interval=(0, 1))
        run = fabricate(u0, [(0, t, u1), (0, t, u0)])
        verdict = check_trivial_update_protection(run)
        assert not verdict
        assert verdict.witness == (0, 2)

    def test_empty_run_is_clean(self):
        assert check_trivial_update_protection(AnnotatedRun(UtxoSet()))


class TestDisjointness:
    def test_generated_runs_are_clean(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=10, seed=4):
            assert check_disjointness(run_from_trace(scenario, trace))

    def test_initial_state_disjoint_from_created(self, scenario):
        trace = gen_traces(scenario, depth=5, count=1, seed=5)[0]
        run = run_from_trace(scenario, trace)
        u0_keys = run.initial.keys()
        for i in range(len(run)):
            assert not (u0_keys & run.created_refs(i))

    def test_overlapping_creations_detected(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        t = tx_of((), [out("p")], interval=(0, 1))
        run = fabricate(u0, [(0, t, u0), (0, t, u0)])
        verdict = check_disjointness(run)
        assert verdict.witness[0] == "created-overlap"

    def test_empty_run_is_clean(self):
        assert check_disjointness(AnnotatedRun(UtxoSet()))


class TestCommutativity:
    def test_same_run_commutes_with_itself(self, scenario):
        trace = gen_traces(scenario, depth=5, count=1, seed=6)[0]
        run = run_from_trace(scenario, trace)
        assert check_commutativity(run, run)

    def test_independent_pair_in_both_orders(self):
        genesis = tx_of((), [out("g0"), out("g1")])
        u0 = mk_outs(genesis)
        h = hash_tx(genesis)
        t_a = tx_of([TxInput(OutputRef(h, 0), genesis.outputs[0])], [out("a")])
        t_b = tx_of([TxInput(OutputRef(h, 1), genesis.outputs[1])], [out("b")])
        fwd = replay_sequence(u0, [0, 0], [t_a, t_b])
        rev = replay_sequence(u0, [0, 0], [t_b, t_a])
        assert isinstance(fwd, AnnotatedRun) and isinstance(rev, AnnotatedRun)
        assert check_commutativity(fwd, rev)

    def test_preconditions_enforced(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        u1 = mk_outs(tx_of((), [out("h")]))
        with pytest.raises(ValueError):
            check_commutativity(AnnotatedRun(u0), AnnotatedRun(u1))
        t = tx_of((), [out("p")], interval=(0, 1))
        with_step = fabricate(u0, [(0, t, u1)])
        with pytest.raises(ValueError):
            check_commutativity(AnnotatedRun(u0), with_step)


class TestPoset:
    def test_chain(self, scenario):
        trace = gen_traces(scenario, depth=4, count=1, seed=30)[0]
        run = run_from_trace(scenario, trace)
        poset = build_tx_poset(run)
        assert poset.indices == tuple(range(len(run)))
        assert all(lv >= 0 for lv in poset.levels)

    def test_independent_txs_at_level_zero(self):
        genesis = tx_of((), [out("g0"), out("g1")])
        u0 = mk_outs(genesis)
        h = hash_tx(genesis)
        t_a = tx_of([TxInput(OutputRef(h, 0), genesis.outputs[0])], [out("a")])
        t_b = tx_of([TxInput(OutputRef(h, 1), genesis.outputs[1])], [out("b")])
        run = replay_sequence(u0, [0, 0], [t_a, t_b])
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0)
        assert poset.less_than == frozenset()
        assert not poset.comparable(0, 1)

    def test_level_zero_iff_spending_only_initial_keys(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=6, seed=31):
            run = run_from_trace(scenario, trace)
            poset = build_tx_poset(run)
            u0_keys = run.initial.keys()
            for i in range(len(run)):
                expected = run.spent_refs(i) <= u0_keys
                assert (poset.levels[i] == 0) == expected

    def test_eight_tx_levels_and_canonical_order(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [1] * 8, txs)
        assert isinstance(run, AnnotatedRun)
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0, 1, 0, 2, 2, 1, 3)
        assert canonical_presentation(poset) == [0, 1, 3, 2, 6, 4, 5, 7]

    def test_eight_tx_hasse_diagram(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [1] * 8, txs)
        poset = build_tx_poset(run)
        assert poset.hasse_edges() == frozenset(
            [(2, 1), (4, 0), (4, 2), (4, 3), (5, 2), (5, 3), (6, 1), (6, 3),
             (7, 5), (7, 6)]
        )

    def test_unrelated_spends_stay_independent(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        r1 = OutputRef(b"x1", 0)
        r2 = OutputRef(b"x2", 0)
        t_a = tx_of([TxInput(r1, out("p"))], [out("q")])
        t_b = tx_of([TxInput(r2, out("r"))], [out("s")])
        run = fabricate(u0, [(0, t_a, u0), (0, t_b, u0)])
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0)
        assert poset.less_than == frozenset()


class TestPermutations:
    def test_singleton(self):
        poset = TxPoset((0,), frozenset())
        perms = enumerate_valid_permutations(poset, cap=10)
        assert perms.sequences == ((0,),)
        assert not perms.capped

    def test_two_independent(self):
        poset = TxPoset((0, 1), frozenset())
        perms = enumerate_valid_permutations(poset, cap=10)
        assert set(perms.sequences) == {(0, 1), (1, 0)}

    def test_two_dependent(self):
        poset = TxPoset((0, 1), frozenset([(1, 0)]))
        perms = enumerate_valid_permutations(poset, cap=10)
        assert perms.sequences == ((0, 1),)

    def test_cap_flags_truncation(self):
        poset = TxPoset((0, 1, 2), frozenset())
        perms = enumerate_valid_permutations(poset, cap=2)
        assert perms.capped
        assert len(perms.sequences) == 2

    def test_reachable_set_is_the_linear_extensions(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [1] * 8, txs)
        poset = build_tx_poset(run)
        perms = enumerate_valid_permutations(poset, cap=100000)
        assert not perms.capped
        clo = poset.closure()

        def is_linear_extension(seq):
            pos = {v: k for k, v in enumerate(seq)}
            return all(pos[j] < pos[i] for i, j in clo)

        for seq in perms.sequences:
            assert is_linear_extension(seq)
        # spot-check completeness on a thinned sample of all 8! orders
        count = sum(
            1
            for seq in itertools.permutations(range(8))
            if is_linear_extension(seq)
        )
        assert count == len(perms.sequences)

    def test_alternate_order_from_worked_example(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [1] * 8, txs)
        poset = build_tx_poset(run)
        perms = enumerate_valid_permutations(poset, cap=100000)
        alt = (3, 1, 6, 2, 5, 7, 0, 4)
        assert alt in perms.sequences
        slots = assign_slots([txs[i] for i in alt])
        replayed = replay_sequence(u0, slots, [txs[i] for i in alt])
        assert isinstance(replayed, AnnotatedRun)
        assert check_commutativity(run, replayed)

    def test_all_valid_permutations_commute(self, scenario):
        for trace in gen_traces(scenario, depth=5, count=4, seed=55):
            run = run_from_trace(scenario, trace)
            txs = list(run.txs())
            finals = set()
            for order in itertools.permutations(range(len(txs))):
                permuted = [txs[i] for i in order]
                slots = assign_slots(permuted)
                if slots is None:
                    continue
                replayed = replay_sequence(run.initial, slots, permuted)
                if isinstance(replayed, ReplayRejection):
                    continue
                finals.add(replayed.final)
            assert finals == {run.final}


@st.composite
def acyclic_relations(draw, max_n=7):
    """(n, less_than) on range(n); labels are shuffled, so j > i occurs."""
    n = draw(st.integers(0, max_n))
    label = draw(st.permutations(range(n)))
    ranked = [(a, b) for a in range(n) for b in range(a)]
    chosen = draw(st.sets(st.sampled_from(ranked))) if ranked else set()
    return n, frozenset((label[a], label[b]) for a, b in chosen)


class TestPosetOracle:
    """The one-pass poset against the replaced fixed-point code."""

    @settings(max_examples=150, deadline=None)
    @given(acyclic_relations())
    def test_matches_oracle(self, drawn):
        n, less_than = drawn
        poset = TxPoset(tuple(range(n)), less_than)
        assert poset.levels == oracle.levels(n, less_than)
        assert poset.closure() == oracle.closure(less_than)
        assert poset.hasse_edges() == oracle.hasse_edges(n, less_than)
        for i, j in itertools.product(range(n), repeat=2):
            assert poset.comparable(i, j) == oracle.comparable(less_than, i, j)
        for cap in (1, 5, 10 ** 5):
            perms = enumerate_valid_permutations(poset, cap)
            expected = oracle.enumerate_valid_permutations(n, less_than, cap)
            assert (perms.sequences, perms.capped) == expected

    @settings(max_examples=50, deadline=None)
    @given(acyclic_relations(), st.data())
    def test_cycle_raises(self, drawn, data):
        n, less_than = drawn
        clo = sorted(oracle.closure(less_than))
        if not clo:
            n, less_than, clo = max(n, 2), frozenset([(0, 1)]), [(0, 1)]
        a, b = data.draw(st.sampled_from(clo))
        cyclic = less_than | {(b, a)}
        with pytest.raises(RuntimeError):
            oracle.levels(n, cyclic)
        with pytest.raises(RuntimeError):
            TxPoset(tuple(range(n)), cyclic)

    def test_k_sets_on_generated_runs(self, scenario):
        for trace in gen_traces(scenario, depth=8, count=6, seed=41):
            run = run_from_trace(scenario, trace)
            expected = oracle.relation(oracle.k_sets(run))
            assert build_tx_poset(run).less_than == expected

    def test_repeated_tx_depends_on_every_creator(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        t_a = tx_of((), [out("p")])
        t_b = tx_of([TxInput(OutputRef(hash_tx(t_a), 0), out("p"))], [out("q")])
        run = fabricate(u0, [(0, t_a, u0), (0, t_b, u0), (0, t_a, u0)])
        poset = build_tx_poset(run)
        assert poset.less_than == oracle.relation(oracle.k_sets(run))
        assert poset.less_than == frozenset([(1, 0), (1, 2)])


class TestReplayDriver:
    def test_empty_sequence(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        run = replay_sequence(u0, [], [])
        assert isinstance(run, AnnotatedRun)
        assert run.final == u0

    def test_arity_and_monotonicity_validated(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        with pytest.raises(ValueError):
            replay_sequence(u0, [0], [])
        t = tx_of([TxInput(OutputRef(b"h", 0), out("p"))], [out("q")])
        with pytest.raises(ValueError):
            replay_sequence(u0, [2, 1], [t, t])

    def test_rejection_carries_position_and_reason(self):
        genesis = tx_of((), [out("g")])
        u0 = mk_outs(genesis)
        spend = tx_of(
            [TxInput(OutputRef(hash_tx(genesis), 0), genesis.outputs[0])],
            [out("p")],
        )
        outcome = replay_sequence(u0, [0, 0], [spend, spend])
        assert isinstance(outcome, ReplayRejection)
        assert outcome.index == 1
        assert outcome.reason == "missing-input"


class TestAssignSlots:
    def test_empty(self):
        assert assign_slots([]) == []

    def test_shared_slot_when_intervals_intersect(self):
        txs = [
            tx_of((), [out("a")], interval=(2, 9)),
            tx_of((), [out("b")], interval=(5, 7)),
        ]
        assert assign_slots(txs) == [5, 5]

    def test_greedy_when_disjoint(self):
        txs = [
            tx_of((), [out("a")], interval=(0, 2)),
            tx_of((), [out("b")], interval=(4, 6)),
        ]
        assert assign_slots(txs) == [0, 4]

    def test_impossible_order(self):
        txs = [
            tx_of((), [out("a")], interval=(4, 6)),
            tx_of((), [out("b")], interval=(0, 2)),
        ]
        assert assign_slots(txs) is None
