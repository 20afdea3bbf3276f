import contextlib
import inspect
import itertools
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import poset_oracle as oracle
import run_oracle
from conftest import gen_traces, out, output_comparisons, tx_of
from run_oracle import assign_slots
from ledgerlab import core, properties, serialize
from ledgerlab.cli import MONITORS
from ledgerlab.contracts import nft_contract
from ledgerlab.core import (
    CheckResult,
    Output,
    OutputRef,
    UtxoSet,
    _sorted_items,
    get_orefs,
    hash_tx,
    mk_outs,
)
from ledgerlab.gen import make_scenario
from ledgerlab.properties import (
    TxPoset,
    build_tx_poset,
    canonical_presentation,
    check_disjointness,
    check_replay_protection,
    check_trivial_update_protection,
    check_well_founded,
    enumerate_valid_permutations,
    replay_sequence,
    valid_orders,
)
from ledgerlab.traces import TracePrefix, validate_trace_prefix


def run_from_trace(scenario, trace) -> TracePrefix:
    outcome = replay_sequence(scenario.initial_utxo, trace.annotations)
    assert isinstance(outcome, TracePrefix)
    return outcome


def fabricate(initial, triples) -> TracePrefix:
    """Chain (slot, tx, after) triples into a run without re-validating."""
    states = (initial,) + tuple(after for _, _, after in triples)
    return TracePrefix(states, tuple((slot, tx) for slot, tx, _ in triples))


class TestRunIsTracePrefix:
    def test_empty_run(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        run = fabricate(u0, [])
        assert len(run) == 1 and run.annotations == ()
        assert run.states[-1] == u0

    def test_one_annotation_per_step(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        u1 = mk_outs(tx_of((), [out("h")]))
        with pytest.raises(ValueError):
            TracePrefix((u0,), ((0, tx_of((), [out("x")])),))
        with pytest.raises(ValueError):
            TracePrefix((u0, u1), ())

    def test_final_state_and_steps(self, scenario):
        trace = gen_traces(scenario, depth=4, count=1, seed=1)[0]
        run = run_from_trace(scenario, trace)
        assert run.states[-1] == trace.states[-1]
        assert len(run.annotations) == len(run) - 1
        for _, tx in run.annotations:
            assert get_orefs(tx) and mk_outs(tx).keys()


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
            [(OutputRef(b"h", 0), out("p"))], [out("q")]
        )
        verdict = check_well_founded(mk_outs(spender), [spender])
        assert verdict.reason == "non-genesis-key"

    @pytest.mark.parametrize("index, tag", [(0, "forged"), (1, "g")])
    def test_output_mismatch(self, index, tag):
        # a forged output, or an index past the genesis tx's outputs
        genesis = tx_of((), [out("g")])
        tampered = UtxoSet({OutputRef(hash_tx(genesis), index): out(tag)})
        verdict = check_well_founded(tampered, [genesis])
        assert verdict.reason == "output-mismatch"

    @pytest.mark.parametrize("foreign_hash, reason", [
        (b"\x00", "non-genesis-key"), (b"\xff" * 33, "output-mismatch")])
    @pytest.mark.parametrize("foreign_first", [True, False])
    def test_least_failing_ref_names_the_reason(self, foreign_hash, reason,
                                                foreign_first):
        # the reason a scan in canonical order meets first, whatever order
        # the state's entries were inserted in
        genesis = tx_of((), [out("g"), out("h")])
        h = hash_tx(genesis)
        failing = [(OutputRef(foreign_hash, 0), out("f")),
                   (OutputRef(h, 0), out("forged"))]
        if not foreign_first:
            failing.reverse()
        tampered = UtxoSet(dict([(OutputRef(h, 1), out("h"))] + failing))
        verdict = check_well_founded(tampered, [genesis])
        assert verdict.reason == reason


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
        assert check_replay_protection(fabricate(UtxoSet(), []))


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
        assert check_trivial_update_protection(fabricate(UtxoSet(), []))


class TestDisjointness:
    def test_generated_runs_are_clean(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=10, seed=4):
            assert check_disjointness(run_from_trace(scenario, trace))

    def test_initial_state_disjoint_from_created(self, scenario):
        trace = gen_traces(scenario, depth=5, count=1, seed=5)[0]
        run = run_from_trace(scenario, trace)
        u0_keys = run.states[0].keys()
        for _, tx in run.annotations:
            assert not (u0_keys & mk_outs(tx).keys())

    def test_overlapping_creations_detected(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        t = tx_of((), [out("p")], interval=(0, 1))
        run = fabricate(u0, [(0, t, u0), (0, t, u0)])
        verdict = check_disjointness(run)
        assert verdict.witness[0] == "created-overlap"

    def test_empty_run_is_clean(self):
        assert check_disjointness(fabricate(UtxoSet(), []))


def planted(draw, n):
    """range(n) with up to three repeats planted: position j copies position i."""
    ids = list(range(n))
    if n > 1:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=3)):
            if i < j:
                ids[j] = ids[i]
    return ids


def spender(k, also=()):
    """Pool tx k: it spends s_k and each s_a for a in ``also``."""
    refs = [k] + sorted(set(also) - {k})
    return tx_of([(OutputRef(b"s%d" % a, 0), out("i%d" % a)) for a in refs],
                 [out("o%d" % k)])


def twin(k):
    """Pool state k >= 1; twins 2m and 2m + 1 share refs but not outputs."""
    return UtxoSet({OutputRef(b"st%d" % (k // 2), 0): out("v%d" % k)})


@st.composite
def planted_runs(draw, max_steps=8):
    """A fabricated run with repeated txs, repeated states, a u0 that holds
    some created refs and txs that spend each other's refs, all planted at
    random positions."""
    n = draw(st.integers(0, max_steps))
    also = {k: draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
            for k in range(n)}
    pool = [spender(k, also[k]) for k in range(n)]
    entries = dict(mk_outs(tx_of((), [out("g")])).entries)
    for k in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)) if n else ():
        entries.update(mk_outs(pool[k]).entries)
    u0 = UtxoSet(entries)
    states = [u0] + [twin(k) for k in range(1, n + 1)]
    return TracePrefix(
        tuple(states[k] for k in planted(draw, n + 1)),
        tuple((0, pool[k]) for k in planted(draw, n)),
    )


def tx_run(*tags):
    """A run whose k-th step applies the tx named ``tags[k]``."""
    u0 = mk_outs(tx_of((), [out("g")]))
    return fabricate(u0, [(0, tx_of((), [out(t)]), u0) for t in tags])


def state_run(*tags):
    """A run whose states after u0 are the one-entry states named ``tags``."""
    u0 = mk_outs(tx_of((), [out("g")]))
    t = tx_of((), [out("p")])
    return fabricate(u0, [(0, t, mk_outs(tx_of((), [out(tag)]))) for tag in tags])


class TestLeastShared:
    """One-pass repeat and overlap scans against the pairwise oracles."""

    CHECKS = (
        (check_replay_protection, run_oracle.check_replay_protection),
        (check_trivial_update_protection, run_oracle.check_trivial_update_protection),
        (check_disjointness, run_oracle.check_disjointness),
    )

    @settings(max_examples=300, deadline=None)
    @given(planted_runs())
    def test_matches_pairwise_oracles(self, run):
        for check, plain in self.CHECKS:
            assert check(run) == plain(run)

    @settings(max_examples=100, deadline=None)
    @given(planted_runs())
    def test_duplicate_tx_monitor_matches_set_predicate(self, run):
        bad = MONITORS["duplicate-tx"]
        for n in range(1, len(run) + 1):
            head = run.head(n)
            assert bad(head) == run_oracle.duplicate_tx(head)
        plain = TracePrefix(run.states, None)
        assert not bad(plain) and not run_oracle.duplicate_tx(plain)

    def test_least_pair_is_not_the_first_closed(self):
        # a b b a: (1, 2) closes first, but (0, 3) comes first in
        # combinations order
        assert check_replay_protection(tx_run("a", "b", "b", "a")).witness == (0, 3)
        assert check_trivial_update_protection(
            state_run("a", "b", "b", "a")
        ).witness == (1, 4)

    def test_triple_reports_first_two(self):
        assert check_replay_protection(tx_run("a", "a", "a")).witness == (0, 1)
        assert check_trivial_update_protection(
            state_run("a", "a", "a")
        ).witness == (1, 2)

    def test_u0_overlaps_created(self):
        t_a, t_b = tx_of((), [out("a")]), tx_of((), [out("b")])
        u0 = UtxoSet({**mk_outs(tx_of((), [out("g")])).entries,
                      **mk_outs(t_b).entries})
        run = fabricate(u0, [(0, t_a, u0), (0, t_b, u0)])
        assert check_disjointness(run).witness == ("created-overlap", "u0", "c1")

    def test_spent_overlap(self):
        run = fabricate(UtxoSet(), [(0, spender(k, also), UtxoSet())
                                    for k, also in ((0, ()), (1, (2,)), (2, ()))])
        assert check_disjointness(run).witness == ("spent-overlap", 1, 2)

    def test_twin_states_hash_equal_and_are_not_repeats(self):
        a, b = twin(2), twin(3)
        assert hash(a) == hash(b) and a != b
        run = fabricate(a, [(0, tx_of((), [out("p")]), b)])
        assert check_trivial_update_protection(run)


class TestCommutativity:
    def test_independent_pair_in_both_orders(self):
        genesis = tx_of((), [out("g0"), out("g1")])
        u0 = mk_outs(genesis)
        h = hash_tx(genesis)
        t_a = tx_of([(OutputRef(h, 0), genesis.outputs[0])], [out("a")])
        t_b = tx_of([(OutputRef(h, 1), genesis.outputs[1])], [out("b")])
        fwd = replay_sequence(u0, [(0, t_a), (0, t_b)])
        rev = replay_sequence(u0, [(0, t_b), (0, t_a)])
        assert isinstance(fwd, TracePrefix) and isinstance(rev, TracePrefix)
        assert fwd.states[-1] == rev.states[-1]


class TestPoset:
    def test_chain(self, scenario):
        trace = gen_traces(scenario, depth=4, count=1, seed=30)[0]
        run = run_from_trace(scenario, trace)
        poset = build_tx_poset(run)
        assert poset.size == len(run.annotations)
        assert all(lv >= 0 for lv in poset.levels)

    def test_independent_txs_at_level_zero(self):
        genesis = tx_of((), [out("g0"), out("g1")])
        u0 = mk_outs(genesis)
        h = hash_tx(genesis)
        t_a = tx_of([(OutputRef(h, 0), genesis.outputs[0])], [out("a")])
        t_b = tx_of([(OutputRef(h, 1), genesis.outputs[1])], [out("b")])
        run = replay_sequence(u0, [(0, t_a), (0, t_b)])
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0)
        assert poset.less_than == frozenset()
        assert not poset.comparable(0, 1)

    def test_level_zero_iff_spending_only_initial_keys(self, scenario):
        for trace in gen_traces(scenario, depth=6, count=6, seed=31):
            run = run_from_trace(scenario, trace)
            poset = build_tx_poset(run)
            u0_keys = run.states[0].keys()
            for i, (_, tx) in enumerate(run.annotations):
                expected = get_orefs(tx) <= u0_keys
                assert (poset.levels[i] == 0) == expected

    def test_eight_tx_levels_and_canonical_order(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [(1, tx) for tx in txs])
        assert isinstance(run, TracePrefix)
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0, 1, 0, 2, 2, 1, 3)
        assert canonical_presentation(poset) == [0, 1, 3, 2, 6, 4, 5, 7]

    def test_eight_tx_hasse_diagram(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [(1, tx) for tx in txs])
        poset = build_tx_poset(run)
        assert oracle.hasse_edges(8, poset.less_than) == frozenset(
            [(2, 1), (4, 0), (4, 2), (4, 3), (5, 2), (5, 3), (6, 1), (6, 3),
             (7, 5), (7, 6)]
        )

    def test_unrelated_spends_stay_independent(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        r1 = OutputRef(b"x1", 0)
        r2 = OutputRef(b"x2", 0)
        t_a = tx_of([(r1, out("p"))], [out("q")])
        t_b = tx_of([(r2, out("r"))], [out("s")])
        run = fabricate(u0, [(0, t_a, u0), (0, t_b, u0)])
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0)
        assert poset.less_than == frozenset()


class TestPermutations:
    def test_singleton(self):
        poset = TxPoset(1, frozenset())
        perms = enumerate_valid_permutations(poset, cap=10)
        assert perms.sequences == ((0,),)
        assert not perms.capped

    def test_two_independent(self):
        poset = TxPoset(2, frozenset())
        perms = enumerate_valid_permutations(poset, cap=10)
        assert set(perms.sequences) == {(0, 1), (1, 0)}

    def test_two_dependent(self):
        poset = TxPoset(2, frozenset([(1, 0)]))
        perms = enumerate_valid_permutations(poset, cap=10)
        assert perms.sequences == ((0, 1),)

    def test_cap_flags_truncation(self):
        poset = TxPoset(3, frozenset())
        perms = enumerate_valid_permutations(poset, cap=2)
        assert perms.capped
        assert len(perms.sequences) == 2

    def test_cap_below_one_is_refused(self):
        # the CLI's --cap parser refuses first, so only a caller reaches this
        with pytest.raises(ValueError, match="cap must be at least 1"):
            enumerate_valid_permutations(TxPoset(1, frozenset()), 0)

    def test_reachable_set_is_the_linear_extensions(self, eight_tx):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [(1, tx) for tx in txs])
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
        run = replay_sequence(u0, [(1, tx) for tx in txs])
        poset = build_tx_poset(run)
        perms = enumerate_valid_permutations(poset, cap=100000)
        alt = (3, 1, 6, 2, 5, 7, 0, 4)
        assert alt in perms.sequences
        slots = assign_slots([txs[i] for i in alt])
        replayed = replay_sequence(u0, list(zip(slots, [txs[i] for i in alt])))
        assert isinstance(replayed, TracePrefix)
        assert replayed.states[-1] == run.states[-1]

    def test_all_valid_permutations_commute(self, scenario):
        for trace in gen_traces(scenario, depth=5, count=4, seed=55):
            run = run_from_trace(scenario, trace)
            txs = [tx for _, tx in run.annotations]
            finals = set()
            for order in itertools.permutations(range(len(txs))):
                permuted = [txs[i] for i in order]
                slots = assign_slots(permuted)
                if slots is None:
                    continue
                replayed = replay_sequence(run.states[0], list(zip(slots, permuted)))
                if isinstance(replayed, CheckResult):
                    continue
                finals.add(replayed.states[-1])
            assert finals == {run.states[-1]}


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
        poset = TxPoset(n, less_than)
        assert poset.levels == oracle.levels(n, less_than)
        assert poset.closure() == oracle.closure(less_than)
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
            TxPoset(n, cyclic)

    def test_k_sets_on_generated_runs(self, scenario):
        for trace in gen_traces(scenario, depth=8, count=6, seed=41):
            run = run_from_trace(scenario, trace)
            expected = oracle.relation(oracle.k_sets(run))
            assert build_tx_poset(run).less_than == expected

    def test_repeated_tx_depends_on_every_creator(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        t_a = tx_of((), [out("p")])
        t_b = tx_of([(OutputRef(hash_tx(t_a), 0), out("p"))], [out("q")])
        run = fabricate(u0, [(0, t_a, u0), (0, t_b, u0), (0, t_a, u0)])
        poset = build_tx_poset(run)
        assert poset.less_than == oracle.relation(oracle.k_sets(run))
        assert poset.less_than == frozenset([(1, 0), (1, 2)])


class TestReplayDriver:
    def test_empty_sequence(self):
        u0 = mk_outs(tx_of((), [out("g")]))
        run = replay_sequence(u0, [])
        assert isinstance(run, TracePrefix)
        assert run == fabricate(u0, [])

    def test_arity_and_monotonicity_validated(self):
        genesis = tx_of((), [out("g")])
        u0 = mk_outs(genesis)
        t = tx_of(
            [(OutputRef(hash_tx(genesis), 0), genesis.outputs[0])], [out("q")]
        )
        # the slot is checked before the step, so this is not missing-input
        assert replay_sequence(u0, [(2, t), (1, t)]) == CheckResult(
            False, "slots-decreasing", 1
        )

    def test_rejection_carries_position_and_reason(self):
        genesis = tx_of((), [out("g")])
        u0 = mk_outs(genesis)
        spend = tx_of(
            [(OutputRef(hash_tx(genesis), 0), genesis.outputs[0])],
            [out("p")],
        )
        outcome = replay_sequence(u0, [(0, spend), (0, spend)])
        assert isinstance(outcome, CheckResult)
        assert outcome.witness == 1
        assert outcome.reason == "missing-input"

    @pytest.mark.parametrize("token", [None, b"NFT"], ids=["plain", "token"])
    @pytest.mark.parametrize("seed", range(4))
    def test_replay_rebuilds_generated_traces(self, seed, token):
        sc = make_scenario(seed, n_outputs=6)
        hook = nft_contract(token).additional_checks if token else None
        traces = gen_traces(
            sc, depth=8, count=4, seed=seed, token=token, hook=hook
        )
        for t in traces:
            replayed = replay_sequence(t.states[0], t.annotations)
            assert replayed == TracePrefix(t.states, t.annotations)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_validation_agrees_with_replay(self, data):
        """``validate_trace_prefix`` passes a prefix exactly when replaying its
        steps from its first state rebuilds it, on generated traces with a
        lowered slot, two swapped steps, an altered state or a dropped step."""
        seed = data.draw(st.integers(0, 30), label="seed")
        token = data.draw(st.sampled_from([None, b"NFT"]), label="token")
        sc = make_scenario(seed, n_outputs=data.draw(st.integers(1, 6)), token=token)
        hook = nft_contract(token).additional_checks if token else None
        trace = gen_traces(sc, depth=data.draw(st.integers(1, 8)), count=1,
                           seed=seed, token=token, hook=hook)[0]
        states, steps = list(trace.states), list(trace.annotations)
        mutation = data.draw(st.sampled_from(["none", "slot", "swap", "state", "drop"]))
        pick = st.integers(0, max(len(steps) - 1, 0))
        if mutation == "state":
            i = data.draw(st.integers(0, len(states) - 1), label="state")
            entries = list(states[i].entries.items())
            states[i] = data.draw(st.sampled_from(
                [UtxoSet(dict(entries[1:])), sc.initial_utxo] + states), label="to")
        elif steps and mutation == "slot":
            k = data.draw(pick, label="step")
            slot, tx = steps[k]
            steps[k] = (slot - data.draw(st.integers(1, 3), label="by"), tx)
        elif steps and mutation == "swap":
            i, j = data.draw(pick, label="i"), data.draw(pick, label="j")
            steps[i], steps[j] = steps[j], steps[i]
        elif steps and mutation == "drop":
            k = data.draw(pick, label="step")
            del steps[k], states[k + 1]
        prefix = TracePrefix(states, steps)
        clean = bool(validate_trace_prefix(prefix, []))
        assert clean == (replay_sequence(prefix.states[0], prefix.annotations) == prefix)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_step_spends_present_refs_and_creates_fresh_ones(
        self, non_well_founded, data
    ):
        """The per-step shape ``check_disjointness`` leaves to replay."""
        if data.draw(st.booleans(), label="non-well-founded"):
            u0, pool = non_well_founded
        else:
            token = data.draw(st.sampled_from([None, b"NFT"]), label="token")
            seed = data.draw(st.integers(0, 30), label="seed")
            sc = make_scenario(seed, n_outputs=data.draw(st.integers(1, 6)),
                               token=token)
            hook = nft_contract(token).additional_checks if token else None
            trace = gen_traces(sc, depth=data.draw(st.integers(1, 6)), count=1,
                               seed=seed, token=token, hook=hook)[0]
            u0, pool = sc.initial_utxo, [tx for _, tx in trace.annotations]
        orders = [st.just(pool), st.permutations(pool)]
        if pool:
            orders.append(
                st.lists(st.sampled_from(pool), min_size=1, max_size=2 * len(pool))
            )
        txs = data.draw(st.one_of(orders), label="txs")
        slots = assign_slots(txs)
        assert slots is not None
        run = replay_sequence(u0, list(zip(slots, txs)))
        if isinstance(run, CheckResult):
            return
        for k, (_, tx) in enumerate(run.annotations):
            before, after = run.states[k].keys(), run.states[k + 1].keys()
            spent, created = get_orefs(tx), mk_outs(tx).keys()
            assert spent <= before
            assert not created & (before - spent)
            assert after == (before - spent) | created


def replayed_orders(u0, txs, sequences):
    """The oracle of ``valid_orders``: assign_slots and replay_sequence per order."""
    valid = []
    for seq in sequences:
        ordered = [txs[i] for i in seq]
        slots = assign_slots(ordered)
        if slots is None:
            continue
        if not isinstance(replay_sequence(u0, list(zip(slots, ordered))), CheckResult):
            valid.append(seq)
    return valid


def mutant_walk(text, replacement, **names):
    """``valid_orders`` with ``text``, which its source holds once, replaced.

    Its globals are a copy of ``properties``' with ``names`` added.
    """
    source = textwrap.dedent(inspect.getsource(valid_orders))
    assert source.count(text) == 1
    namespace = {**vars(properties), **names}
    exec(source.replace(text, replacement), namespace)
    return namespace["valid_orders"]


def walk_calls(monkeypatch):
    """The ``check_tx`` and ``apply_tx`` calls and ``UtxoSet`` builds
    made from now on."""
    calls = {"check_tx": 0, "apply_tx": 0, "UtxoSet": 0}
    check_tx, apply_tx, post_init = core.check_tx, core.apply_tx, UtxoSet.__post_init__

    def counted_check(*args):
        calls["check_tx"] += 1
        return check_tx(*args)

    def counted_apply(utxo, tx):
        calls["apply_tx"] += 1
        return apply_tx(utxo, tx)

    def counted_post_init(self):
        calls["UtxoSet"] += 1
        post_init(self)

    monkeypatch.setattr(core, "check_tx", counted_check)
    monkeypatch.setattr(core, "apply_tx", counted_apply)
    monkeypatch.setattr(UtxoSet, "__post_init__", counted_post_init)
    return calls


def node_edges(u0, txs, sequences):
    """The distinct ((applied, slot, state), next index) edges that the
    prefixes of ``sequences``, which must all replay, take: each order
    replayed on its own at ``assign_slots``' slots."""
    edges = set()
    for seq in sequences:
        ordered = [txs[i] for i in seq]
        slots = assign_slots(ordered)
        run = replay_sequence(u0, list(zip(slots, ordered)))
        assert isinstance(run, TracePrefix)
        applied, slot = 0, 0
        for k, i in enumerate(seq):
            edges.add(((applied, slot, run.states[k]), i))
            applied, slot = applied | 1 << i, slots[k]
    return edges


_apply = core.apply_tx


def _stamped(output, size: int):
    """``output`` with ``size`` as its datum."""
    return Output(output.address, output.value, b"%d" % size)


def _order_dependent_apply(utxo, tx):
    """``apply_tx`` whose created outputs' datum is the state's size before
    the step, so that two orders of independent txs can reach different
    states."""
    stamped = {ref: _stamped(created, len(utxo))
               for ref, created in mk_outs(tx).entries.items()}
    return UtxoSet({**_apply(utxo, tx).entries, **stamped})


@contextlib.contextmanager
def order_dependent_step():
    """``_order_dependent_apply`` as ``core.apply_tx``, which ``step_ledger``
    runs for both ``valid_orders`` and ``replayed_orders``."""
    try:
        core.apply_tx = _order_dependent_apply
        yield
    finally:
        core.apply_tx = _apply


def order_dependent_txs():
    """a, b, c over g0, g1: a and b are independent, b creates two outputs,
    and c spends a's output as ``_order_dependent_apply`` writes it when a
    runs first.  After a and b, in either order, the slot and the set of
    applied txs agree, but the states differ, so only (0, 1, 2) replays.
    """
    genesis = tx_of((), [out("g0"), out("g1")])
    g = [(OutputRef(hash_tx(genesis), k), genesis.outputs[k]) for k in range(2)]
    a = tx_of([g[0]], [out("a")])
    b = tx_of([g[1]], [out("b0"), out("b1")])
    a_first = _stamped(a.outputs[0], 2)
    c = tx_of([(OutputRef(hash_tx(a), 0), a_first)], [out("c")])
    return mk_outs(genesis), [a, b, c], [(0, 1, 2), (1, 0, 2)]


@st.composite
def interval_runs(draw, max_txs=9, stamped=False):
    """(u0, txs): a random spending dag over a genesis; some intervals narrow.

    Sometimes u0 also holds the first output of one tx, so that the tx is
    refused as ``created-collides`` until a tx that spends that output ran.
    When ``stamped``, a tx claims each created output it spends as
    ``_order_dependent_apply`` writes it when the txs run in list order.
    """
    genesis = tx_of((), [out("g%d" % k) for k in range(draw(st.integers(1, 6)))])
    u0 = mk_outs(genesis)
    unspent = list(u0.items())
    plant = draw(st.booleans(), label="plant")
    size = len(u0) + plant
    txs = []
    for k in range(draw(st.integers(1, max_txs))):
        if not unspent:
            break
        spent = draw(st.lists(st.sampled_from(unspent), min_size=1, max_size=2,
                              unique=True))
        start = draw(st.integers(0, 6))
        end = draw(st.one_of(st.integers(start, start + 4), st.just(start + 50)))
        outs = [out("t%d.%d" % (k, j)) for j in range(draw(st.integers(1, 2)))]
        tx = tx_of(spent, outs, interval=(start, end))
        unspent = [c for c in unspent if c not in spent]
        unspent += [(ref, _stamped(o, size) if stamped else o)
                    for ref, o in mk_outs(tx).items()]
        size += len(outs) - len(spent)
        txs.append(tx)
    if plant:
        planted = draw(st.sampled_from(txs), label="planted")
        ref = OutputRef(hash_tx(planted), 0)
        u0 = UtxoSet({**u0.entries, ref: planted.outputs[0]})
    return u0, txs


def late_refusal():
    """Six independent txs: t2 needs slot 5 or later, t3 a slot below 3.

    Every order with t2 before t3 is refused at t3, partway through
    prefixes that later sorted orders extend.
    """
    genesis = tx_of((), [out("g%d" % k) for k in range(6)])
    u0 = mk_outs(genesis)
    intervals = {2: (5, 9), 3: (0, 3)}
    txs = [
        tx_of([(OutputRef(hash_tx(genesis), k), genesis.outputs[k])],
              [out("t%d" % k)], interval=intervals.get(k, (0, 9)))
        for k in range(6)
    ]
    return u0, txs, list(itertools.permutations(range(6)))


def generated_orders(seed, steps):
    """(u0, txs, the run's first 720 enumerated orders) of a generated run."""
    sc = make_scenario(seed, n_outputs=40)
    trace = gen_traces(sc, depth=steps + 1, count=1, seed=seed)[0]
    run = run_from_trace(sc, trace)
    assert len(run.annotations) == steps
    txs = [tx for _, tx in run.annotations]
    perms = enumerate_valid_permutations(build_tx_poset(run), 720)
    return run.states[0], txs, perms.sequences


class TestValidOrders:
    """The walk over (applied, slot, state) nodes against replaying every
    order on its own, also under a step whose result depends on the order."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_order_replay(self, data):
        """Also under ``_order_dependent_apply``, where orders that differ by
        a swap reach states that differ, and only the walk's comparison of
        states keeps them apart."""
        order_dependent = data.draw(st.booleans(), label="order-dependent step")
        u0, txs = data.draw(interval_runs(stamped=order_dependent), label="run")
        if len(txs) <= 5 and data.draw(st.booleans(), label="every order"):
            sequences = list(itertools.permutations(range(len(txs))))
        else:
            poset = build_tx_poset(fabricate(u0, [(0, tx, u0) for tx in txs]))
            cap = data.draw(st.integers(1, 400), label="cap")
            sequences = enumerate_valid_permutations(poset, cap).sequences
        entries, items = dict(u0.entries), u0.items()
        with order_dependent_step() if order_dependent else contextlib.nullcontext():
            assert valid_orders(u0, txs, sequences) == replayed_orders(u0, txs, sequences)
        assert u0.entries == entries and hash(u0) == hash(frozenset(entries))
        assert u0._items is items == _sorted_items(entries)

    def test_refusal_partway_through_a_shared_prefix(self):
        u0, txs, sequences = late_refusal()
        valid = valid_orders(u0, txs, sequences)
        assert valid == replayed_orders(u0, txs, sequences)
        assert all(seq.index(3) < seq.index(2) for seq in valid)
        assert len(valid) == 360

    def test_orders_of_unequal_length_are_refused(self, eight_tx):
        """Every order has one length: a shorter one is not judged on the
        steps it shares with the others."""
        _, u0, txs = eight_tx
        with pytest.raises(ValueError):
            valid_orders(u0, txs, [(0, 1), (0,)])

    def test_created_collides(self, non_well_founded):
        u0, txs = non_well_founded
        # refused first, t1 must leave its parent's state as it was, or t1
        # is refused again after t0 as missing-input
        for sequences in ([(0, 1), (1, 0)], [(1, 0), (0, 1)]):
            assert valid_orders(u0, txs, sequences) == [(0, 1)]
            assert replayed_orders(u0, txs, sequences) == [(0, 1)]
        run = replay_sequence(u0, [(1, tx) for tx in txs])
        canon = enumerate_valid_permutations(build_tx_poset(run), 720).sequences
        assert canon == ((1, 0),)
        assert valid_orders(u0, txs, canon) == []

    @pytest.mark.parametrize("seed, steps", [(0, 30), (1, 30), (2, 100)])
    def test_generated_runs_at_cap_720(self, seed, steps):
        u0, txs, sequences = generated_orders(seed, steps)
        valid = valid_orders(u0, txs, sequences)
        assert valid == replayed_orders(u0, txs, sequences)
        assert valid == list(sequences)

    def test_states_that_differ_keep_two_nodes(self):
        u0, txs, sequences = order_dependent_txs()
        with order_dependent_step():
            assert replayed_orders(u0, txs, sequences) == [(0, 1, 2)]
            assert valid_orders(u0, txs, sequences) == [(0, 1, 2)]

    def test_walk_that_merges_without_comparing_states_fails(self):
        """A node key that leaves out the state: the first state to reach
        an (applied, slot) pair stands for every later one."""
        u0, txs, sequences = order_dependent_txs()
        walk = mutant_walk(
            "(applied | 1 << i, after, child)",
            "first.setdefault((applied | 1 << i, after), (applied | 1 << i, after, child))",
            first={})
        with order_dependent_step():
            assert walk(u0, txs, sequences) != replayed_orders(u0, txs, sequences)

    def test_walk_that_keeps_refused_sequences_fails(self):
        """A step by ``apply_tx`` alone, which skips ``check_tx``."""
        u0, txs, sequences = late_refusal()
        walk = mutant_walk("step_ledger(after, state, tx)", "apply_tx(state, tx)",
                           apply_tx=core.apply_tx)
        assert walk(u0, txs, sequences) != replayed_orders(u0, txs, sequences)

    def test_walk_steps_each_node_edge_once(self, monkeypatch):
        """The walk checks and applies 302 steps here, one per edge between
        distinct nodes; replaying each order from the prefix it shares with
        the previous one checked 7788."""
        u0, txs, sequences = generated_orders(2, 100)
        edges = node_edges(u0, txs, sequences)
        calls = walk_calls(monkeypatch)
        assert len(valid_orders(u0, txs, sequences)) == len(sequences) == 720
        assert calls == {"check_tx": len(edges), "apply_tx": len(edges),
                         "UtxoSet": len(edges)}
        assert len(edges) == 302

    def test_walk_over_independent_txs_steps_each_down_set_edge_once(self, monkeypatch):
        """Every order of six independent txs over 10^4 entries: the down-set
        lattice has 6 * 2^5 = 192 edges."""
        genesis = tx_of((), [out("g%d" % k) for k in range(10 ** 4)])
        txs = [tx_of([(OutputRef(hash_tx(genesis), k), genesis.outputs[k])], [out("t%d" % k)])
               for k in range(6)]
        sequences = list(itertools.permutations(range(6)))
        u0 = mk_outs(genesis)
        calls = walk_calls(monkeypatch)
        assert valid_orders(u0, txs, sequences) == sequences
        assert calls["check_tx"] <= 192

    def test_walk_over_a_read_run_compares_no_outputs(self, monkeypatch):
        """A read run's inputs hold the very outputs its states hold, so
        check_tx accepts each by identity, and the node comparison finds
        equal outputs identical, without ``Output.__eq__``."""
        u0, txs, sequences = generated_orders(2, 100)
        u0, steps, _ = serialize.load_run(serialize.dump_run(u0, list(enumerate(txs))))
        calls = output_comparisons(monkeypatch)
        assert len(valid_orders(u0, [tx for _, tx in steps], sequences)) == 720
        assert calls == []


class TestAssignSlots:
    """``run_oracle.assign_slots``, the slot rule ``valid_orders`` is checked against."""

    def test_empty(self):
        assert assign_slots([]) == []

    def test_shared_slot_when_intervals_intersect(self):
        # intersecting intervals get the greedy minimal slots, not a
        # shared one: any feasible assignment validates the same order
        txs = [
            tx_of((), [out("a")], interval=(2, 9)),
            tx_of((), [out("b")], interval=(5, 7)),
        ]
        assert assign_slots(txs) == [2, 5]

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
