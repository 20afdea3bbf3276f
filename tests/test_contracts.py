import dataclasses
import random

import pytest

import contract_oracle
from conftest import gen_traces, out, tx_of
from ledgerlab.contracts import (
    BURN,
    CONTRACTS,
    MINT,
    NOOP,
    ContractSpec,
    StructuredContract,
    build_contract_graphs,
    check_contract_on_traces,
    induce_trace_map,
    nft_contract,
)
from ledgerlab.core import (
    CheckResult,
    OutputRef,
    UtxoSet,
    apply_tx,
    check_tx,
    hash_tx,
    mk_outs,
    step_ledger,
)
from ledgerlab.gen import make_proposer, make_scenario
from ledgerlab.graphs import build_ledger_graph, check_hom
from ledgerlab.traces import TracePrefix, check_non_expanding, ultra_distance

TOKEN = b"NFT"


@pytest.fixture
def nft():
    return nft_contract(TOKEN)


@pytest.fixture
def token_scenario():
    return make_scenario(21, token=TOKEN)


def nft_traces(sc, nft, count=10, seed=8, depth=5):
    return gen_traces(
        sc, depth=depth, count=count, seed=seed, token=TOKEN,
        hook=nft.additional_checks,
    )


def one_step(before, tx, after, slot=1):
    return TracePrefix((before, after), ((slot, tx),))


def len_partial():
    """Defined on non-empty states; the contract state is the entry count."""
    return StructuredContract(
        spec=ContractSpec(step=lambda s, i: s, is_initial=lambda s: True),
        pi=lambda u: len(u) if len(u) > 0 else None,
        kappa=lambda tx: NOOP,
    )


def emptying_step():
    """A one-entry state and the step that spends its only entry."""
    genesis = tx_of((), [out("g")])
    u0 = mk_outs(genesis)
    ref = OutputRef(hash_tx(genesis), 0)
    emptier = tx_of([(ref, genesis.outputs[0])], [])
    return u0, emptier, step_ledger(1, u0, emptier)


class TestKappa:
    def test_classifies_mint(self, nft):
        tx = tx_of(
            [(OutputRef(b"h", 0), out("p"))],
            [out("q", token=TOKEN, token_qty=1)],
        )
        assert nft.kappa(tx) == MINT

    def test_classifies_burn(self, nft):
        tx = tx_of(
            [(OutputRef(b"h", 0), out("p", token=TOKEN, token_qty=1))],
            [out("q")],
        )
        assert nft.kappa(tx) == BURN

    def test_classifies_move_as_noop(self, nft):
        tx = tx_of(
            [(OutputRef(b"h", 0), out("p", token=TOKEN, token_qty=1))],
            [out("q", token=TOKEN, token_qty=1)],
        )
        assert nft.kappa(tx) == NOOP

    def test_token_free_tx_is_noop(self, nft):
        tx = tx_of([(OutputRef(b"h", 0), out("p"))], [out("q")])
        assert nft.kappa(tx) == NOOP


class TestSpecStep:
    def test_mint_only_from_zero(self, nft):
        assert nft.spec.step(0, MINT) == 1
        assert nft.spec.step(1, MINT) is None

    def test_burn_only_when_held(self, nft):
        assert nft.spec.step(1, BURN) == 0
        assert nft.spec.step(0, BURN) is None

    def test_noop_keeps_state(self, nft):
        assert nft.spec.step(0, NOOP) == 0
        assert nft.spec.step(1, NOOP) == 1

    def test_initial_states(self, nft):
        assert nft.spec.is_initial(0) and nft.spec.is_initial(1)
        assert not nft.spec.is_initial(2)


class TestStepCorrectness:
    def test_valid_move_step(self, nft, token_scenario):
        sc = token_scenario
        trace = nft_traces(sc, nft, count=1, depth=4)[0]
        for k, (q, tx) in enumerate(trace.annotations):
            step = one_step(trace.states[k], tx, trace.states[k + 1], q)
            assert check_contract_on_traces(nft, [step]).failures == ()

    def test_vacuous_outside_projection_domain(self):
        partial = len_partial()
        report = check_contract_on_traces(
            partial, [one_step(UtxoSet(), None, UtxoSet())])
        assert report.steps_checked == 1 and report.failures == ()
        assert report.induced[0].states == (None, None)
        verdict = contract_oracle.check_step_correctness(
            partial, UtxoSet(), None, UtxoSet())
        assert verdict and verdict.reason == "vacuous"

    def test_unprojectable_target_detected(self):
        u0, emptier, outcome = emptying_step()
        report = check_contract_on_traces(
            len_partial(), [one_step(u0, emptier, outcome)])
        assert report.failures == ((0, 0, "to-state-unprojectable"),)
        assert report.induced[0].states == (1, None)

    def test_broken_projection_detected(self, nft, token_scenario):
        sc = token_scenario
        traces = nft_traces(sc, nft, count=6, depth=5)
        broken = StructuredContract(
            spec=nft.spec,
            # wrong projection: always reports an empty contract state
            pi=lambda u: 0,
            kappa=nft.kappa,
            additional_checks=nft.additional_checks,
        )
        report = check_contract_on_traces(broken, traces)
        moving = [
            (t_idx, k)
            for t_idx, t in enumerate(traces)
            for k, (_, tx) in enumerate(t.annotations)
            if nft.kappa(tx) != NOOP
        ]
        assert moving, "sampled traces never touch the token"
        failing = {(t, k) for t, k, _ in report.failures}
        assert set(moving) <= failing

    def test_broken_input_projection_detected(self, nft, token_scenario):
        sc = token_scenario
        traces = nft_traces(sc, nft, count=6, depth=5, seed=9)
        broken = StructuredContract(
            spec=nft.spec,
            pi=nft.pi,
            # wrong input projection: every tx looks like a noop
            kappa=lambda tx: NOOP,
            additional_checks=nft.additional_checks,
        )
        report = check_contract_on_traces(broken, traces)
        quantity_changes = [
            (t_idx, k)
            for t_idx, t in enumerate(traces)
            for k, (_, tx) in enumerate(t.annotations)
            if nft.pi(t.states[k]) != nft.pi(t.states[k + 1])
        ]
        assert quantity_changes, "sampled traces never mint or burn"
        failing = {(t, k) for t, k, _ in report.failures}
        assert set(quantity_changes) <= failing


class TestContractOnTraces:
    def test_generated_traces_are_step_correct(self, nft, token_scenario):
        traces = nft_traces(token_scenario, nft, count=20, depth=6)
        report = check_contract_on_traces(nft, traces)
        assert report.failures == ()
        assert report.steps_checked > 0

    def test_requires_lifted_traces(self, nft):
        from ledgerlab.traces import TracePrefix

        with pytest.raises(ValueError):
            check_contract_on_traces(nft, [TracePrefix((UtxoSet(),))])

    def test_policy_keeps_quantity_bounded(self, nft, token_scenario):
        traces = nft_traces(token_scenario, nft, count=20, depth=6, seed=17)
        for t in traces:
            for u in t.states:
                assert nft.pi(u) <= 1


def variants(nft):
    """Contracts whose verdicts on NFT traces cover every kind of step."""
    return {
        "nft": nft,
        # always reports an empty contract state
        "broken-pi": dataclasses.replace(nft, pi=lambda u: 0),
        # every tx looks like a noop
        "broken-kappa": dataclasses.replace(nft, kappa=lambda tx: NOOP),
        # the NFT contract with holes in Def pi
        "partial-nft": dataclasses.replace(
            nft, pi=lambda u: nft.pi(u) if len(u) % 3 != 0 else None),
        "partial-len": len_partial(),
    }


class TestAgreesWithOracle:
    """One projection per trace gives the plain obligation's verdicts."""

    @pytest.mark.parametrize("name", ["nft", "broken-pi", "broken-kappa",
                                      "partial-nft", "partial-len"])
    def test_same_steps_and_failures(self, nft, token_scenario, name):
        sc = variants(nft)[name]
        traces = nft_traces(token_scenario, nft, count=12, depth=6, seed=41)
        report = check_contract_on_traces(sc, traces)
        assert (report.steps_checked, report.failures) == \
            contract_oracle.check_contract_on_traces(sc, traces)
        assert report.induced == tuple(induce_trace_map(sc, t) for t in traces)
        if name == "nft":
            assert report.failures == ()
        else:
            assert report.failures

    def test_partial_contract_has_every_kind_of_step(self, nft, token_scenario):
        sc = variants(nft)["partial-nft"]
        traces = nft_traces(token_scenario, nft, count=12, depth=6, seed=41)
        kinds = {
            contract_oracle.check_step_correctness(
                sc, t.states[k], tx, t.states[k + 1]).reason
            for t in traces for k, (_, tx) in enumerate(t.annotations)
        }
        assert kinds >= {"vacuous", "to-state-unprojectable", None}


class TestPolicy:
    def test_agrees_with_the_applied_step(self, nft, token_scenario):
        """The policy equals the bound on the state after apply_tx."""
        rng = random.Random(5)
        propose = make_proposer(token=TOKEN)
        states = [u for t in nft_traces(token_scenario, nft, count=10, depth=6)
                  for u in t.states]
        seen = set()
        for u in states:
            for _ in range(10):
                proposed = propose(rng, 0, u)
                # the proposer keeps the bound; an extra minted unit may not
                minted = tx_of(proposed.inputs, proposed.outputs
                               + (out("m", token=TOKEN, token_qty=1),))
                for tx in (proposed, minted):
                    assert check_tx(0, u, tx)
                    oracle = nft.pi(u) <= 1 and nft.pi(apply_tx(u, tx)) <= 1
                    assert nft.additional_checks(0, u, tx) == oracle
                    seen.add(oracle)
        assert seen == {True, False}

    def test_state_that_is_not_well_founded(self, non_well_founded):
        """Checking a step whose created ref is still unspent never raises."""
        u0, (_, t1) = non_well_founded
        hook = CONTRACTS["nft"](b"NFT").additional_checks
        assert check_tx(0, u0, t1, hook)
        assert step_ledger(0, u0, t1, hook) == CheckResult(False, "created-collides")
        graph = build_ledger_graph([u0], [0], [t1], [0], additional_checks=hook)
        assert graph.vertices == {(0, u0, t1)}
        assert graph.edges == frozenset()


class TestInducedTraces:
    def test_pointwise_projection(self, nft, token_scenario):
        trace = nft_traces(token_scenario, nft, count=1, depth=5)[0]
        induced = induce_trace_map(nft, trace)
        assert len(induced) == len(trace)
        assert induced.states == tuple(nft.pi(u) for u in trace.states)
        for (_, inp), (_, tx) in zip(induced.annotations, trace.annotations):
            assert inp == nft.kappa(tx)

    def test_mint_then_burn(self, nft):
        genesis = tx_of((), [out("g")])
        u0 = mk_outs(genesis)
        ref = OutputRef(hash_tx(genesis), 0)
        minter = tx_of(
            [(ref, genesis.outputs[0])],
            [out("m", token=TOKEN, token_qty=1)],
        )
        u1 = step_ledger(1, u0, minter, nft.additional_checks)
        token_ref = OutputRef(hash_tx(minter), 0)
        burner = tx_of([(token_ref, minter.outputs[0])], [out("b")])
        u2 = step_ledger(2, u1, burner, nft.additional_checks)
        from ledgerlab.traces import TracePrefix

        trace = TracePrefix((u0, u1, u2), ((1, minter), (2, burner)))
        induced = induce_trace_map(nft, trace)
        assert induced.states == (0, 1, 0)
        assert [inp for _, inp in induced.annotations] == [MINT, BURN]

    def test_unlifted_trace_has_an_unlifted_image(self, nft, token_scenario):
        trace = nft_traces(token_scenario, nft, count=1, depth=3)[0]
        induced = induce_trace_map(nft, TracePrefix(trace.states))
        assert induced.states == tuple(map(nft.pi, trace.states))
        assert induced.annotations is None

    def test_unprojectable_state_maps_to_none(self):
        u0, emptier, outcome = emptying_step()
        induced = induce_trace_map(len_partial(), one_step(u0, emptier, outcome))
        assert induced.states == (1, None)
        assert induced.annotations == ((None, NOOP),)

    def test_induced_map_is_non_expanding(self, nft, token_scenario):
        traces = nft_traces(token_scenario, nft, count=12, depth=5, seed=31)
        images = [induce_trace_map(nft, t) for t in traces]
        checked = 0
        for i in range(len(traces)):
            for j in range(i + 1, len(traces)):
                d_src = ultra_distance(traces[i], traces[j])
                d_img = ultra_distance(images[i], images[j])
                if d_src.exact and d_img.exact:
                    checked += 1
                assert d_img.value <= d_src.value
        assert checked > 0
        report = check_non_expanding(traces, images)
        assert report.pairs_checked == checked
        assert report.violations == ()


class TestContractGraphs:
    def test_nft_transition_structure(self, nft):
        gamma, gamma_prime, psi = build_contract_graphs(
            nft, [0, 1], [MINT, BURN, NOOP]
        )
        assert gamma_prime.vertices == frozenset([0, 1])
        assert gamma_prime.edges == frozenset([(0, 1), (1, 0), (0, 0), (1, 1)])
        assert gamma_prime.initial == frozenset([0, 1])
        assert (0, MINT) in gamma.vertices
        assert (1, MINT) not in gamma.vertices
        assert (0, BURN) not in gamma.vertices
        assert ((0, MINT), (1, BURN)) in gamma.edges
        assert ((0, MINT), (0, NOOP)) not in gamma.edges

    def test_projection_is_a_hom(self, nft):
        gamma, gamma_prime, psi = build_contract_graphs(
            nft, [0, 1], [MINT, BURN, NOOP]
        )
        assert check_hom(psi)
        for v in gamma.vertices:
            assert psi(v) == v[0]

    def test_empty_universes(self, nft):
        gamma, gamma_prime, psi = build_contract_graphs(nft, [], [])
        assert gamma.vertices == frozenset()
        assert gamma_prime.vertices == frozenset()


def hand_built(step, is_initial=lambda s: True):
    spec = ContractSpec(step=step, is_initial=is_initial)
    return StructuredContract(spec, len, len)


GRAPH_CASES = {
    "nft": (nft_contract(TOKEN), [0, 1, 2], [MINT, BURN, NOOP, "other"]),
    # a counter mod 5; every pair is a vertex
    "counter": (hand_built(lambda s, i: (s + i) % 5, lambda s: s == 0),
                range(5), [0, 1, 4]),
    # a bounded sum: steps past 4 are refused and 4 is outside the universe
    "bounded": (hand_built(lambda s, i: s + i if s + i <= 4 else None),
                [0, 1, 2, 3], [0, 1, 2]),
}


class TestContractGraphsAgainstOracle:
    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_same_graphs_and_hom(self, case):
        sc, states, inputs = GRAPH_CASES[case]
        built = build_contract_graphs(sc, states, inputs)
        assert built == contract_oracle.build_contract_graphs(sc, states, inputs)
        assert built[0].edges and check_hom(built[2])

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_state_graph_joins_each_state_to_its_steps(self, case):
        """Γ′, the image of Γ, has s -> step(s, i) for every vertex (s, i)
        whose step lands on a state of Γ′."""
        sc, states, inputs = GRAPH_CASES[case]
        gamma, gamma_prime, _ = build_contract_graphs(sc, states, inputs)
        stepped = {(s, sc.spec.step(s, i)) for s, i in gamma.vertices}
        assert gamma_prime.edges == {e for e in stepped if e[1] in gamma_prime.vertices}

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_steps_each_candidate_pair_once(self, case):
        sc, states, inputs = GRAPH_CASES[case]
        calls = []

        def step(s, i):
            calls.append((s, i))
            return sc.spec.step(s, i)

        counted = dataclasses.replace(
            sc, spec=dataclasses.replace(sc.spec, step=step))
        build_contract_graphs(counted, iter(states), iter(inputs))
        assert sorted(calls, key=repr) == sorted(
            ((s, i) for s in states for i in inputs), key=repr)


class TestRegistry:
    def test_nft_is_registered(self):
        assert "nft" in CONTRACTS
        sc = CONTRACTS["nft"](b"T")
        assert isinstance(sc, StructuredContract)
        assert sc.kappa(tx_of([], [out("t", token=b"T", token_qty=1)])) == MINT
