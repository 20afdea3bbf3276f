"""End-to-end acceptance suite.

Each test prints one summary line so a log scan shows which acceptance
criterion passed or failed.  Oracles here are deliberately independent
re-implementations; they must not call the code path under test to decide
the expected answer.
"""
import dataclasses
import itertools
import random
import time
from contextlib import contextmanager

from conftest import ball, forward_closure, random_graph, random_hom
from run_oracle import assign_slots
from test_contracts import variants
from ledgerlab.cli import EXIT_CLEAN, main
from ledgerlab.contracts import (
    MINT,
    NOOP,
    build_contract_graphs,
    check_contract_on_traces,
    induce_trace_map,
    nft_contract,
)
from ledgerlab.core import (
    CheckResult,
    Output,
    OutputRef,
    Tx,
    UtxoSet,
    get_orefs,
    mk_outs,
    step_ledger,
)
from ledgerlab.gen import make_proposer, make_scenario
from ledgerlab.graphs import (
    PartialSieveHom,
    build_ledger_graph,
    check_hom,
    compose_homs,
    is_sieve,
)
from ledgerlab.properties import (
    build_tx_poset,
    canonical_presentation,
    check_disjointness,
    check_replay_protection,
    check_trivial_update_protection,
    enumerate_valid_permutations,
    replay_sequence,
)
from ledgerlab.traces import TracePrefix, generate_valid_traces, ultra_distance


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("[acceptance] %s: FAIL" % name)
        raise
    print("[acceptance] %s: PASS" % name)


def sample_runs(n_scenarios, per_scenario, depth, seed_base):
    """Replay-validated runs derived from generated traces."""
    runs = []
    for k in range(n_scenarios):
        sc = make_scenario(seed_base + k)
        traces = generate_valid_traces(
            [sc.initial_utxo],
            [sc.initial_slot],
            make_proposer(),
            depth=depth,
            count=per_scenario,
            seed=seed_base + 1000 + k,
        )
        for t in traces:
            run = replay_sequence(sc.initial_utxo, t.annotations)
            assert isinstance(run, TracePrefix)
            runs.append(run)
    return runs


# --- criterion 1: transition fuzzing ----------------------------------------

def oracle_check(slot, utxo, tx):
    """Independent re-statement of the acceptance rule, on plain dicts."""
    if len(tx.inputs) == 0:
        return False
    lo, hi = tx.validity_interval
    if slot < lo or slot >= hi:
        return False
    table = dict(utxo.items())
    for ref, claimed in tx.inputs:
        if table.get(ref) != claimed:
            return False
    return True


def test_c1_step_ledger_fuzzing():
    with criterion("C1 step-ledger fuzz (1000 triples)"):
        rng = random.Random(1001)
        started = time.monotonic()
        accepted = 0
        for case in range(1000):
            sc = make_scenario(rng.randrange(40))
            utxo = sc.initial_utxo
            # walk a few random valid steps to diversify the state
            propose = make_proposer()
            for _ in range(rng.randrange(3)):
                t = propose(rng, sc.initial_slot, utxo)
                outcome = step_ledger(sc.initial_slot, utxo, t)
                if isinstance(outcome, UtxoSet):
                    utxo = outcome

            defect = rng.randrange(5)
            slot = sc.initial_slot
            if defect == 0:
                tx = Tx(frozenset(), (Output(b"a"),), (0, 10))
            elif defect == 1:
                tx = propose(rng, slot, utxo)
                slot = tx.validity_interval[1] + rng.randrange(3)
            elif defect == 2:
                ghost = (OutputRef(rng.randbytes(8), 0), Output(b"g"))
                base = propose(rng, slot, utxo)
                tx = Tx(
                    frozenset([ghost]), base.outputs, base.validity_interval
                )
            elif defect == 3:
                ref, real = utxo.items()[rng.randrange(len(utxo))]
                forged = Output(real.address, real.value, real.datum + b"!")
                tx = Tx(frozenset([(ref, forged)]), (Output(b"a"),), (0, 10))
                slot = 5
            else:
                tx = propose(rng, slot, utxo)

            expected = oracle_check(slot, utxo, tx)
            outcome = step_ledger(slot, utxo, tx)
            assert isinstance(outcome, UtxoSet) == expected, (case, outcome)
            if expected:
                accepted += 1
                want = (utxo.keys() - get_orefs(tx)) | mk_outs(tx).keys()
                assert outcome.keys() == want
        elapsed = time.monotonic() - started
        assert accepted > 100
        assert elapsed < 10.0, "took %.1fs" % elapsed


# --- criteria 2 and 3: run-level safety -------------------------------------

RUNS = None


def all_runs():
    global RUNS
    if RUNS is None:
        RUNS = sample_runs(n_scenarios=50, per_scenario=10, depth=10, seed_base=2000)
    return RUNS


def test_c2_replay_protection():
    with criterion("C2 replay protection (500 runs, 50 mutations)"):
        runs = all_runs()
        assert len(runs) == 500
        for run in runs:
            assert len(run.annotations) <= 10
            assert check_replay_protection(run)

        rng = random.Random(2002)
        mutated = 0
        while mutated < 50:
            run = rng.choice(runs)
            n_steps = len(run.annotations)
            if n_steps < 2:
                continue
            i = rng.randrange(n_steps - 1)
            j = rng.randrange(i + 1, n_steps)
            annotations = list(run.annotations)
            annotations[j] = (annotations[j][0], annotations[i][1])
            rigged = TracePrefix(run.states, tuple(annotations))
            verdict = check_replay_protection(rigged)
            assert not verdict
            assert verdict.witness == (i, j)
            mutated += 1


def test_c3_trivial_update_and_disjointness():
    with criterion("C3 trivial-update + disjointness (500 runs)"):
        for run in all_runs():
            assert check_trivial_update_protection(run)
            assert check_disjointness(run)


# --- criterion 4: commutativity by exhaustion -------------------------------

def test_c4_exhaustive_commutativity():
    with criterion("C4 exhaustive permutation commutativity (100 runs)"):
        started = time.monotonic()
        runs = sample_runs(n_scenarios=25, per_scenario=4, depth=6, seed_base=4000)
        assert len(runs) == 100
        for run in runs:
            assert len(run.annotations) <= 6
            txs = [tx for _, tx in run.annotations]
            for order in itertools.permutations(range(len(txs))):
                permuted = [txs[i] for i in order]
                slots = assign_slots(permuted)
                if slots is None:
                    continue
                replayed = replay_sequence(run.states[0], list(zip(slots, permuted)))
                if isinstance(replayed, CheckResult):
                    continue
                assert replayed.states[-1] == run.states[-1], order
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, "took %.1fs" % elapsed


# --- criterion 5: the worked dependency example -----------------------------

def test_c5_worked_example(eight_tx):
    with criterion("C5 worked 8-transaction example"):
        genesis, u0, txs = eight_tx
        run = replay_sequence(u0, [(1, tx) for tx in txs])
        assert isinstance(run, TracePrefix)
        poset = build_tx_poset(run)
        assert poset.levels == (0, 0, 1, 0, 2, 2, 1, 3)
        assert canonical_presentation(poset) == [0, 1, 3, 2, 6, 4, 5, 7]

        perms = enumerate_valid_permutations(poset, cap=100000)
        assert not perms.capped
        alt = (3, 1, 6, 2, 5, 7, 0, 4)
        assert alt in perms.sequences
        permuted = [txs[i] for i in alt]
        slots = assign_slots(permuted)
        replayed = replay_sequence(u0, list(zip(slots, permuted)))
        assert isinstance(replayed, TracePrefix)
        assert replayed.states[-1] == run.states[-1]


# --- criterion 6: ultrametric axioms and balls ------------------------------

def trace_pool():
    pool = []
    for k in range(6):
        sc = make_scenario(6000 + k)
        pool.extend(
            generate_valid_traces(
                [sc.initial_utxo],
                [sc.initial_slot],
                make_proposer(),
                depth=6,
                count=10,
                seed=6100 + k,
            )
        )
    return pool


def test_c6_ultrametric_axioms_and_balls():
    with criterion("C6 ultrametric axioms (200 triples) + ball nesting (100)"):
        pool = trace_pool()
        rng = random.Random(6006)
        checked = 0
        attempts = 0
        while checked < 200:
            attempts += 1
            assert attempts < 20000, "could not find enough exact triples"
            triple = rng.sample(pool, 3)
            ds = [
                ultra_distance(a, b)
                for a, b in itertools.combinations(triple, 2)
            ]
            if not all(d.exact for d in ds):
                continue
            # strong triangle: for sorted values v0 <= v1 <= v2, v2 <= v1
            v0, v1, v2 = sorted(d.value for d in ds)
            assert v2 <= v1, triple
            checked += 1

        nested = 0
        for _ in range(100):
            c1, c2 = rng.choice(pool), rng.choice(pool)
            k1, k2 = rng.randint(0, 4), rng.randint(0, 4)
            m1, m2 = ball(c1, k1, pool), ball(c2, k2, pool)
            if m1 & m2:
                assert m1 <= m2 or m2 <= m1
                nested += 1
        assert nested > 0


# --- criterion 7: the NFT contract ------------------------------------------

def adversarial_proposer(token):
    """``make_proposer(token)`` with about one proposal in four rigged.

    A rigged proposal adds the token to its first output: one more while an
    entry the proposal does not spend holds the token (a mint while held),
    else two (a quantity of 2).  The NFT policy must refuse each of them.
    """
    honest = make_proposer(token=token)

    def propose(rng, slot, utxo):
        tx = honest(rng, slot, utxo)
        if tx is None or rng.random() >= 0.25:
            return tx
        held = sum(out.quantity(token) for out in utxo.values())
        spent = sum(o.quantity(token) for _, o in tx.inputs)
        first = tx.outputs[0]
        value = dict(first.value)
        value[token] = first.quantity(token) + (1 if held > spent else 2)
        rigged = Output(first.address, value, first.datum)
        return dataclasses.replace(tx, outputs=(rigged,) + tx.outputs[1:])

    return propose


def test_c7_nft_contract():
    with criterion("C7 NFT contract (500 traces, 200 pairs)"):
        token = b"NFT"
        sc_contract = nft_contract(token)
        refused = []

        def policy(slot, utxo, tx):
            ok = sc_contract.additional_checks(slot, utxo, tx)
            if not ok:
                refused.append(tx)
            return ok

        traces = []
        for k in range(10):
            sc = make_scenario(7000 + k, token=token if k % 2 == 0 else None)
            traces.extend(
                generate_valid_traces(
                    [sc.initial_utxo],
                    [sc.initial_slot],
                    adversarial_proposer(token),
                    depth=6,
                    count=50,
                    seed=7100 + k,
                    additional_checks=policy,
                )
            )
        assert len(traces) == 500
        assert refused

        report = check_contract_on_traces(sc_contract, traces)
        assert report.failures == ()
        assert report.steps_checked > 1000

        for t in traces:
            induced = induce_trace_map(sc_contract, t)
            assert all(s in (0, 1) for s in induced.states)

        # for a pointwise π this only confirms that π is a function; C10
        # tests the contract claim, that π and κ make a sieve-defined hom
        rng = random.Random(7007)
        for _ in range(200):
            a, b = rng.choice(traces), rng.choice(traces)
            d_src = ultra_distance(a, b)
            d_img = ultra_distance(
                induce_trace_map(sc_contract, a), induce_trace_map(sc_contract, b)
            )
            assert d_img.value <= d_src.value


# --- criterion 8: sieve and homomorphism algebra ----------------------------

def test_c8_sieve_algebra():
    with criterion("C8 sieve algebra (300 graphs)"):
        rng = random.Random(8008)
        for case in range(300):
            g = random_graph(rng, max_vertices=12)
            s1 = forward_closure(
                g, frozenset(v for v in g.vertices if rng.random() < 0.3)
            )
            s2 = forward_closure(
                g, frozenset(v for v in g.vertices if rng.random() < 0.3)
            )
            assert is_sieve(g, s1) and is_sieve(g, s2)
            assert is_sieve(g, s1 & s2)

            f = random_hom(rng, g)
            assert check_hom(f)
            h2 = random_hom(rng, f.target)
            composed = compose_homs(f, h2)
            assert check_hom(composed)
            assert composed.domain == frozenset(
                v for v in f.domain if f(v) in h2.domain
            )
            h3 = random_hom(rng, h2.target)
            left = compose_homs(compose_homs(f, h2), h3)
            right = compose_homs(f, compose_homs(h2, h3))
            assert left == right


# --- criterion 9: reproducible generation -----------------------------------

def test_c9_byte_identical_generation(tmp_path, capsys):
    with criterion("C9 byte-identical trace generation"):
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(
                ["trace", "gen", "--seed", "99", "--depth", "6",
                 "--count", "5", "--out", str(out)]
            )
            capsys.readouterr()
            assert code == EXIT_CLEAN
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert blobs[0].keys() == blobs[1].keys()
        assert blobs[0] == blobs[1]


# --- criterion 10: the contract claim as a homomorphism ---------------------

def contract_hom(sc_contract, lam) -> CheckResult:
    """``check_hom`` of φ(q, u, t) = (π u, κ t), defined where π u is, from
    Λ into Γ over the π-image of Λ's states and the κ-image of its txs."""
    states = {v: sc_contract.pi(v[1]) for v in lam.vertices}
    gamma, _, _ = build_contract_graphs(
        sc_contract,
        {s for s in states.values() if s is not None},
        {sc_contract.kappa(t) for _, _, t in lam.vertices},
    )
    phi = {v: (s, sc_contract.kappa(v[2])) for v, s in states.items() if s is not None}
    return check_hom(PartialSieveHom(lam, gamma, phi))


def test_c10_contract_hom():
    with criterion("C10 NFT contract as a sieve-defined hom (6 seeds)"):
        token = b"NFT"
        nft = nft_contract(token)
        partial = variants(nft)["partial-nft"]
        mint_as_noop = dataclasses.replace(
            nft, kappa=lambda tx: NOOP if nft.kappa(tx) == MINT else nft.kappa(tx))
        minting_seeds = []
        for seed in range(6):
            # the universe holds rigged mints, which only the policy refuses
            sc = make_scenario(seed, 3, token)
            traces = generate_valid_traces(
                [sc.initial_utxo], [sc.initial_slot], adversarial_proposer(token),
                depth=6, count=4, seed=seed,
            )
            txs = [tx for t in traces for _, tx in t.annotations]
            slots = {sc.initial_slot} | {q for t in traces for q, _ in t.annotations}
            assert len(txs) == 20
            lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots,
                                     nft.additional_checks)
            assert contract_hom(nft, lam)

            unpoliced = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
            assert contract_hom(nft, unpoliced).reason == "image-not-in-target"
            assert contract_hom(partial, lam).reason in (
                "domain-not-a-sieve", "initial-not-in-domain")
            # a mint seen as a noop breaks exactly the edges out of a mint
            minting = any(nft.kappa(a[2]) == MINT for a, _ in lam.edges)
            verdict = contract_hom(mint_as_noop, lam)
            assert verdict.reason == ("edge-not-preserved" if minting else None)
            if minting:
                assert nft.kappa(verdict.witness[0][2]) == MINT
                minting_seeds.append(seed)
        assert minting_seeds
