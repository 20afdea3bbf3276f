import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import out, tx_of
from ledgerlab.core import (
    KeyCollisionError,
    LedgerStep,
    Output,
    OutputRef,
    Rejection,
    Tx,
    TxInput,
    UtxoSet,
    apply_tx,
    check_tx,
    get_orefs,
    hash_tx,
    mk_outs,
    step_ledger,
    to_map,
    tx_bytes,
)

# Frozen reference hashes; any change to the canonical serialization or the
# hash function must be caught here.
GOLDEN_TX_HASH = "2c8b4aed8ef7fd66492318e3d781c5a9481a939b0e043e20ef07e7591aca8969"
GOLDEN_TX_BYTES_LEN = 259
GOLDEN_GENESIS_HASH = (
    "201af4a2b4dadc9b173cab6cd9161d6f2e951b0bef9bd0cbb7756341674552f0"
)


def golden_tx() -> Tx:
    ref = OutputRef(bytes(range(32)), 1)
    claimed = Output(address=b"alice", value={b"coin": 7, b"gem": 2}, datum=b"d1")
    return Tx(
        inputs=frozenset([TxInput(ref, claimed)]),
        outputs=(
            Output(address=b"bob", value={b"coin": 7}),
            Output(address=b"carol", value={b"gem": 2}, datum=b"d2"),
        ),
        validity_interval=(3, 9),
        additional_data=b"memo",
    )


class TestValues:
    def test_output_ref_rejects_bad_index(self):
        with pytest.raises(ValueError):
            OutputRef(b"h", -1)
        with pytest.raises(ValueError):
            OutputRef(b"h", 2 ** 32)

    def test_output_ref_orders_by_hash_then_index(self):
        a = OutputRef(b"a", 5)
        b = OutputRef(b"b", 0)
        assert a < b
        assert OutputRef(b"a", 0) < a

    def test_output_normalizes_value(self):
        o = Output(address=b"x", value={b"b": 1, b"a": 2, b"z": 0})
        assert o.value == ((b"a", 2), (b"b", 1))
        assert o.quantity(b"z") == 0
        assert o.quantity(b"a") == 2

    def test_output_rejects_negative_quantity(self):
        with pytest.raises(ValueError):
            Output(address=b"x", value={b"a": -1})

    @pytest.mark.parametrize("qty", [True, 1.0, 2 ** 64])
    def test_output_rejects_quantity_outside_domain(self, qty):
        with pytest.raises(ValueError):
            Output(address=b"x", value={b"a": qty})

    def test_output_rejects_str_address(self):
        with pytest.raises(ValueError):
            Output(address="x", value={b"a": 1})

    def test_output_rejects_duplicate_token(self):
        with pytest.raises(ValueError):
            Output(address=b"x", value=((b"a", 1), (b"a", 2)))

    def test_tx_rejects_duplicate_input_refs(self):
        ref = OutputRef(b"h", 0)
        ins = [TxInput(ref, out("p")), TxInput(ref, out("q"))]
        with pytest.raises(ValueError):
            tx_of(ins, [out("r")])

    def test_tx_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(5, 4))
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(-1, 4))
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(0, 2 ** 64))

    def test_empty_interval_is_allowed_but_never_valid(self):
        tx = tx_of((), [out("r")], interval=(4, 4))
        assert tx.validity_interval == (4, 4)


class TestUtxoSet:
    def test_equal_contents_compare_equal(self):
        a = OutputRef(b"a", 0)
        b = OutputRef(b"b", 0)
        u1 = UtxoSet(((a, out("p")), (b, out("q"))))
        u2 = UtxoSet(((b, out("q")), (a, out("p"))))
        assert u1 == u2
        assert hash(u1) == hash(u2)

    def test_mapping_constructor(self):
        a = OutputRef(b"a", 0)
        u = UtxoSet({a: out("p")})
        assert u.get(a) == out("p")
        assert a in u
        assert len(u) == 1

    def test_duplicate_ref_rejected(self):
        a = OutputRef(b"a", 0)
        with pytest.raises(ValueError):
            UtxoSet(((a, out("p")), (a, out("q"))))

    def test_without_and_union(self):
        a, b = OutputRef(b"a", 0), OutputRef(b"b", 0)
        u = UtxoSet({a: out("p"), b: out("q")})
        assert u.without([a]).keys() == frozenset([b])
        merged = u.without([a]).union(UtxoSet({a: out("p")}))
        assert merged == u

    def test_union_collision_raises(self):
        a = OutputRef(b"a", 0)
        u = UtxoSet({a: out("p")})
        with pytest.raises(KeyCollisionError):
            u.union(UtxoSet({a: out("q")}))


class TestHashing:
    def test_golden_hash(self):
        tx = golden_tx()
        assert hash_tx(tx).hex() == GOLDEN_TX_HASH
        assert len(tx_bytes(tx)) == GOLDEN_TX_BYTES_LEN

    def test_golden_genesis_hash(self):
        g = tx_of((), [Output(address=b"genesis")], interval=(0, 1))
        assert hash_tx(g).hex() == GOLDEN_GENESIS_HASH

    def test_hash_ignores_input_iteration_order(self):
        r1 = OutputRef(b"a", 0)
        r2 = OutputRef(b"b", 0)
        ins = [TxInput(r1, out("p")), TxInput(r2, out("q"))]
        assert hash_tx(tx_of(ins, [out("r")])) == hash_tx(
            tx_of(list(reversed(ins)), [out("r")])
        )

    def test_hash_sensitive_to_every_field(self):
        base = golden_tx()
        variants = [
            tx_of(base.inputs, base.outputs[:1], base.validity_interval, b"memo"),
            tx_of(base.inputs, base.outputs, (3, 10), b"memo"),
            tx_of(base.inputs, base.outputs, base.validity_interval, b"memo2"),
        ]
        hashes = {hash_tx(t) for t in variants} | {hash_tx(base)}
        assert len(hashes) == 4

    def test_output_list_order_matters(self):
        a, b = out("p"), out("q")
        assert hash_tx(tx_of((), [a, b])) != hash_tx(tx_of((), [b, a]))


class TestAuxiliary:
    def test_to_map(self):
        outs = [out("p"), out("q")]
        assert to_map(0, outs) == {0: outs[0], 1: outs[1]}
        assert to_map(3, outs) == {3: outs[0], 4: outs[1]}
        assert to_map(0, []) == {}

    def test_mk_outs_keys(self):
        tx = tx_of((), [out("p"), out("q")])
        h = hash_tx(tx)
        created = mk_outs(tx)
        assert created.keys() == frozenset([OutputRef(h, 0), OutputRef(h, 1)])
        assert created.get(OutputRef(h, 0)) == out("p")

    def test_mk_outs_empty(self):
        ref = OutputRef(b"h", 0)
        tx = tx_of([TxInput(ref, out("p"))], [])
        assert len(mk_outs(tx)) == 0

    def test_get_orefs(self):
        r1, r2 = OutputRef(b"a", 0), OutputRef(b"b", 1)
        tx = tx_of([TxInput(r1, out("p")), TxInput(r2, out("q"))], [out("r")])
        assert get_orefs(tx) == frozenset([r1, r2])
        assert get_orefs(tx_of((), [out("r")])) == frozenset()


@pytest.fixture
def small_ledger():
    genesis = tx_of((), [out("g0"), out("g1")])
    u0 = mk_outs(genesis)
    h = hash_tx(genesis)
    spend0 = tx_of(
        [TxInput(OutputRef(h, 0), genesis.outputs[0])], [out("n0")], interval=(0, 10)
    )
    return u0, h, spend0


class TestCheckTx:
    def test_accepts_valid(self, small_ledger):
        u0, _, spend0 = small_ledger
        assert check_tx(5, u0, spend0)

    def test_rejects_empty_inputs(self, small_ledger):
        u0, _, _ = small_ledger
        verdict = check_tx(5, u0, tx_of((), [out("n")]))
        assert not verdict and verdict.reason == "empty-inputs"

    def test_interval_is_half_open(self, small_ledger):
        u0, _, spend0 = small_ledger
        assert check_tx(0, u0, spend0)
        assert check_tx(9, u0, spend0)
        for slot in (10, 11):
            verdict = check_tx(slot, u0, spend0)
            assert verdict.reason == "slot-out-of-interval"

    def test_rejects_absent_ref(self, small_ledger):
        u0, _, _ = small_ledger
        ghost = tx_of([TxInput(OutputRef(b"nope", 0), out("p"))], [out("n")])
        assert check_tx(5, u0, ghost).reason == "missing-input"

    def test_rejects_mismatched_output_fields(self, small_ledger):
        u0, h, _ = small_ledger
        wrong = tx_of(
            [TxInput(OutputRef(h, 0), out("g0", coins=11))], [out("n")]
        )
        assert check_tx(5, u0, wrong).reason == "missing-input"

    def test_additional_checks_hook(self, small_ledger):
        u0, _, spend0 = small_ledger
        verdict = check_tx(5, u0, spend0, lambda q, u, t: False)
        assert verdict.reason == "additional-checks"
        assert check_tx(5, u0, spend0, lambda q, u, t: True)


class TestApplyAndStep:
    def test_apply_moves_entries(self, small_ledger):
        u0, h, spend0 = small_ledger
        u1 = apply_tx(u0, spend0)
        assert OutputRef(h, 0) not in u1
        assert OutputRef(h, 1) in u1
        assert OutputRef(hash_tx(spend0), 0) in u1
        assert len(u1) == 2

    def test_apply_collision_raises(self, small_ledger):
        u0, h, spend0 = small_ledger
        u1 = apply_tx(u0, spend0)
        # re-adding the spent entry lets the same tx apply again, and its
        # created ref then collides with the surviving copy
        rigged = u1.union(UtxoSet({OutputRef(h, 0): out("g0")}))
        with pytest.raises(KeyCollisionError):
            apply_tx(rigged, spend0)
        outcome = step_ledger(5, rigged, spend0)
        assert outcome == Rejection("created-collides")

    def test_step_ledger_valid(self, small_ledger):
        u0, _, spend0 = small_ledger
        outcome = step_ledger(5, u0, spend0)
        assert isinstance(outcome, LedgerStep)
        assert outcome.before == u0
        assert outcome.after == apply_tx(u0, spend0)
        assert outcome.slot == 5 and outcome.tx == spend0

    def test_step_ledger_rejection_carries_reason(self, small_ledger):
        u0, _, spend0 = small_ledger
        outcome = step_ledger(77, u0, spend0)
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "slot-out-of-interval"

    def test_resubmission_is_rejected(self, small_ledger):
        u0, _, spend0 = small_ledger
        u1 = apply_tx(u0, spend0)
        outcome = step_ledger(5, u1, spend0)
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "missing-input"

    def test_keys_identity_on_random_steps(self):
        rng = random.Random(404)
        from ledgerlab.gen import make_proposer, make_scenario

        propose = make_proposer()
        checked = 0
        for seed in range(20):
            sc = make_scenario(seed)
            utxo, slot = sc.initial_utxo, sc.initial_slot
            for _ in range(10):
                tx = propose(rng, slot, utxo)
                outcome = step_ledger(slot, utxo, tx)
                if isinstance(outcome, Rejection):
                    continue
                after = outcome.after
                assert after.keys() == (utxo.keys() - get_orefs(tx)) | mk_outs(
                    tx
                ).keys()
                utxo = after
                checked += 1
        assert checked > 100


@st.composite
def outputs(draw):
    tokens = draw(
        st.dictionaries(
            st.binary(min_size=1, max_size=3), st.integers(0, 50), max_size=3
        )
    )
    return Output(
        address=draw(st.binary(min_size=1, max_size=4)),
        value=tokens,
        datum=draw(st.binary(max_size=4)),
    )


@settings(max_examples=60, deadline=None)
@given(outs=st.lists(outputs(), max_size=4), extra=st.binary(max_size=4))
def test_hash_deterministic_and_injective_on_samples(outs, extra):
    tx = tx_of((), outs, extra=extra)
    again = tx_of((), list(outs), extra=extra)
    assert hash_tx(tx) == hash_tx(again)
    assert mk_outs(tx).keys() == frozenset(
        OutputRef(hash_tx(tx), ix) for ix in range(len(outs))
    )


@settings(max_examples=60, deadline=None)
@given(outs=st.lists(outputs(), min_size=1, max_size=4))
def test_apply_from_genesis_preserves_key_identity(outs):
    genesis = tx_of((), outs)
    u0 = mk_outs(genesis)
    spend_all = tx_of(
        [TxInput(ref, o) for ref, o in u0.items()], [out("fresh")]
    )
    after = apply_tx(u0, spend_all)
    assert after.keys() == mk_outs(spend_all).keys()
