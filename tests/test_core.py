import collections
import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ledgerlab
from conftest import out, output_comparisons, tx_of
from ledgerlab.core import (
    CheckResult,
    KeyCollisionError,
    Output,
    OutputRef,
    Tx,
    UtxoSet,
    _once,
    apply_tx,
    check_tx,
    get_orefs,
    hash_tx,
    mk_outs,
    step_ledger,
    tx_bytes,
)
from ledgerlab.graphs import SimpleGraph

#: a tuple subclass of length 2, as OutputRef is: not a transaction input
Entry = collections.namedtuple("Entry", "ref output")

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
        inputs=frozenset([(ref, claimed)]),
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

    @pytest.mark.parametrize("tx_hash, index", [
        (b"h", True), (b"h", False), (b"h", 1.0),
        ("h", 0), (bytearray(b"h"), 0), (None, 0),
    ])
    def test_output_ref_rejects_values_outside_the_domain(self, tx_hash, index):
        with pytest.raises(ValueError):
            OutputRef(tx_hash, index)

    def test_output_ref_is_its_pair(self):
        ref = OutputRef(b"\x01\xff", 7)
        assert ref.tx_hash == b"\x01\xff" and ref.index == 7
        assert ref == (b"\x01\xff", 7) and hash(ref) == hash((b"\x01\xff", 7))
        assert repr(ref) == "OutputRef(tx_hash=b'\\x01\\xff', index=7)"
        with pytest.raises(AttributeError):
            ref.index = 8

    def test_output_ref_pickles_and_copies(self):
        ref = OutputRef(bytes(range(32)), 2 ** 32 - 1)
        for twin in (pickle.loads(pickle.dumps(ref)), copy.deepcopy(ref), copy.copy(ref)):
            assert type(twin) is OutputRef and twin == ref and repr(twin) == repr(ref)

    def test_output_ref_order_is_the_field_order(self):
        rng = random.Random(80)
        refs = [OutputRef(rng.randbytes(rng.randint(0, 3)), rng.randrange(4))
                for _ in range(500)]
        assert sorted(refs) == sorted(refs, key=lambda r: (r.tx_hash, r.index))

    def test_output_is_its_triple(self):
        o = Output(b"\x01", {b"t": 3, b"s": 0}, b"d")
        triple = (b"\x01", ((b"t", 3),), b"d")
        assert (o.address, o.value, o.datum) == triple
        assert o == triple and hash(o) == hash(triple)
        assert repr(o) == "Output(address=b'\\x01', value=((b't', 3),), datum=b'd')"
        assert Output(b"a", datum=b"z") < Output(b"b") < Output(b"b", {b"t": 1})
        with pytest.raises(AttributeError):
            o.datum = b"e"
        for twin in (pickle.loads(pickle.dumps(o)), copy.copy(o), copy.deepcopy(o)):
            assert type(twin) is Output and twin == o and repr(twin) == repr(o)

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
        ins = [(ref, out("p")), (ref, out("q"))]
        with pytest.raises(ValueError):
            tx_of(ins, [out("r")])

    def test_tx_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(5, 4))
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(-1, 4))
        with pytest.raises(ValueError):
            tx_of((), [out("r")], interval=(0, 2 ** 64))

    @pytest.mark.parametrize("inputs, outputs, interval", [
        (frozenset(), (1,), (0, 1)),
        (frozenset(), (OutputRef(b"h", 0),), (0, 1)),
        (frozenset([5]), (), (0, 1)),
        (frozenset([OutputRef(b"h", 0)]), (), (0, 1)),
        (5, (), (0, 1)),
        (frozenset(), 5, (0, 1)),
        (frozenset(), (), 5),
        ([[1]], (), (0, 1)),
        # an input is the plain pair (OutputRef, Output)
        ([[OutputRef(b"h", 0), Output(b"a")]], (), (0, 1)),
        ([(OutputRef(b"h", 0), Output(b"a"), Output(b"b"))], (), (0, 1)),
        ([Entry(OutputRef(b"h", 0), Output(b"a"))], (), (0, 1)),
    ], ids=["int-output", "ref-output", "int-input", "ref-input",
            "int-inputs", "int-outputs", "int-interval", "unhashable-input",
            "list-input", "triple-input", "pair-subclass-input"])
    def test_tx_rejects_parts_of_the_wrong_type(self, inputs, outputs, interval):
        with pytest.raises(ValueError):
            Tx(inputs, outputs, interval)

    @pytest.mark.parametrize("value", [5, [5], [b"a"], [(b"a", 1, 2)]],
                             ids=["int", "int-pair", "short-pair", "triple"])
    def test_output_rejects_a_value_of_the_wrong_shape(self, value):
        with pytest.raises(ValueError):
            Output(b"a", value=value)

    @pytest.mark.parametrize("ref, claimed", [
        ("x", Output(b"a")),
        ((b"h", 0), Output(b"a")),
        (OutputRef(b"h", 0), "x"),
        (OutputRef(b"h", 0), None),
    ], ids=["str-ref", "tuple-ref", "str-output", "no-output"])
    def test_tx_input_rejects_parts_of_the_wrong_type(self, ref, claimed):
        with pytest.raises(ValueError):
            tx_of([(ref, claimed)], [out("r")])

    def test_empty_interval_is_allowed_but_never_valid(self):
        tx = tx_of((), [out("r")], interval=(4, 4))
        assert tx.validity_interval == (4, 4)


class TestUtxoSet:
    def test_equal_contents_compare_equal(self):
        a = OutputRef(b"a", 0)
        b = OutputRef(b"b", 0)
        u1 = UtxoSet({a: out("p"), b: out("q")})
        u2 = UtxoSet({b: out("q"), a: out("p")})
        assert u1 == u2
        assert hash(u1) == hash(u2)

    def test_mapping_constructor(self):
        a = OutputRef(b"a", 0)
        u = UtxoSet({a: out("p")})
        assert u.get(a) == out("p")
        assert a in u
        assert len(u) == 1

    def test_constructor_copies_the_mapping(self):
        a, b = OutputRef(b"a", 0), OutputRef(b"b", 0)
        entries = {a: out("p")}
        u = UtxoSet(entries)
        entries[b] = out("q")
        assert b not in u and len(u) == 1


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
        ins = [(r1, out("p")), (r2, out("q"))]
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


class TestTxCache:
    """hash_tx and mk_outs are computed once per Tx and kept on it."""

    def test_cached_id_is_the_sha256_of_tx_bytes(self):
        tx = golden_tx()
        assert hash_tx(tx) == hashlib.sha256(tx_bytes(tx)).digest()
        assert hash_tx(tx) is hash_tx(tx)

    def test_equality_and_hash_ignore_the_cache(self):
        tx, fresh = golden_tx(), golden_tx()
        before = hash(tx)
        assert tx == fresh
        hash_tx(tx)
        mk_outs(tx)
        assert tx == fresh and fresh == tx
        assert hash(tx) == before == hash(fresh)
        assert len({tx, fresh}) == 1

    def test_replace_gets_a_fresh_id(self):
        tx = golden_tx()
        hash_tx(tx)
        memo = dataclasses.replace(tx, additional_data=b"other")
        assert hash_tx(memo) == hashlib.sha256(tx_bytes(memo)).digest()
        assert hash_tx(memo) != hash_tx(tx)
        assert mk_outs(memo).keys() == {OutputRef(hash_tx(memo), 0),
                                        OutputRef(hash_tx(memo), 1)}

    def test_repr_is_unchanged(self):
        tx = golden_tx()
        before = repr(tx)
        hash_tx(tx)
        mk_outs(tx)
        assert repr(tx) == before

    def test_mk_outs_is_shared(self):
        tx = golden_tx()
        assert mk_outs(tx) is mk_outs(tx)
        assert mk_outs(tx) == mk_outs(golden_tx())


def field_tuple(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


class TestHashCache:
    """Tx and UtxoSet hashes are computed once per instance, unchanged in value."""

    def test_tx_hash_is_the_hash_of_its_fields(self):
        tx = golden_tx()
        assert hash(tx) == hash(field_tuple(tx))
        assert hash(tx) == hash(field_tuple(tx))  # again, from the cache

    def test_utxo_hash_is_the_hash_of_its_refs(self):
        u = mk_outs(golden_tx())
        assert hash(u) == hash(frozenset(u.entries)) == hash(frozenset(u.keys()))

    def test_equal_distinct_values_hash_equal(self):
        tx, twin = golden_tx(), golden_tx()
        assert tx is not twin and tx == twin
        hash(tx)
        assert hash(tx) == hash(twin)
        u = mk_outs(tx)
        copy = UtxoSet(dict(u.entries))
        assert u is not copy and u == copy and hash(u) == hash(copy)

    def test_apply_tx_result_hashes_like_a_fresh_state(self):
        a, b = OutputRef(b"a", 0), OutputRef(b"b", 0)
        u = UtxoSet({a: out("p"), b: out("q")})
        hash(u)
        tx = tx_of([(a, out("p"))], [out("r")])
        after = apply_tx(u, tx)
        fresh = UtxoSet({b: out("q"), OutputRef(hash_tx(tx), 0): out("r")})
        assert after == fresh and hash(after) == hash(fresh)
        assert hash(u) == hash(UtxoSet({a: out("p"), b: out("q")}))

    def test_replace_does_not_inherit_the_cached_hash(self):
        tx = golden_tx()
        hash(tx)
        other = dataclasses.replace(tx, additional_data=b"other")
        assert "_hash" not in vars(other)
        assert hash(other) == hash(field_tuple(other)) != hash(tx)
        u = mk_outs(tx)
        hash(u)
        smaller = dataclasses.replace(u, entries=dict(list(u.entries.items())[:1]))
        assert hash(smaller) == hash(frozenset(smaller.entries)) != hash(u)


def small_state() -> UtxoSet:
    return UtxoSet({OutputRef(b"b", 1): out("q"), OutputRef(b"a", 0): out("p")})


#: each value derived once per instance: a maker of fresh, equal instances
#: and the attribute
DERIVED_ONCE = {
    "Tx._hash": (golden_tx, "_hash"),
    "Tx._id": (golden_tx, "_id"),
    "Tx._created": (golden_tx, "_created"),
    "UtxoSet._hash": (small_state, "_hash"),
    "UtxoSet._items": (small_state, "_items"),
    "SimpleGraph._succ": (lambda: SimpleGraph({1, 2, 3}, {(1, 2), (1, 3)}, {1}), "_succ"),
}


def pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("make, name", DERIVED_ONCE.values(), ids=list(DERIVED_ONCE))
class TestOnce:
    """``core._once``: derived on the first read through an instance, kept in
    its ``__dict__``, and invisible to the dataclass machinery."""

    def test_derives_once_per_instance(self, make, name, monkeypatch):
        once = vars(type(make()))[name]
        calls, derive = [], once.derive
        monkeypatch.setattr(once, "derive", lambda obj: calls.append(obj) or derive(obj))
        obj, twin = make(), make()
        first = getattr(obj, name)
        assert all(getattr(obj, name) is first for _ in range(3))
        assert getattr(twin, name) == first
        assert [id(c) for c in calls] == [id(obj), id(twin)]
        assert vars(obj)[name] is first

    def test_unseen_by_repr_eq_fields_and_hash(self, make, name):
        obj, fresh = make(), make()
        before = repr(obj)
        getattr(obj, name)
        assert name in vars(obj) and name not in vars(fresh)
        assert repr(obj) == before == repr(fresh)
        assert obj == fresh and fresh == obj
        assert hash(obj) == hash(fresh) and len({obj, fresh}) == 1
        assert name not in {f.name for f in dataclasses.fields(obj)}

    def test_replace_starts_empty(self, make, name):
        obj = make()
        value = getattr(obj, name)
        other = dataclasses.replace(obj)
        assert name not in vars(other)
        assert getattr(other, name) == value

    @pytest.mark.parametrize("twin_of", [copy.copy, pickled], ids=["copy", "pickle"])
    def test_copies_keep_equality_and_hash(self, make, name, twin_of):
        obj = make()
        value = getattr(obj, name)
        twin = twin_of(obj)
        assert twin == obj and hash(twin) == hash(obj)
        assert getattr(twin, name) == value

    @pytest.mark.parametrize("twin_of", [copy.copy, copy.deepcopy, pickled],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_derive_their_own(self, make, name, twin_of):
        obj = make()
        getattr(obj, name)
        assert name not in vars(twin_of(obj))

    def test_read_through_the_class_is_the_descriptor(self, make, name):
        cls = type(make())
        assert isinstance(getattr(cls, name), _once)
        assert getattr(cls, name) is vars(cls)[name]


def test_value_pickled_after_hashing_hashes_as_fresh_in_another_process():
    """A hash is salted per process: a value pickled after its derived
    values were read loads, under another hash seed, as one pickled fresh."""
    fresh = pickle.dumps([make() for make, _ in DERIVED_ONCE.values()])
    warm = [make() for make, _ in DERIVED_ONCE.values()]
    for obj, (_, name) in zip(warm, DERIVED_ONCE.values()):
        getattr(obj, name)
        hash(obj)
    child = (
        "import json, pickle, sys\n"
        "fresh, warm = map(pickle.loads, pickle.load(sys.stdin.buffer))\n"
        "print(json.dumps([[a == b, hash(a) == hash(b), len({a, b})]"
        " for a, b in zip(fresh, warm)]))\n"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(ledgerlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                          input=pickle.dumps((fresh, pickle.dumps(warm))),
                          capture_output=True)
    assert json.loads(done.stdout) == [[True, True, 1]] * len(DERIVED_ONCE)


class TestAuxiliary:
    def test_mk_outs_keys(self):
        tx = tx_of((), [out("p"), out("q")])
        h = hash_tx(tx)
        created = mk_outs(tx)
        assert created.keys() == frozenset([OutputRef(h, 0), OutputRef(h, 1)])
        assert created.get(OutputRef(h, 0)) == out("p")

    def test_mk_outs_empty(self):
        ref = OutputRef(b"h", 0)
        tx = tx_of([(ref, out("p"))], [])
        assert len(mk_outs(tx)) == 0

    def test_get_orefs(self):
        r1, r2 = OutputRef(b"a", 0), OutputRef(b"b", 1)
        tx = tx_of([(r1, out("p")), (r2, out("q"))], [out("r")])
        assert get_orefs(tx) == frozenset([r1, r2])
        assert get_orefs(tx_of((), [out("r")])) == frozenset()


@pytest.fixture
def small_ledger():
    genesis = tx_of((), [out("g0"), out("g1")])
    u0 = mk_outs(genesis)
    h = hash_tx(genesis)
    spend0 = tx_of(
        [(OutputRef(h, 0), genesis.outputs[0])], [out("n0")], interval=(0, 10)
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
        ghost = tx_of([(OutputRef(b"nope", 0), out("p"))], [out("n")])
        assert check_tx(5, u0, ghost).reason == "missing-input"

    def test_rejects_mismatched_output_fields(self, small_ledger):
        u0, h, _ = small_ledger
        wrong = tx_of(
            [(OutputRef(h, 0), out("g0", coins=11))], [out("n")]
        )
        assert check_tx(5, u0, wrong).reason == "missing-input"

    def test_held_output_is_matched_by_identity_then_by_value(
            self, small_ledger, monkeypatch):
        u0, h, spend0 = small_ledger
        ref = OutputRef(h, 0)
        calls = output_comparisons(monkeypatch)
        assert check_tx(5, u0, spend0) and calls == []
        twin = out("g0")
        assert twin is not u0.get(ref)
        assert check_tx(5, u0, tx_of([(ref, twin)], [out("n")])) and len(calls) == 1
        wrong = tx_of([(ref, out("g0", coins=11))], [out("n")])
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

    def test_apply_leaves_the_state_unchanged(self, small_ledger):
        u0, _, spend0 = small_ledger
        before = dict(u0.entries)
        apply_tx(u0, spend0)
        assert u0.entries == before

    def test_apply_collision_raises(self, small_ledger):
        u0, h, spend0 = small_ledger
        u1 = apply_tx(u0, spend0)
        # re-adding the spent entry lets the same tx apply again, and its
        # created ref then collides with the surviving copy
        rigged = UtxoSet({**u1.entries, OutputRef(h, 0): out("g0")})
        with pytest.raises(KeyCollisionError, match="output refs already present"):
            apply_tx(rigged, spend0)
        outcome = step_ledger(5, rigged, spend0)
        assert outcome == CheckResult(False, "created-collides")

    def test_step_ledger_valid(self, small_ledger):
        u0, _, spend0 = small_ledger
        outcome = step_ledger(5, u0, spend0)
        assert isinstance(outcome, UtxoSet)
        assert outcome == apply_tx(u0, spend0)

    def test_step_ledger_rejection_carries_reason(self, small_ledger):
        u0, _, spend0 = small_ledger
        outcome = step_ledger(77, u0, spend0)
        assert isinstance(outcome, CheckResult)
        assert outcome.reason == "slot-out-of-interval"

    def test_resubmission_is_rejected(self, small_ledger):
        u0, _, spend0 = small_ledger
        u1 = apply_tx(u0, spend0)
        outcome = step_ledger(5, u1, spend0)
        assert isinstance(outcome, CheckResult)
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
                after = step_ledger(slot, utxo, tx)
                if isinstance(after, CheckResult):
                    continue
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
    spend_all = tx_of(u0.items(), [out("fresh")])
    after = apply_tx(u0, spend_all)
    assert after.keys() == mk_outs(spend_all).keys()
