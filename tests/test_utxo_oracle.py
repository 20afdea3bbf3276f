"""Differential tests: the dict-backed UtxoSet against the sorted-tuple oracle.

Refs and outputs come from small pools, so repeated refs, shared entries,
collisions and mismatching inputs are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerlab.core import (
    KeyCollisionError,
    Output,
    OutputRef,
    Tx,
    UtxoSet,
    apply_tx,
    check_tx,
    get_orefs,
    hash_tx,
    mk_outs,
    _sorted_items,
)
from ledgerlab.serialize import FormatError, _Reader, _Writer, output_to_json, ref_to_json
from utxo_oracle import UtxoSet as OracleUtxoSet

refs = st.builds(
    OutputRef, st.sampled_from([b"\x00", b"\x01", b"ab"]), st.integers(0, 3)
)
outputs = st.builds(
    Output,
    st.sampled_from([b"a", b"b"]),
    st.dictionaries(st.sampled_from([b"c", b"t"]), st.integers(0, 3), max_size=2),
    st.sampled_from([b"", b"d"]),
)
pair_lists = st.lists(st.tuples(refs, outputs), max_size=8)
entry_maps = st.dictionaries(refs, outputs, max_size=8)


def build(cls, entries):
    """The state built from ``entries``, or ValueError if a ref repeats."""
    try:
        return cls(entries)
    except ValueError:
        return ValueError


def call(f, *args):
    """``f(*args)``, or the message of the KeyCollisionError it raises."""
    try:
        return f(*args)
    except KeyCollisionError as exc:
        return str(exc)


def oracle_apply(utxo, tx):
    """apply_tx as it read with the oracle state."""
    h = hash_tx(tx)
    created = OracleUtxoSet(
        {OutputRef(h, ix): out for ix, out in enumerate(tx.outputs)}
    )
    return utxo.without(get_orefs(tx)).union(created)


def assert_same_state(new, old):
    assert new.items() == old.items()
    assert len(new) == len(old)
    assert new.keys() == old.keys()
    assert _Writer().utxo([], new) == _Writer().utxo([], old)


def read(pairs):
    """The state the reader builds from ``pairs`` listed as entries, or
    ValueError if it refuses a repeated ref."""
    listed = [{"output_ref": ref_to_json(r), "output": output_to_json(o)}
              for r, o in pairs]
    try:
        return _Reader().utxo(listed)
    except FormatError as exc:
        assert str(exc) == "bad UTxO set: duplicate output ref in UTxO set"
        return ValueError


@settings(max_examples=200, deadline=None)
@given(pairs=pair_lists, probes=st.lists(refs, max_size=4))
def test_construction_and_lookups(pairs, probes):
    new, old = read(pairs), build(OracleUtxoSet, pairs)
    if old is ValueError:
        assert new is ValueError
        return
    assert_same_state(new, old)
    assert_same_state(UtxoSet(dict(pairs)), old)
    for ref in probes + [ref for ref, _ in pairs]:
        assert (ref in new) == (ref in old)
        assert new.get(ref) == old.get(ref)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=entry_maps)
def test_equality_and_hash(data, a):
    b = data.draw(st.one_of(st.permutations(list(a.items())).map(dict), entry_maps))
    equal = UtxoSet(a) == UtxoSet(b)
    assert equal == (OracleUtxoSet(a) == OracleUtxoSet(b))
    assert equal == (UtxoSet(b) == UtxoSet(a))
    if equal:
        assert hash(UtxoSet(a)) == hash(UtxoSet(b))


def some_of(items, max_size=3):
    """A list of distinct elements of ``items``."""
    if not items:
        return st.just([])
    return st.lists(st.sampled_from(items), max_size=max_size, unique=True)


@st.composite
def states_and_txs(draw):
    """A state, a transaction mostly spending from it, and a slot.

    Some inputs claim a different output than the state holds, some refs
    are absent, and some of the transaction's own created entries may be
    planted in the state so that applying it collides.
    """
    base = draw(st.dictionaries(refs, outputs, min_size=1, max_size=8))
    inputs = {ref: base[ref] for ref in draw(some_of(sorted(base)))}
    for ref in draw(st.lists(refs, max_size=1)):
        inputs.setdefault(ref, draw(outputs))
    for ref in draw(some_of(sorted(inputs), max_size=1)):
        inputs[ref] = draw(outputs)
    start, width = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tx = Tx(
        inputs=frozenset(inputs.items()),
        outputs=tuple(draw(st.lists(outputs, max_size=3))),
        validity_interval=(start, start + width),
        additional_data=draw(st.binary(max_size=2)),
    )
    planted = dict(draw(some_of(mk_outs(tx).items())))
    return {**base, **planted}, tx, start + draw(st.integers(0, max(width - 1, 0)))


@settings(max_examples=300, deadline=None)
@given(case=states_and_txs(), ordered=st.booleans())
def test_check_and_apply(case, ordered):
    """``ordered`` sorts the state first, so apply_tx derives the new state's
    order from it instead of leaving it to be sorted."""
    entries, tx, slot = case
    new, old = UtxoSet(entries), OracleUtxoSet(entries)
    if ordered:
        new.items()
    assert check_tx(slot, new, tx) == check_tx(slot, old, tx)
    after_new, after_old = call(apply_tx, new, tx), call(oracle_apply, old, tx)
    if isinstance(after_old, str):
        assert after_new == after_old
        return
    assert ("_items" in vars(after_new)) == ordered
    assert_same_state(after_new, after_old)
    assert after_new.items() == _sorted_items(after_new.entries)
    if ordered:
        parent_pairs = {pair[0]: pair for pair in new.items()}
        kept = new.keys() - get_orefs(tx)
        assert all(pair is parent_pairs[pair[0]]
                   for pair in after_new.items() if pair[0] in kept)
