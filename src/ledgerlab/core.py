"""EUTxO-style small-step ledger: state, transactions, validation, application.

The ledger state is a finite map from output references ``(tx_hash, index)``
to outputs.  Applying a transaction removes the entries it spends and adds
one entry per output, keyed by the transaction hash.  All values here are
immutable after construction and every public operation is a pure function;
``apply_tx`` is the one place that edits a state's entries, those of the
state it is building, before it returns.
"""
from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Optional, Tuple, Union

MAX_INDEX = 2 ** 32
_NAT_BOUND = 2 ** 64

# Ledger time: a slot is a plain natural number.  A validity interval
# (start, end) includes start and excludes end.
Slot = int

#: Signature of the pluggable extension hook consulted by check_tx.
AdditionalChecks = Callable[[Slot, "UtxoSet", "Tx"], bool]


def _in_domain(value, what: str, bound: Optional[int] = _NAT_BOUND):
    """``value`` if ``tx_bytes`` can serialize it, else ValueError.

    That is ``bytes`` when ``bound`` is None, else an int, not a bool, in
    [0, bound): naturals are serialized as 8 bytes.
    """
    if bound is None:
        ok = isinstance(value, bytes)
    else:
        ok = type(value) is int and 0 <= value < bound
    if not ok:
        raise ValueError("%s outside the tx_bytes domain: %r" % (what, value))
    return value


def _of_type(value, cls: type, what: str):
    """``value`` if it is a ``cls``, else ValueError."""
    if not isinstance(value, cls):
        raise ValueError("%s is not %s: %r" % (what, cls.__name__, value))
    return value


class _once:
    """An attribute that ``derive(obj)`` computes on its first read.

    The value is stored in ``obj.__dict__`` under the attribute's name,
    where every later read finds it first.  It is not a dataclass field, so
    ``==``, ``repr`` and the dataclass hash do not see it, and
    ``dataclasses.replace`` starts empty.  Read through the class, it is
    the descriptor.  (``functools.cached_property`` takes a lock on every
    first read on Python 3.11.)
    """

    def __init__(self, derive: Callable):
        self.derive = derive

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.derive(obj)
        return value


def _state_without_once(obj) -> dict:
    """``obj.__dict__`` without its ``_once`` values: the state that pickle
    and copy take, as a class's ``__getstate__``.  A hash is salted per
    process, so a value loaded elsewhere derives its own."""
    cls = type(obj)
    return {name: value for name, value in vars(obj).items()
            if not isinstance(getattr(cls, name, None), _once)}


class KeyCollisionError(Exception):
    """A freshly created output reference already exists unspent.

    This signals either a hash collision or a replayed transaction; it is
    raised loudly rather than silently overwriting the entry.
    """


class OutputRef(tuple):
    """Unique identifier of a UTxO entry: creating tx hash + output position.

    The pair ``(tx_hash, index)`` itself, so hashing, equality and ordering
    run in C: every state lookup is keyed by a ref.  It hashes, compares
    and orders exactly as that plain tuple, to which it is equal.
    """

    __slots__ = ()

    def __new__(cls, tx_hash: bytes, index: int):
        # exact types pass inline; anything else gets _in_domain's verdict
        if type(tx_hash) is not bytes:
            _in_domain(tx_hash, "tx_hash", bound=None)
        if type(index) is not int or not 0 <= index < MAX_INDEX:
            _in_domain(index, "output index", MAX_INDEX)
        return tuple.__new__(cls, (tx_hash, index))

    tx_hash = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self):
        # pickle and copy rebuild a ref as OutputRef(tx_hash, index)
        return tuple(self)

    def __repr__(self) -> str:
        return "OutputRef(tx_hash=%r, index=%r)" % self


class Output(tuple):
    """A ledger entry value: owner address, token bag, opaque datum.

    The triple ``(address, value, datum)`` itself, as ``OutputRef`` is its
    pair: it hashes, compares and orders exactly as that plain tuple, to
    which it is equal.  ``value`` maps token ids to positive quantities,
    given as a mapping or as pairs and kept as pairs sorted by token.  Zero
    quantities are normalized away at construction; quantities outside
    [0, 2^64) are rejected.
    """

    __slots__ = ()

    def __new__(cls, address: bytes, value=(), datum: bytes = b""):
        if type(address) is not bytes:
            _in_domain(address, "address", bound=None)
        if type(datum) is not bytes:
            _in_domain(datum, "datum", bound=None)
        pairs = value.items() if type(value) is dict or isinstance(value, Mapping) else value
        norm = []
        seen = set()
        try:
            for token, qty in pairs:
                if type(token) is not bytes:
                    _in_domain(token, "token id", bound=None)
                if type(qty) is not int or not 0 <= qty < _NAT_BOUND:
                    _in_domain(qty, "token quantity")
                if token in seen:
                    raise ValueError("duplicate token id in value map")
                seen.add(token)
                if qty:
                    norm.append((token, qty))
        except TypeError as exc:
            raise ValueError("value is not (token, quantity) pairs: %s" % exc) from exc
        norm.sort()
        return tuple.__new__(cls, (address, tuple(norm), datum))

    address = property(itemgetter(0))
    value = property(itemgetter(1))
    datum = property(itemgetter(2))

    def __getnewargs__(self):
        # pickle and copy rebuild an output as Output(address, value, datum)
        return tuple(self)

    def __repr__(self) -> str:
        return "Output(address=%r, value=%r, datum=%r)" % self

    def quantity(self, token: bytes) -> int:
        for tok, qty in self[1]:
            if tok == token:
                return qty
        return 0


@dataclass(frozen=True)
class Tx:
    """A transaction: inputs to consume, outputs to create, validity window.

    An input is a ledger entry, the plain pair ``(OutputRef, Output)`` of a
    ref and the output it claims to spend, as ``UtxoSet.items()`` holds it.
    """

    inputs: frozenset
    outputs: Tuple[Output, ...]
    validity_interval: Tuple[Slot, Slot]
    additional_data: bytes = b""

    def __post_init__(self):
        # exact types pass inline, and a part that already has its final
        # type is kept as given; anything else gets _of_type's or
        # _in_domain's verdict
        inputs, outputs, interval = self.inputs, self.outputs, self.validity_interval
        try:
            if type(inputs) is not frozenset:
                object.__setattr__(self, "inputs", inputs := frozenset(inputs))
            if type(outputs) is not tuple:
                object.__setattr__(self, "outputs", outputs := tuple(outputs))
            if type(interval) is not tuple:
                object.__setattr__(self, "validity_interval", interval := tuple(interval))
        except TypeError as exc:
            raise ValueError("bad inputs, outputs or interval: %s" % exc) from exc
        refs = set()
        for pair in inputs:
            # a plain tuple: an OutputRef is a 2-tuple too
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError("input is not a (ref, output) pair: %r" % (pair,))
            ref, claimed = pair
            if type(ref) is not OutputRef:
                _of_type(ref, OutputRef, "input ref")
            if type(claimed) is not Output:
                _of_type(claimed, Output, "claimed output")
            refs.add(ref)
        for out in outputs:
            if type(out) is not Output:
                _of_type(out, Output, "output")
        if len(refs) != len(inputs):
            raise ValueError("transaction inputs must have distinct output refs")
        start, end = interval
        for slot in (start, end):
            if type(slot) is not int or not 0 <= slot < _NAT_BOUND:
                _in_domain(slot, "validity bound")
        if type(self.additional_data) is not bytes:
            _in_domain(self.additional_data, "additional_data", bound=None)
        if start > end:
            raise ValueError("bad validity interval: %r" % (interval,))

    # the value the dataclass __hash__ would compute
    _hash = _once(lambda tx: hash(
        (tx.inputs, tx.outputs, tx.validity_interval, tx.additional_data)))
    _id = _once(lambda tx: hashlib.sha256(tx_bytes(tx)).digest())
    _created = _once(lambda tx: UtxoSet(
        {OutputRef(hash_tx(tx), ix): out for ix, out in enumerate(tx.outputs)}))

    __getstate__ = _state_without_once

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class UtxoSet:
    """The ledger state: a finite map OutputRef -> Output.

    Built from a mapping, copied into a dict, so lookups are dict operations
    and equal contents compare and hash equal.  Only ``items()`` sorts, at
    most once per state, and not at all for a state that ``apply_tx`` made
    from a parent whose order was known.
    """

    entries: Mapping[OutputRef, Output] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    # The refs only, so equal states still hash equal: frozenset(dict) reuses
    # the dict's stored hashes and runs no Python-level __hash__.  Hashing the
    # items made the state-repeat scan 20x slower on 2000-entry states.
    # ``entries`` is edited after construction only by apply_tx, on the state
    # it is building, before it returns.
    _hash = _once(lambda u: hash(frozenset(u.entries)))
    _items = _once(lambda u: _sorted_items(u.entries))
    __getstate__ = _state_without_once

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ref: OutputRef) -> bool:
        return ref in self.entries

    def get(self, ref: OutputRef) -> Optional[Output]:
        return self.entries.get(ref)

    def keys(self) -> AbstractSet[OutputRef]:
        """The refs as a set-like view; it compares equal to a frozenset."""
        return self.entries.keys()

    def values(self) -> Iterable[Output]:
        return self.entries.values()

    def items(self) -> Tuple[Tuple[OutputRef, Output], ...]:
        """The entries in canonical order: sorted by ref."""
        return self._items


def _sorted_items(entries: Mapping) -> Tuple[Tuple[OutputRef, Output], ...]:
    """The plain sort of a state's entries by ref: the canonical order of a
    state whose parent's order is unknown, and the oracle of a derived one."""
    return tuple(sorted(entries.items(), key=_ref_of))


_ref_of = itemgetter(0)


def _derived_order(u: UtxoSet, spent: Iterable[OutputRef], created: Mapping):
    """The canonical order of (u \\ spent) ∪ created from u's known order,
    where every spent ref is in u and no created ref is in u \\ spent.
    Kept pairs are the very pair objects of u's order.
    """
    items = list(u._items)
    for ref in spent:
        del items[bisect_left(items, ref, key=_ref_of)]
    for pair in created.items():
        insort(items, pair, key=_ref_of)
    return tuple(items)


# --- canonical byte serialization (hashing only; see docs/format.md) -------

def _ser_nat(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _ser_bytes(b: bytes) -> bytes:
    return _ser_nat(len(b)) + b


def _ser_output(out: Output) -> bytes:
    address, value, datum = out
    parts = [len(address).to_bytes(8, "big"), address, len(value).to_bytes(8, "big")]
    for token, qty in value:
        parts += (len(token).to_bytes(8, "big"), token, qty.to_bytes(8, "big"))
    parts += (len(datum).to_bytes(8, "big"), datum)
    return b"".join(parts)


def _ser_input(ref: OutputRef, out: Output) -> bytes:
    return _ser_bytes(ref.tx_hash) + _ser_nat(ref.index) + _ser_output(out)


def tx_bytes(tx: Tx) -> bytes:
    """Canonical serialization of a transaction, input to the hash function.

    Field order: inputs (sorted by output ref), outputs (list order),
    validity interval, extension payload.  Naturals are big-endian fixed
    8 bytes; byte-strings are length-prefixed.
    """
    inputs = sorted(tx.inputs, key=_ref_of)
    parts = [_ser_nat(len(inputs))]
    parts.extend(_ser_input(ref, out) for ref, out in inputs)
    parts.append(_ser_nat(len(tx.outputs)))
    parts.extend(_ser_output(o) for o in tx.outputs)
    parts.append(_ser_nat(tx.validity_interval[0]))
    parts.append(_ser_nat(tx.validity_interval[1]))
    parts.append(_ser_bytes(tx.additional_data))
    return b"".join(parts)


def hash_tx(tx: Tx) -> bytes:
    """Deterministic 32-byte transaction id: SHA-256 of ``tx_bytes(tx)``.

    Each ``Tx`` instance is hashed once; later calls return the stored id.
    """
    return tx._id


# --- auxiliary UTxO functions ----------------------------------------------

def mk_outs(tx: Tx) -> UtxoSet:
    """UTxO entries created by a transaction, keyed (hash_tx(tx), index).

    Built once per ``Tx`` instance: every call returns the same shared,
    read-only state.
    """
    return tx._created


def get_orefs(tx: Tx) -> frozenset:
    """The set of output refs a transaction spends."""
    return frozenset(map(_ref_of, tx.inputs))


# --- validation and application --------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """The answer of every check: passed, or which clause failed and where.

    ``reason`` names the first failed clause; ``witness`` locates the
    failure (a step index, a pair of positions, a vertex or an edge).
    """

    ok: bool
    reason: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


CHECK_OK = CheckResult(True)


def check_tx(
    slot: Slot,
    utxo: UtxoSet,
    tx: Tx,
    additional_checks: Optional[AdditionalChecks] = None,
) -> CheckResult:
    """Decide whether ``tx`` may be applied to ``utxo`` at ``slot``.

    Clauses, in diagnostic order: the transaction has at least one input;
    the slot lies in [start, end); every input is present in the UTxO set
    with a field-for-field matching output; the extension hook accepts.
    """
    if not tx.inputs:
        return CheckResult(False, "empty-inputs")
    start, end = tx.validity_interval
    if not start <= slot < end:
        return CheckResult(False, "slot-out-of-interval")
    for ref, out in tx.inputs:
        if (held := utxo.get(ref)) is not out and held != out:
            return CheckResult(False, "missing-input")
    if additional_checks is not None and not additional_checks(slot, utxo, tx):
        return CheckResult(False, "additional-checks")
    return CHECK_OK


def apply_tx(utxo: UtxoSet, tx: Tx) -> UtxoSet:
    """State update u' = (u \\ r) ∪ c: drop the spent refs, add the created.

    Spent refs that ``utxo`` does not hold are skipped.  Raises
    KeyCollisionError if a created ref survives in the remaining set, which
    cannot happen on valid runs from a well-founded initial state.  When
    ``utxo``'s canonical order is known, the new state's order is derived
    from it rather than sorted again.
    """
    new = UtxoSet(utxo.entries)
    entries = new.entries
    spent = []
    for ref, _ in tx.inputs:
        if entries.pop(ref, None) is not None:
            spent.append(ref)
    created = mk_outs(tx).entries
    if not entries.keys().isdisjoint(created):
        overlap = entries.keys() & created.keys()
        raise KeyCollisionError(
            "output refs already present: %r" % (sorted(overlap)[:3],)
        )
    entries.update(created)
    if "_items" in vars(utxo):
        new.__dict__["_items"] = _derived_order(utxo, spent, created)
    return new


def step_ledger(
    slot: Slot,
    utxo: UtxoSet,
    tx: Tx,
    additional_checks: Optional[AdditionalChecks] = None,
) -> Union[UtxoSet, CheckResult]:
    """Validate and apply a single transaction: the next state, or why not.

    A refused step returns the failed ``CheckResult`` of check_tx.  A created
    ref that is still unspent (possible only from a state that is not well
    founded) is refused as ``created-collides``.
    """
    verdict = check_tx(slot, utxo, tx, additional_checks)
    if not verdict:
        return verdict
    try:
        return apply_tx(utxo, tx)
    except KeyCollisionError:
        return CheckResult(False, "created-collides")
