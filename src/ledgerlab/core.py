"""EUTxO-style small-step ledger: state, transactions, validation, application.

The ledger state is a finite map from output references ``(tx_hash, index)``
to outputs.  Applying a transaction removes the entries it spends and adds
one entry per output, keyed by the transaction hash.  All values here are
immutable after construction and every operation is a pure function.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Tuple, Union

MAX_INDEX = 2 ** 32

# Ledger time: a slot is a plain natural number.  A validity interval
# (start, end) includes start and excludes end.
Slot = int

#: Signature of the pluggable extension hook consulted by check_tx.
AdditionalChecks = Callable[[Slot, "UtxoSet", "Tx"], bool]


def _in_domain(value, what: str, bound: Optional[int] = 2 ** 64):
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


class KeyCollisionError(Exception):
    """A freshly created output reference already exists unspent.

    This signals either a hash collision or a replayed transaction; it is
    raised loudly rather than silently overwriting the entry.
    """


@dataclass(frozen=True, order=True)
class OutputRef:
    """Unique identifier of a UTxO entry: creating tx hash + output position."""

    tx_hash: bytes
    index: int

    def __post_init__(self):
        _in_domain(self.tx_hash, "tx_hash", bound=None)
        _in_domain(self.index, "output index", MAX_INDEX)


@dataclass(frozen=True)
class Output:
    """A ledger entry value: owner address, token bag, opaque datum.

    ``value`` maps token ids to positive quantities.  Zero quantities are
    normalized away at construction; quantities outside [0, 2^64) are
    rejected.
    """

    address: bytes
    value: Tuple[Tuple[bytes, int], ...] = ()
    datum: bytes = b""

    def __post_init__(self):
        _in_domain(self.address, "address", bound=None)
        _in_domain(self.datum, "datum", bound=None)
        pairs = self.value.items() if isinstance(self.value, Mapping) else self.value
        norm = []
        seen = set()
        for token, qty in pairs:
            _in_domain(token, "token id", bound=None)
            _in_domain(qty, "token quantity")
            if token in seen:
                raise ValueError("duplicate token id in value map")
            seen.add(token)
            if qty > 0:
                norm.append((token, qty))
        object.__setattr__(self, "value", tuple(sorted(norm)))

    def quantity(self, token: bytes) -> int:
        for tok, qty in self.value:
            if tok == token:
                return qty
        return 0


@dataclass(frozen=True)
class TxInput:
    """A pointer into the UTxO set, paired with the output it claims to spend."""

    output_ref: OutputRef
    output: Output


@dataclass(frozen=True)
class Tx:
    """A transaction: inputs to consume, outputs to create, validity window."""

    inputs: frozenset
    outputs: Tuple[Output, ...]
    validity_interval: Tuple[Slot, Slot]
    additional_data: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "validity_interval", tuple(self.validity_interval))
        refs = [i.output_ref for i in self.inputs]
        if len(set(refs)) != len(refs):
            raise ValueError("transaction inputs must have distinct output refs")
        start, end = self.validity_interval
        _in_domain(start, "validity bound")
        _in_domain(end, "validity bound")
        _in_domain(self.additional_data, "additional_data", bound=None)
        if start > end:
            raise ValueError("bad validity interval: %r" % (self.validity_interval,))


@dataclass(frozen=True)
class UtxoSet:
    """The ledger state: a finite map OutputRef -> Output.

    Stored as a sorted tuple of pairs so that two sets with equal contents
    compare and hash equal.
    """

    entries: Tuple[Tuple[OutputRef, Output], ...] = ()

    def __post_init__(self):
        pairs = (
            self.entries.items()
            if isinstance(self.entries, Mapping)
            else self.entries
        )
        items = tuple(sorted(pairs, key=lambda kv: kv[0]))
        refs = [ref for ref, _ in items]
        if len(set(refs)) != len(refs):
            raise ValueError("duplicate output ref in UTxO set")
        object.__setattr__(self, "entries", items)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ref: OutputRef) -> bool:
        return any(r == ref for r, _ in self.entries)

    def get(self, ref: OutputRef) -> Optional[Output]:
        for r, out in self.entries:
            if r == ref:
                return out
        return None

    def keys(self) -> frozenset:
        return frozenset(r for r, _ in self.entries)

    def items(self) -> Tuple[Tuple[OutputRef, Output], ...]:
        return self.entries

    def without(self, refs: Iterable[OutputRef]) -> "UtxoSet":
        drop = set(refs)
        return UtxoSet(tuple(kv for kv in self.entries if kv[0] not in drop))

    def union(self, other: "UtxoSet") -> "UtxoSet":
        overlap = self.keys() & other.keys()
        if overlap:
            raise KeyCollisionError(
                "output refs already present: %r" % (sorted(overlap)[:3],)
            )
        return UtxoSet(self.entries + other.entries)


EMPTY_UTXO = UtxoSet()


# --- canonical byte serialization (hashing only; see docs/format.md) -------

def _ser_nat(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _ser_bytes(b: bytes) -> bytes:
    return _ser_nat(len(b)) + b


def _ser_output(out: Output) -> bytes:
    parts = [_ser_bytes(out.address), _ser_nat(len(out.value))]
    for token, qty in out.value:
        parts.append(_ser_bytes(token))
        parts.append(_ser_nat(qty))
    parts.append(_ser_bytes(out.datum))
    return b"".join(parts)


def _ser_input(txin: TxInput) -> bytes:
    return (
        _ser_bytes(txin.output_ref.tx_hash)
        + _ser_nat(txin.output_ref.index)
        + _ser_output(txin.output)
    )


def tx_bytes(tx: Tx) -> bytes:
    """Canonical serialization of a transaction, input to the hash function.

    Field order: inputs (sorted by output ref), outputs (list order),
    validity interval, extension payload.  Naturals are big-endian fixed
    8 bytes; byte-strings are length-prefixed.
    """
    inputs = sorted(tx.inputs, key=lambda i: i.output_ref)
    parts = [_ser_nat(len(inputs))]
    parts.extend(_ser_input(i) for i in inputs)
    parts.append(_ser_nat(len(tx.outputs)))
    parts.extend(_ser_output(o) for o in tx.outputs)
    parts.append(_ser_nat(tx.validity_interval[0]))
    parts.append(_ser_nat(tx.validity_interval[1]))
    parts.append(_ser_bytes(tx.additional_data))
    return b"".join(parts)


def hash_tx(tx: Tx) -> bytes:
    """Deterministic 32-byte transaction id over the canonical serialization."""
    return hashlib.sha256(tx_bytes(tx)).digest()


# --- auxiliary UTxO functions ----------------------------------------------

def to_map(start_ix: int, outs: Iterable[Output]) -> dict:
    """Index a list of outputs into a finite map starting at ``start_ix``."""
    return {start_ix + k: out for k, out in enumerate(outs)}


def mk_outs(tx: Tx) -> UtxoSet:
    """UTxO entries created by a transaction, keyed (hash_tx(tx), index)."""
    h = hash_tx(tx)
    return UtxoSet(
        tuple((OutputRef(h, ix), out) for ix, out in to_map(0, tx.outputs).items())
    )


def get_orefs(tx: Tx) -> frozenset:
    """The set of output refs a transaction spends."""
    return frozenset(i.output_ref for i in tx.inputs)


# --- validation and application --------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the name of the first failed clause."""

    ok: bool
    reason: Optional[str] = None

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
    for txin in tx.inputs:
        if utxo.get(txin.output_ref) != txin.output:
            return CheckResult(False, "missing-input")
    if additional_checks is not None and not additional_checks(slot, utxo, tx):
        return CheckResult(False, "additional-checks")
    return CHECK_OK


def apply_tx(utxo: UtxoSet, tx: Tx) -> UtxoSet:
    """State update: drop the spent refs, add the created entries.

    Raises KeyCollisionError if a created ref survives in the remaining set,
    which cannot happen on valid runs from a well-founded initial state.
    """
    return utxo.without(get_orefs(tx)).union(mk_outs(tx))


@dataclass(frozen=True)
class LedgerStep:
    """One valid ledger transition: ``after = apply_tx(before, tx)``."""

    slot: Slot
    before: UtxoSet
    tx: Tx
    after: UtxoSet


@dataclass(frozen=True)
class Rejection:
    """A refused transition, carrying the check_tx diagnostic."""

    reason: str


def step_ledger(
    slot: Slot,
    utxo: UtxoSet,
    tx: Tx,
    additional_checks: Optional[AdditionalChecks] = None,
) -> Union[LedgerStep, Rejection]:
    """Validate and apply a single transaction.

    A created ref that is still unspent (possible only from a state that is
    not well founded) is refused as ``created-collides``.
    """
    verdict = check_tx(slot, utxo, tx, additional_checks)
    if not verdict:
        return Rejection(verdict.reason)
    try:
        after = apply_tx(utxo, tx)
    except KeyCollisionError:
        return Rejection("created-collides")
    return LedgerStep(slot, utxo, tx, after)
