"""The plain JSON reader and writer that ``ledgerlab.serialize`` replaced.

Kept as the oracles of the differential tests in ``test_serialize_oracle.py``.
The reader builds a fresh ``OutputRef`` and ``Output`` for every entry it
reads, so each occurrence of an entry runs every check on its own.  The
writer builds the JSON tree of every value at every occurrence and encodes
the whole file with one ``json.dumps``.  ``FormatError`` is the library's,
so both readers raise the same exception class.  The repeated-ref check in
``utxo_from_json`` is the one the ``UtxoSet`` constructor made when it
still took a pair sequence.
"""
from __future__ import annotations

import json
from typing import List, Tuple

from ledgerlab.core import (
    Output, OutputRef, Slot, Tx, UtxoSet, _in_domain, _of_type,
)
from ledgerlab.graphs import SimpleGraph
from ledgerlab.serialize import FORMAT_VERSION, FormatError, digest
from ledgerlab.traces import TracePrefix


def _load(text: str, kind: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise FormatError("top-level value must be an object")
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError("unsupported format version: %r" % payload.get("version"))
    if payload.get("kind") != kind:
        raise FormatError(
            "expected kind %r, found %r" % (kind, payload.get("kind"))
        )
    return payload


def _hex(s: str) -> bytes:
    """Decode a byte string; only canonical lowercase hex is accepted."""
    b = bytes.fromhex(s)
    if b.hex() != s:
        raise ValueError("byte string is not lowercase hex: %r" % (s,))
    return b


def output_from_json(obj: dict) -> Output:
    try:
        value = obj["value"]
        if not isinstance(value, dict):
            raise TypeError("token value must be an object: %r" % (value,))
        return Output(
            address=_hex(obj["address"]),
            value={_hex(t): q for t, q in value.items()},
            datum=_hex(obj["datum"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output: %s" % exc) from exc


def ref_from_json(obj: dict) -> OutputRef:
    try:
        return OutputRef(_hex(obj["tx_hash"]), obj["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output ref: %s" % exc) from exc


def tx_from_json(obj: dict) -> Tx:
    try:
        return Tx(
            inputs=frozenset(
                (ref_from_json(i["output_ref"]), output_from_json(i["output"]))
                for i in _of_type(obj["inputs"], list, "inputs")
            ),
            outputs=tuple(
                output_from_json(o) for o in _of_type(obj["outputs"], list, "outputs")
            ),
            validity_interval=obj["validity_interval"],
            additional_data=_hex(obj["additional_data"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad transaction: %s" % exc) from exc


def utxo_from_json(obj: list) -> UtxoSet:
    try:
        pairs = tuple(
            (ref_from_json(e["output_ref"]), output_from_json(e["output"]))
            for e in _of_type(obj, list, "state")
        )
        entries = dict(pairs)
        if len(entries) != len(pairs):
            raise ValueError("duplicate output ref in UTxO set")
        return UtxoSet(entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad UTxO set: %s" % exc) from exc


def load_trace(text: str) -> Tuple[TracePrefix, List[Tx], List[Slot]]:
    obj = _load(text, "trace")
    try:
        states = tuple(
            utxo_from_json(u) for u in _of_type(obj["states"], list, "states")
        )
        lifts = obj["lifts"]
        annotations = None
        if lifts is not None:
            annotations = tuple(
                (_in_domain(slot, "slot"), tx_from_json(tx))
                for slot, tx in _of_type(lifts, list, "lifts")
            )
        truncated = _of_type(obj.get("truncated", False), bool, "truncated")
        prefix = TracePrefix(states, annotations, truncated)
        genesis = [
            tx_from_json(t) for t in _of_type(obj.get("genesis", []), list, "genesis")
        ]
        slots = [
            _in_domain(q, "slot")
            for q in _of_type(obj.get("initial_slots", []), list, "initial_slots")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad trace file: %s" % exc) from exc
    return prefix, genesis, slots


def load_run(text: str) -> Tuple[UtxoSet, List[Tuple[Slot, Tx]], List[Tx]]:
    obj = _load(text, "run")
    try:
        initial = utxo_from_json(obj["initial"])
        steps = [
            (_in_domain(slot, "slot"), tx_from_json(tx))
            for slot, tx in _of_type(obj["steps"], list, "steps")
        ]
        genesis = [
            tx_from_json(t) for t in _of_type(obj.get("genesis", []), list, "genesis")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad run file: %s" % exc) from exc
    return initial, steps, genesis


# --- the writer ---------------------------------------------------------------

def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _dump(payload: dict) -> str:
    return canonical(dict(payload, version=FORMAT_VERSION)) + "\n"


def output_to_json(out: Output) -> dict:
    return {
        "address": out.address.hex(),
        "value": {token.hex(): qty for token, qty in out.value},
        "datum": out.datum.hex(),
    }


def ref_to_json(ref: OutputRef) -> dict:
    return {"tx_hash": ref.tx_hash.hex(), "index": ref.index}


def entry_to_json(ref: OutputRef, out: Output) -> dict:
    return {"output_ref": ref_to_json(ref), "output": output_to_json(out)}


def tx_to_json(tx: Tx) -> dict:
    inputs = sorted(tx.inputs, key=lambda i: i[0])
    return {
        "inputs": [entry_to_json(ref, o) for ref, o in inputs],
        "outputs": [output_to_json(o) for o in tx.outputs],
        "validity_interval": list(tx.validity_interval),
        "additional_data": tx.additional_data.hex(),
    }


def utxo_to_json(utxo) -> list:
    return [entry_to_json(ref, out) for ref, out in utxo.items()]


def dump_trace(prefix: TracePrefix, genesis_txs=(), initial_slots=()) -> str:
    lifts = None
    if prefix.annotations is not None:
        lifts = [[slot, tx_to_json(tx)] for slot, tx in prefix.annotations]
    return _dump(
        {
            "kind": "trace",
            "states": [utxo_to_json(u) for u in prefix.states],
            "lifts": lifts,
            "truncated": prefix.truncated,
            "genesis": [tx_to_json(t) for t in genesis_txs],
            "initial_slots": sorted(initial_slots),
        }
    )


def dump_run(initial: UtxoSet, steps, genesis_txs=()) -> str:
    return _dump(
        {
            "kind": "run",
            "initial": utxo_to_json(initial),
            "steps": [[slot, tx_to_json(tx)] for slot, tx in steps],
            "genesis": [tx_to_json(t) for t in genesis_txs],
        }
    )


def dump_contract_trace(prefix: TracePrefix) -> str:
    lifts = None
    if prefix.annotations is not None:
        lifts = [[None, inp] for _, inp in prefix.annotations]
    return _dump({"kind": "contract-trace", "states": list(prefix.states), "lifts": lifts})


def dump_graph(graph: SimpleGraph, label) -> str:
    ids = {v: label(v) for v in graph.vertices}
    return _dump(
        {
            "kind": "graph",
            "vertices": sorted(ids.values()),
            "edges": sorted([ids[a], ids[b]] for a, b in graph.edges),
            "initial": sorted(ids[v] for v in graph.initial),
        }
    )


def dump_ledger_graphs(lam: SimpleGraph, lam_prime: SimpleGraph) -> Tuple[str, str]:
    def label(payload) -> str:
        return digest(canonical(payload))[:16]

    return (
        dump_graph(lam, lambda v: label([v[0], utxo_to_json(v[1]), tx_to_json(v[2])])),
        dump_graph(lam_prime, lambda u: label(utxo_to_json(u))),
    )
