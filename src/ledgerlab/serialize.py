"""Versioned JSON text format for ledger values, traces, runs, and graphs.

The format is documented in docs/format.md.  Serialization is canonical:
sorted keys, compact separators, a trailing newline, byte-strings hex
encoded.  Readers reject unknown versions.  This format is distinct from
the bit-exact byte serialization used for transaction hashing (core.tx_bytes).
"""
from __future__ import annotations

import hashlib
import json
from typing import List, Sequence, Tuple

from .core import Output, OutputRef, Slot, Tx, TxInput, UtxoSet, _in_domain
from .graphs import SimpleGraph
from .traces import TracePrefix

FORMAT_VERSION = 1


class FormatError(Exception):
    """Malformed, unversioned, or wrong-version input file."""


def _dump(payload: dict) -> str:
    payload = dict(payload, version=FORMAT_VERSION)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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


# --- value <-> jsonable -----------------------------------------------------

def output_to_json(out: Output) -> dict:
    return {
        "address": out.address.hex(),
        "value": {token.hex(): qty for token, qty in out.value},
        "datum": out.datum.hex(),
    }


def output_from_json(obj: dict) -> Output:
    try:
        return Output(
            address=bytes.fromhex(obj["address"]),
            value={bytes.fromhex(t): q for t, q in obj["value"].items()},
            datum=bytes.fromhex(obj["datum"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output: %s" % exc) from exc


def ref_to_json(ref: OutputRef) -> dict:
    return {"tx_hash": ref.tx_hash.hex(), "index": ref.index}


def ref_from_json(obj: dict) -> OutputRef:
    try:
        return OutputRef(bytes.fromhex(obj["tx_hash"]), obj["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output ref: %s" % exc) from exc


def tx_to_json(tx: Tx) -> dict:
    inputs = sorted(tx.inputs, key=lambda i: i.output_ref)
    return {
        "inputs": [
            {"output_ref": ref_to_json(i.output_ref), "output": output_to_json(i.output)}
            for i in inputs
        ],
        "outputs": [output_to_json(o) for o in tx.outputs],
        "validity_interval": list(tx.validity_interval),
        "additional_data": tx.additional_data.hex(),
    }


def tx_from_json(obj: dict) -> Tx:
    try:
        return Tx(
            inputs=frozenset(
                TxInput(ref_from_json(i["output_ref"]), output_from_json(i["output"]))
                for i in obj["inputs"]
            ),
            outputs=tuple(output_from_json(o) for o in obj["outputs"]),
            validity_interval=obj["validity_interval"],
            additional_data=bytes.fromhex(obj["additional_data"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad transaction: %s" % exc) from exc


def utxo_to_json(utxo: UtxoSet) -> list:
    return [
        {"output_ref": ref_to_json(ref), "output": output_to_json(out)}
        for ref, out in utxo.items()
    ]


def utxo_from_json(obj: list) -> UtxoSet:
    try:
        return UtxoSet(
            tuple(
                (ref_from_json(e["output_ref"]), output_from_json(e["output"]))
                for e in obj
            )
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad UTxO set: %s" % exc) from exc


# --- trace files ------------------------------------------------------------

def dump_trace(
    prefix: TracePrefix,
    genesis_txs: Sequence[Tx] = (),
    initial_slots: Sequence[Slot] = (),
) -> str:
    """Trace file: state list, lift annotations, and generation context."""
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


def load_trace(text: str) -> Tuple[TracePrefix, List[Tx], List[Slot]]:
    obj = _load(text, "trace")
    try:
        states = tuple(utxo_from_json(u) for u in obj["states"])
        lifts = obj["lifts"]
        annotations = None
        if lifts is not None:
            annotations = tuple(
                (_in_domain(slot, "slot"), tx_from_json(tx)) for slot, tx in lifts
            )
        prefix = TracePrefix(states, annotations, bool(obj.get("truncated")))
        genesis = [tx_from_json(t) for t in obj.get("genesis", [])]
        slots = [_in_domain(q, "slot") for q in obj.get("initial_slots", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad trace file: %s" % exc) from exc
    return prefix, genesis, slots


# --- run files --------------------------------------------------------------

def dump_run(
    initial: UtxoSet,
    steps: Sequence[Tuple[Slot, Tx]],
    genesis_txs: Sequence[Tx] = (),
) -> str:
    """Run file: an initial state and the (slot, tx) list to replay."""
    return _dump(
        {
            "kind": "run",
            "initial": utxo_to_json(initial),
            "steps": [[slot, tx_to_json(tx)] for slot, tx in steps],
            "genesis": [tx_to_json(t) for t in genesis_txs],
        }
    )


def load_run(text: str) -> Tuple[UtxoSet, List[Tuple[Slot, Tx]], List[Tx]]:
    obj = _load(text, "run")
    try:
        initial = utxo_from_json(obj["initial"])
        steps = [
            (_in_domain(slot, "slot"), tx_from_json(tx)) for slot, tx in obj["steps"]
        ]
        genesis = [tx_from_json(t) for t in obj.get("genesis", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad run file: %s" % exc) from exc
    return initial, steps, genesis


# --- contract trace files ---------------------------------------------------

def dump_contract_trace(prefix: TracePrefix) -> str:
    """Induced contract trace: opaque states and input labels as JSON."""
    lifts = None
    if prefix.annotations is not None:
        lifts = [[None, inp] for _, inp in prefix.annotations]
    return _dump(
        {
            "kind": "contract-trace",
            "states": list(prefix.states),
            "lifts": lifts,
        }
    )


# --- graph files ------------------------------------------------------------

def dump_graph(graph: SimpleGraph, label) -> str:
    """Explicit graph dump with stable derived vertex ids.

    ``label`` maps a vertex to a string id; ids must be injective on the
    vertex set.
    """
    ids = {v: label(v) for v in graph.vertices}
    if len(set(ids.values())) != len(ids):
        raise ValueError("vertex labeling is not injective")
    return _dump(
        {
            "kind": "graph",
            "vertices": sorted(ids.values()),
            "edges": sorted([ids[a], ids[b]] for a, b in graph.edges),
            "initial": sorted(ids[v] for v in graph.initial),
        }
    )


def digest(text: str) -> str:
    """Reproducibility digest of a serialized payload."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
