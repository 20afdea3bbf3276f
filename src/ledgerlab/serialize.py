"""Versioned JSON text format for ledger values, traces, runs, and graphs.

The format is documented in docs/format.md.  Serialization is canonical:
sorted keys, compact separators, a trailing newline, byte-strings hex
encoded.  Readers reject unknown versions.  This format is distinct from
the bit-exact byte serialization used for transaction hashing (core.tx_bytes).
"""
from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import (
    Output, OutputRef, Slot, Tx, UtxoSet, _in_domain, _of_type, _ref_of, mk_outs,
)
from .graphs import SimpleGraph
from .traces import TracePrefix

FORMAT_VERSION = 1

#: The canonical spelling around the genesis and the states of a trace
#: file and between the entries of a state, which ``_canonical_states``
#: cuts on.
_GENESIS_HEAD = '{"genesis":'
_SLOTS_HEAD = ',"initial_slots":'
_STATES_HEAD = ',"states":['
_TRUNCATED_HEAD = ',"truncated":'
_TRACE_TAILS = tuple(
    '%s%s,"version":%d}\n' % (_TRUNCATED_HEAD, flag, FORMAT_VERSION)
    for flag in ("false", "true")
)
_ENTRY_HEAD = '{"output":'
_ENTRY_DELIMITER = '},{"output":'
_scan = json.JSONDecoder().scan_once


class FormatError(Exception):
    """Malformed, unversioned, or wrong-version input file."""


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``, with
#: the encoder built once
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dump(kind: str, **fields: List[str]) -> str:
    """A format file: one object of ``kind``, the version and ``fields``,
    keys sorted, then a newline.

    A field's value is given as the pieces of its text.  The file's pieces
    go into one list that is joined once, so the text is
    ``_canonical(payload) + "\\n"`` of the payload they spell.
    """
    fields.update(kind=[_canonical(kind)], version=[_canonical(FORMAT_VERSION)])
    pieces = []
    sep = "{"
    for key in sorted(fields):
        pieces += (sep, _canonical(key), ":")
        pieces += fields[key]
        sep = ","
    pieces.append("}\n")
    return "".join(pieces)


def _array(pieces: List[str], items: Iterable, write=list.append) -> List[str]:
    """``pieces`` with the JSON array of ``items`` appended.

    ``write(pieces, item)`` appends one item's text; by default an item is
    its own text.  Only ``[``, ``,`` and ``]`` are written here.
    """
    sep = "["
    for item in items:
        pieces.append(sep)
        write(pieces, item)
        sep = ","
    pieces.append("]" if sep == "," else "[]")
    return pieces


def _load(text: str, kind: str) -> dict:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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

def _hex(s: str) -> bytes:
    """Decode a byte string; only canonical lowercase hex is accepted."""
    b = bytes.fromhex(s)
    if b.hex() != s:
        raise ValueError("byte string is not lowercase hex: %r" % (s,))
    return b


def output_to_json(out: Output) -> dict:
    return {
        "address": out.address.hex(),
        "value": {token.hex(): qty for token, qty in out.value},
        "datum": out.datum.hex(),
    }


def output_from_json(obj: dict) -> Output:
    try:
        value = obj["value"]
        if not isinstance(value, dict):
            raise TypeError("token value must be an object: %r" % (value,))
        return Output(_hex(obj["address"]), {_hex(t): q for t, q in value.items()},
                      _hex(obj["datum"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output: %s" % exc) from exc


def ref_to_json(ref: OutputRef) -> dict:
    return {"tx_hash": ref.tx_hash.hex(), "index": ref.index}


def ref_from_json(obj: dict) -> OutputRef:
    try:
        return OutputRef(_hex(obj["tx_hash"]), obj["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad output ref: %s" % exc) from exc


def entry_to_json(ref: OutputRef, out: Output) -> dict:
    """A state entry or a transaction input: one ``(ref, output)`` pair."""
    return {"output_ref": ref_to_json(ref), "output": output_to_json(out)}


def tx_to_json(tx: Tx) -> dict:
    return {
        "inputs": [entry_to_json(*pair) for pair in sorted(tx.inputs, key=_ref_of)],
        "outputs": [output_to_json(o) for o in tx.outputs],
        "validity_interval": list(tx.validity_interval),
        "additional_data": tx.additional_data.hex(),
    }


class _Writer:
    """Spells ledger values as canonical JSON text, each distinct entry,
    transaction and state once: the mirror of ``_Reader``.

    ``entries`` maps a ref to the ``Output`` last spelled for it and the
    text of its ``{"output", "output_ref"}`` object; an entry whose
    ``Output`` is that very object reuses the text.  ``txs`` maps a
    transaction to its text, which depends only on its value.  ``states``
    maps the id of a state spelled in full to that state, which it keeps
    alive, and its entry texts in ref order: a state object that recurs,
    such as the first state of the traces of one scenario or a state that
    vertices of Λ share, is looked up once.  Every such text is spelled by
    ``_canonical``; ``utxo`` and ``step`` append them to a list that the
    caller joins once.

    A later state of a trace is mostly its parent: ``derived`` spells it
    from the parent's texts and the step's tx, and only the entries the tx
    creates are looked up.  ``dump_trace`` keeps in the writer it is given
    only what the traces of one scenario share, the genesis txs and the
    first state; the rest of a trace is spelled by a writer of its own,
    which goes once the file is written.
    """

    def __init__(self):
        self.entries = {}
        self.txs = {}
        self.states = {}

    def entry(self, ref: OutputRef, out: Output) -> str:
        seen = self.entries.get(ref)
        if seen is None or seen[0] is not out:
            seen = self.entries[ref] = (out, _canonical(entry_to_json(ref, out)))
        return seen[1]

    def tx(self, tx: Tx) -> str:
        text = self.txs.get(tx)
        if text is None:
            text = self.txs[tx] = _canonical(tx_to_json(tx))
        return text

    def texts(self, utxo: UtxoSet) -> List[str]:
        """The entry texts of ``utxo`` in ref order, spelled in full once
        per state object."""
        seen = self.states.get(id(utxo))
        if seen is None:
            seen = self.states[id(utxo)] = (
                utxo, [self.entry(ref, out) for ref, out in utxo.items()])
        return seen[1]

    def derived(self, parent: UtxoSet, texts: List[str], tx: Tx,
                utxo: UtxoSet) -> Optional[List[str]]:
        """The entry texts of ``utxo`` from ``texts``, those of ``parent``:
        the texts of the refs ``tx`` spends are deleted and those of
        ``mk_outs(tx)`` inserted at their places in ref order.

        They are returned only if the entries so derived are ``utxo``'s,
        compared as one tuple; otherwise ``None``, and ``utxo`` must be
        spelled in full.
        """
        items, texts = list(parent.items()), texts.copy()
        for ref, _ in tx.inputs:
            k = bisect_left(items, ref, key=_ref_of)
            if k < len(items) and items[k][0] == ref:
                del items[k], texts[k]
        for ref, out in mk_outs(tx).entries.items():
            k = bisect_left(items, ref, key=_ref_of)
            items.insert(k, (ref, out))
            texts.insert(k, self.entry(ref, out))
        return texts if tuple(items) == utxo.items() else None

    def utxo(self, pieces: List[str], utxo: UtxoSet) -> List[str]:
        """``pieces`` with the entries of ``utxo`` appended, in ref order."""
        return _entry_list(pieces, self.texts(utxo))

    def step(self, pieces: List[str], step: Tuple[Slot, Tx]) -> List[str]:
        """``pieces`` with the pair ``[slot, tx]`` appended."""
        slot, tx = step
        pieces += ("[", _canonical(slot), ",", self.tx(tx), "]")
        return pieces


def _entry_list(pieces: List[str], texts: List[str]) -> List[str]:
    """``pieces`` with the JSON array of the entry ``texts`` appended.

    One slice assignment lays the ``,`` pieces between the entry texts;
    joining the state's text on its own would copy it once more.
    """
    n = len(texts)
    spelled = ["["] + [","] * (2 * n)
    spelled[1::2] = texts
    spelled[-1] = "]" if n else "[]"
    pieces += spelled
    return pieces


class _Reader:
    """Reads the values of one or more files, building each distinct entry once.

    A file repeats most entries: each state is written in full, and tx
    inputs and genesis outputs repeat state entries; the files of one
    scenario share their genesis and first state.  Outputs are memoized by
    their parsed values, keyed type-strictly, since ``True == 1 == 1.0`` in
    Python: a quantity is keyed with its type, so a bool or float spelling
    never reuses the value built from an int.  The states of a canonically
    spelled file are read by text instead (``state_text``): ``entries``
    maps the canonical text of an entry to its ``(OutputRef, Output)``.
    Only values that were built are stored; a miss, or an output that
    cannot be keyed, runs the plain reader with all its checks.  The plain
    reader builds a ref per entry.  ``geneses`` maps the text of a
    canonical file's genesis array to the txs built from it, so the files
    of one scenario build their shared genesis once.
    """

    def __init__(self):
        self.outputs = {}
        self.entries = {}
        self.geneses = {}

    def output(self, obj) -> Output:
        try:
            value = obj["value"]
            key = (obj["address"], obj["datum"], tuple(value.items()),
                   tuple(map(type, value.values())))
            out = self.outputs.get(key)
        except (AttributeError, KeyError, TypeError):
            return output_from_json(obj)
        if out is None:
            out = self.outputs[key] = output_from_json(obj)
        return out

    def entry(self, obj) -> Tuple[OutputRef, Output]:
        """A state entry or a transaction input: one ``(ref, output)`` pair."""
        return ref_from_json(obj["output_ref"]), self.output(obj["output"])

    def tx(self, obj) -> Tx:
        try:
            return Tx(
                inputs=frozenset(map(self.entry,
                                     _of_type(obj["inputs"], list, "inputs"))),
                outputs=tuple(
                    map(self.output, _of_type(obj["outputs"], list, "outputs"))
                ),
                validity_interval=obj["validity_interval"],
                additional_data=_hex(obj["additional_data"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError("bad transaction: %s" % exc) from exc

    def utxo(self, obj) -> UtxoSet:
        """The state of an entry list."""
        try:
            return _state(list(map(self.entry, _of_type(obj, list, "state"))))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError("bad UTxO set: %s" % exc) from exc

    def state_text(self, text: str) -> UtxoSet:
        """The state of a canonical entry list's text, without its brackets.

        The text is split on the canonical entry delimiter, and each piece
        is looked up in ``entries``; a miss is built by ``entry_text``.
        Raises on any other spelling.
        """
        if not text:
            return UtxoSet({})
        pieces = text.split(_ENTRY_DELIMITER)
        if not (pieces[0].startswith(_ENTRY_HEAD) and pieces[-1].endswith("}")):
            raise ValueError("not a canonical entry list")
        pieces[0] = pieces[0][len(_ENTRY_HEAD):]
        pieces[-1] = pieces[-1][:-1]
        get = self.entries.get
        return _state([get(piece) or self.entry_text(piece) for piece in pieces])

    def entry_text(self, piece: str) -> Tuple[OutputRef, Output]:
        """The entry spelled ``{"output":`` + ``piece`` + ``}``, parsed alone.

        The scan must end exactly at the end of the entry, so the piece
        cannot be a fragment of a longer value.  A canonical entry has
        exactly the keys read here, so its nesting is fixed and it parses
        alone as it does inside the file.
        """
        text = _ENTRY_HEAD + piece + "}"
        obj, end = _scan(text, 0)
        if end != len(text):
            raise ValueError("not one entry: %r" % (text,))
        pair = self.entry(obj)
        if not (len(obj) == len(obj["output_ref"]) == 2 and len(obj["output"]) == 3):
            raise ValueError("not a canonical entry: %r" % (text,))
        self.entries[piece] = pair
        return pair

    def steps(self, obj, what: str) -> List[Tuple[Slot, Tx]]:
        """The ``[slot, tx]`` pairs of the step list ``what``."""
        return [(_in_domain(slot, "slot"), self.tx(tx))
                for slot, tx in _of_type(obj, list, what)]

    def genesis(self, obj: dict, text: Optional[str] = None) -> List[Tx]:
        """The genesis txs of a file's object ``obj``.

        ``text``, if given, is the text of the genesis array, cut out of a
        canonical file: txs built from it are kept under it, and a later
        file with the same text gets them without reading ``obj``.
        """
        txs = self.geneses.get(text)
        if txs is None:
            txs = tuple(map(self.tx, _of_type(obj.get("genesis", []), list, "genesis")))
            if text is not None:
                self.geneses[text] = txs
        return list(txs)


def _state(pairs: List[Tuple[OutputRef, Output]]) -> UtxoSet:
    """The state of ``(ref, output)`` pairs; a ref listed twice is refused
    once every entry has parsed, so a malformed later entry reports first."""
    entries = dict(pairs)
    if len(entries) != len(pairs):
        raise ValueError("duplicate output ref in UTxO set")
    return UtxoSet(entries)


# --- trace files ------------------------------------------------------------

def dump_trace(
    prefix: TracePrefix,
    genesis_txs: Sequence[Tx] = (),
    initial_slots: Sequence[Slot] = (),
    writer: Optional[_Writer] = None,
) -> str:
    """Trace file: state list, lift annotations, and generation context.

    A writer of several traces of one scenario can pass each the same
    ``writer``, so that their shared genesis and first state are spelled
    once; the writer keeps nothing else of the trace.  Each later state is
    spelled from its parent's texts and its step where they give its
    entries (``_Writer.derived``), and in full where they do not.
    """
    w = writer if writer is not None else _Writer()
    own = _Writer()
    states, steps = prefix.states, prefix.annotations

    def texts():
        spelled = w.texts(states[0])
        yield spelled
        for k in range(1, len(states)):
            derived = None
            if steps is not None:
                derived = own.derived(states[k - 1], spelled, steps[k - 1][1], states[k])
            spelled = own.texts(states[k]) if derived is None else derived
            yield spelled

    lifts = [_canonical(None)]
    if steps is not None:
        lifts = _array([], steps, own.step)
    return _dump(
        "trace",
        states=_array([], texts(), _entry_list),
        lifts=lifts,
        truncated=[_canonical(prefix.truncated)],
        genesis=_array([], map(w.tx, genesis_txs)),
        initial_slots=[_canonical(sorted(initial_slots))],
    )


def dump_manifest(manifest: dict) -> str:
    """The text of ``trace gen``'s ``manifest.json``: spelled like a format
    file, but with no kind or version."""
    return _canonical(manifest) + "\n"


def load_traces(texts: Iterable[str]) -> List[Tuple[TracePrefix, List[Tx], List[Slot]]]:
    """Read trace files in order with one reader: an entry they share is one object."""
    read = _Reader()
    return [_read_trace(read, text) for text in texts]


def load_trace(text: str) -> Tuple[TracePrefix, List[Tx], List[Slot]]:
    return load_traces([text])[0]


def _read_trace(read: _Reader, text: str) -> Tuple[TracePrefix, List[Tx], List[Slot]]:
    """One file; its JSON tree is freed before the next file is parsed.

    The states of a canonically spelled file are read by their text
    (``_canonical_states``), and the rest of it by ``json.loads``.  Any
    other spelling is read whole by the plain reader, so the values and
    the errors are the same either way.
    """
    canonical = _canonical_states(read, text)
    obj, states, genesis_text = canonical or (_load(text, "trace"), None, None)
    try:
        if states is None:
            states = tuple(map(read.utxo, _of_type(obj["states"], list, "states")))
        lifts = obj["lifts"]
        annotations = None if lifts is None else read.steps(lifts, "lifts")
        truncated = _of_type(obj.get("truncated", False), bool, "truncated")
        prefix = TracePrefix(states, annotations, truncated)
        genesis = read.genesis(obj, genesis_text)
        slots = [_in_domain(q, "slot")
                 for q in _of_type(obj.get("initial_slots", []), list, "initial_slots")]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad trace file: %s" % exc) from exc
    return prefix, genesis, slots


def _canonical_states(read: _Reader, text: str
                      ) -> Optional[Tuple[dict, tuple, Optional[str]]]:
    """The rest of a canonically spelled trace file, parsed, its states and
    the text of its genesis array (``None`` if not cut); ``None`` for any
    other spelling.

    The top-level ``"states"`` member is cut out of the text, and the rest
    is parsed by ``json.loads``.  The rest ends in the fixed tail
    ``,"truncated":…,"version":1}\\n``, which closes exactly one object, so
    the rest parses only if the cut was made in the top-level object.
    Each state's entries are then read by ``_Reader.state_text``.  The
    leading ``"genesis"`` member is cut out too, up to the first
    ``,"initial_slots":``: a JSON value ends where its text says it ends,
    so when the cut text scans as exactly one value, it is the member's
    whole value.  A text ``_Reader.genesis`` has built from is not scanned
    again.  Never raises: an error is the plain reader's to report, in its
    order.
    """
    try:
        start = text.find(_STATES_HEAD)
        if start < 0 or not text.endswith(_TRACE_TAILS):
            return None
        end = text.rindex(_TRUNCATED_HEAD)
        head, genesis_text = text[:start], None
        if head.startswith(_GENESIS_HEAD) and (cut := head.find(_SLOTS_HEAD)) >= 0:
            genesis_text = head[len(_GENESIS_HEAD):cut]
            head = "{" + head[cut + 1:]
        obj = json.loads(head + text[end:])
        if "states" in obj or "genesis" in obj or obj.get("kind") != "trace":
            return None
        if genesis_text is not None and genesis_text not in read.geneses:
            obj["genesis"], stop = _scan(genesis_text, 0)
            if stop != len(genesis_text):
                return None
        # the states are "[" + body + "]" joined by ","; each body is cut
        # out of the text alone, so no copy of the whole member is made
        first, last = start + len(_STATES_HEAD), end - 1
        if text[last] != "]":
            return None
        if first == last:
            return obj, (), genesis_text
        if not (text[first] == "[" and text[last - 1] == "]"):
            return None
        states, first = [], first + 1
        while (cut := text.find("],[", first, last - 1)) >= 0:
            states.append(read.state_text(text[first:cut]))
            first = cut + 3
        states.append(read.state_text(text[first:last - 1]))
        return obj, tuple(states), genesis_text
    except Exception:  # whatever fails here, the plain reader reports
        return None


# --- run files --------------------------------------------------------------

def dump_run(
    initial: UtxoSet,
    steps: Sequence[Tuple[Slot, Tx]],
    genesis_txs: Sequence[Tx] = (),
) -> str:
    """Run file: an initial state and the (slot, tx) list to replay."""
    w = _Writer()
    return _dump(
        "run",
        initial=w.utxo([], initial),
        steps=_array([], steps, w.step),
        genesis=_array([], map(w.tx, genesis_txs)),
    )


def load_run(text: str) -> Tuple[UtxoSet, List[Tuple[Slot, Tx]], List[Tx]]:
    obj = _load(text, "run")
    read = _Reader()
    try:
        initial = read.utxo(obj["initial"])
        steps = read.steps(obj["steps"], "steps")
        genesis = read.genesis(obj)
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
        "contract-trace",
        states=[_canonical(list(prefix.states))],
        lifts=[_canonical(lifts)],
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
        "graph",
        vertices=[_canonical(sorted(ids.values()))],
        edges=[_canonical(sorted([ids[a], ids[b]] for a, b in graph.edges))],
        initial=[_canonical(sorted(ids[v] for v in graph.initial))],
    )


def dump_ledger_graphs(lam: SimpleGraph, lam_prime: SimpleGraph) -> Tuple[str, str]:
    """The graph files of a ledger graph Λ and of its state projection Λ′.

    A vertex's id is the first 16 hex digits of the digest of its canonical
    JSON: ``[q, utxo, tx]`` for a vertex of Λ, the entry list for a state
    of Λ′.  The vertices share their entries, so both files spell each once.
    """
    w = _Writer()

    def label(pieces: List[str]) -> str:
        return digest("".join(pieces))[:16]

    def vertex_label(v) -> str:
        q, u, t = v
        return label(w.utxo(["[", _canonical(q), ","], u) + [",", w.tx(t), "]"])

    return (dump_graph(lam, vertex_label),
            dump_graph(lam_prime, lambda u: label(w.utxo([], u))))


def digest(text: str) -> str:
    """Reproducibility digest of a serialized payload."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
