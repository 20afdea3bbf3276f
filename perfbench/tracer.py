"""Span tracing of the ledgerlab layers, installed from outside the package.

The tracer wraps every public function of each ledgerlab module and
rebinds the wrapper under every name that refers to the original in any
loaded ``ledgerlab`` module: modules import with ``from .core import
check_tx``, so patching ``core`` alone would miss most calls.  A few
methods and closures that carry the interesting work are wrapped too
(``UtxoSet.__post_init__``, ``TxPoset.closure``, the proposer returned by
``gen.make_proposer`` and the NFT contract's policy hook).

Spans (name, parent, start, end) are appended to flat arrays in memory and
written once, when the run ends.  Counters are taken at the same
boundaries from arguments and return values.  Nothing under ``src/``
changes.
"""
from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

#: the package's modules, which are the benchmark's layers
LAYERS = ("cli", "serialize", "core", "gen", "traces", "properties",
          "contracts", "graphs")

#: span names whose inclusive time is reported as ``<metric>.s``
TIMED_SPANS = {
    "serialize.load": ("serialize.load_trace", "serialize.load_run"),
    "serialize.dump": ("serialize.dump_trace", "serialize.dump_run",
                       "serialize.dump_contract_trace", "serialize.dump_graph"),
    "core.check_tx": ("core.check_tx",),
    "core.apply_tx": ("core.apply_tx",),
    "core.utxo_set": ("core.UtxoSet.__post_init__",),
    "core.hash_tx": ("core.hash_tx",),
    "gen.make_scenario": ("gen.make_scenario",),
    "gen.propose": ("gen.propose",),
    "traces.generate": ("traces.generate_valid_traces",),
    "traces.validate_trace_prefix": ("traces.validate_trace_prefix",),
    "traces.monitor_trace": ("traces.monitor_trace",),
    "traces.ultra_distance": ("traces.ultra_distance",),
    "properties.replay_sequence": ("properties.replay_sequence",),
    "properties.check_replay_protection": ("properties.check_replay_protection",),
    "properties.check_trivial_update_protection":
        ("properties.check_trivial_update_protection",),
    "properties.check_disjointness": ("properties.check_disjointness",),
    "properties.check_well_founded": ("properties.check_well_founded",),
    "properties.build_tx_poset": ("properties.build_tx_poset",),
    "properties.closure": ("properties.TxPoset.closure",),
    "properties.enumerate": ("properties.enumerate_valid_permutations",),
    "contracts.check_contract_on_traces": ("contracts.check_contract_on_traces",),
    "contracts.induce_trace_map": ("contracts.induce_trace_map",),
    "contracts.policy": ("contracts.policy",),
    "graphs.build_ledger_graph": ("graphs.build_ledger_graph",),
    "graphs.project_ledger_graph": ("graphs.project_ledger_graph",),
}

#: metrics that also report the number of calls as ``<metric>.calls``
CALL_COUNTS = ("core.check_tx", "core.apply_tx", "core.hash_tx", "gen.propose",
               "traces.ultra_distance", "properties.replay_sequence",
               "properties.closure", "contracts.induce_trace_map",
               "contracts.policy")

#: cli command kinds, reported as ``cli.<kind>.ms`` (median per command)
CLI_KINDS = ("trace_gen", "trace_validate", "trace_monitor", "trace_dist",
             "props_check", "props_canon", "contract_check", "graph_dump")


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.nested = array.array("b")
        self._stack = [-1]
        self._active = Counter()
        self.counters = Counter()
        self.tx_ids = set()
        self._restore = []

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` recording one span per call under ``name``.

        ``on_return(args, result)`` runs after the span closes; when it
        returns something other than None, the caller gets that instead.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, active = self._stack, self._active
        names, parents = self.name, self.parent
        starts, ends, nested = self.start, self.end, self.nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(active[nid] > 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if on_return is not None:
                replaced = on_return(args, result)
                if replaced is not None:
                    return replaced
            return result

        return traced

    # --- installation ------------------------------------------------------

    def install(self):
        """Wrap the ledgerlab layers in place; ``uninstall`` undoes it."""
        modules = {layer: importlib.import_module("ledgerlab." + layer)
                   for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = "%s.%s" % (layer, attr)
                    wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ledgerlab"
                                   or mod_name.startswith("ledgerlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        contracts = modules["contracts"].CONTRACTS
        for key, factory in list(contracts.items()):
            if id(factory) in wrapped:
                self._set_item(contracts, key, wrapped[id(factory)])
        for cls, method, name in (
            (modules["core"].UtxoSet, "__post_init__", "core.UtxoSet.__post_init__"),
            (modules["properties"].TxPoset, "closure", "properties.TxPoset.closure"),
        ):
            self._set(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _set(self, owner, attr, value):
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, old))

    def _hooks(self):
        counters = self.counters

        def count_text(key):
            def hook(args, result):
                counters[key] += len(args[0])
            return hook

        def count_result_text(key):
            def hook(args, result):
                counters[key] += len(result)
            return hook

        def hash_tx(args, result):
            self.tx_ids.add(result)

        def generate(args, result):
            counters["traces.generate.accepted"] += sum(
                len(t.annotations or ()) for t in result)

        def enumerate_(args, result):
            counters["properties.enumerate.sequences"] += len(result.sequences)
            counters["properties.enumerate.capped"] += bool(result.capped)

        def contract_on_traces(args, result):
            counters["contracts.traces"] += len(args[1])

        def ledger_graph(args, result):
            counters["graphs.vertices"] += len(result.vertices)
            counters["graphs.edges"] += len(result.edges)

        def make_proposer(args, result):
            return self.wrap("gen.propose", result)

        def nft_contract(args, result):
            return dataclasses.replace(
                result,
                additional_checks=self.wrap("contracts.policy",
                                            result.additional_checks))

        hooks = {
            "serialize.load_trace": count_text("serialize.load.chars"),
            "serialize.load_run": count_text("serialize.load.chars"),
            "core.hash_tx": hash_tx,
            "traces.generate_valid_traces": generate,
            "properties.enumerate_valid_permutations": enumerate_,
            "contracts.check_contract_on_traces": contract_on_traces,
            "graphs.build_ledger_graph": ledger_graph,
            "gen.make_proposer": make_proposer,
            "contracts.nft_contract": nft_contract,
        }
        for name in ("serialize.dump_trace", "serialize.dump_run",
                     "serialize.dump_contract_trace", "serialize.dump_graph"):
            hooks[name] = count_result_text("serialize.dump.chars")
        return hooks

    # --- output ------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def write(self, path: Path):
        """Write the spans: one JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [["name", self.name.typecode], ["parent", self.parent.typecode],
                        ["start", self.start.typecode], ["end", self.end.typecode]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("ascii"))
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def load_spans(path: Path):
    """Read a spans file written by ``Tracer.write``: (names, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col_name, typecode in header["columns"]:
            col = array.array(typecode)
            col.fromfile(fh, header["count"])
            columns[col_name] = col
    return header["names"], columns


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(tracer: Tracer):
    """Each span's duration minus the time its direct children cover."""
    n = len(tracer)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    own = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def per_layer_metrics(tracer: Tracer, cli_ms: dict, canon_valid: int) -> dict:
    """Per-layer metrics of the traced iteration, as {name: (value, unit)}.

    ``cli_ms`` maps a command kind to its latencies in ms; ``canon_valid``
    counts the replay-valid sequences that ``props canon --enumerate``
    printed.
    """
    names, span_name, nested = tracer.names, tracer.name, tracer.nested
    start, end = tracer.start, tracer.end
    calls = Counter()
    inclusive = Counter()
    layer_self = Counter()
    for i, own in enumerate(self_times(tracer)):
        name = names[span_name[i]]
        calls[name] += 1
        if not nested[i]:
            inclusive[name] += end[i] - start[i]
        layer_self[layer_of(name)] += own
    totals = Counter(tracer.counters)
    for metric, spans in TIMED_SPANS.items():
        totals[metric + ".s"] = sum(inclusive[s] for s in spans)
        totals[metric + ".calls"] = sum(calls[s] for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for kind in CLI_KINDS:
        samples = cli_ms.get(kind)
        out["cli.%s.ms" % kind] = (statistics.median(samples) if samples else 0.0, "ms")
    for layer in LAYERS:
        out["%s.self_s" % layer] = (layer_self[layer], "s")
    for metric in TIMED_SPANS:
        out[metric + ".s"] = (totals[metric + ".s"], "s")
    for metric in CALL_COUNTS:
        out[metric + ".calls"] = (totals[metric + ".calls"], "count")
    out["core.utxo_set.builds"] = (totals["core.utxo_set.calls"], "count")
    out["core.hash_tx.per_tx"] = (
        ratio(totals["core.hash_tx.calls"], len(tracer.tx_ids)), "ratio")
    load_mb = totals["serialize.load.chars"] / 1e6
    out["serialize.load.mb"] = (load_mb, "MB")
    out["serialize.load.mb_per_s"] = (ratio(load_mb, totals["serialize.load.s"]), "MB/s")
    out["serialize.dump.mb"] = (totals["serialize.dump.chars"] / 1e6, "MB")
    out["traces.generate.accept_ratio"] = (
        ratio(totals["traces.generate.accepted"], totals["gen.propose.calls"]), "ratio")
    out["properties.enumerate.sequences"] = (
        totals["properties.enumerate.sequences"], "count")
    out["properties.enumerate.capped"] = (
        totals["properties.enumerate.capped"], "count")
    out["properties.canon.valid_ratio"] = (
        ratio(canon_valid, totals["properties.enumerate.sequences"]), "ratio")
    out["contracts.induce.per_trace"] = (
        ratio(totals["contracts.induce_trace_map.calls"], totals["contracts.traces"]),
        "ratio")
    out["graphs.vertices"] = (totals["graphs.vertices"], "count")
    out["graphs.edges"] = (totals["graphs.edges"], "count")
    return out
