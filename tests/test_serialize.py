import dataclasses
import hashlib
import json

import pytest

from conftest import gen_traces, out, tx_of
import serialize_oracle as oracle
from ledgerlab import serialize
from ledgerlab.core import OutputRef, mk_outs
from ledgerlab.graphs import SimpleGraph, build_ledger_graph, project_ledger_graph


@pytest.fixture
def sample_tx():
    ref = OutputRef(bytes(32), 3)
    return tx_of(
        [(ref, out("claimed"))],
        [out("p"), out("q", token=b"T", token_qty=1)],
        interval=(2, 9),
        extra=b"\x00\xff",
    )


class TestValueRoundTrips:
    def test_output(self):
        o = out("p", token=b"T", token_qty=2)
        assert serialize.output_from_json(serialize.output_to_json(o)) == o

    def test_output_ref(self):
        ref = OutputRef(b"\x01" * 32, 7)
        assert serialize.ref_from_json(serialize.ref_to_json(ref)) == ref

    def test_tx(self, sample_tx):
        assert serialize._Reader().tx(serialize.tx_to_json(sample_tx)) == sample_tx

    def test_utxo(self, sample_tx):
        u = mk_outs(sample_tx)
        text = "".join(serialize._Writer().utxo([], u))
        assert serialize._Reader().utxo(json.loads(text)) == u

    def test_bad_output_rejected(self):
        with pytest.raises(serialize.FormatError):
            serialize.output_from_json({"address": "zz"})

    @pytest.mark.parametrize("read, obj", [
        (serialize.ref_from_json, {"tx_hash": "00", "index": True}),
        (serialize.output_from_json,
         {"address": "", "value": {"54": 2 ** 64}, "datum": ""}),
        (serialize.output_from_json,
         {"address": "", "value": {"54": 1.0}, "datum": ""}),
    ])
    def test_non_natural_numbers_rejected(self, read, obj):
        with pytest.raises(serialize.FormatError):
            read(obj)


class TestHex:
    @pytest.mark.parametrize("text, raw", [
        ("", b""),
        ("00ff", b"\x00\xff"),
        ("4e4654", b"NFT"),
    ])
    def test_lowercase_hex_decodes(self, text, raw):
        assert serialize._hex(text) == raw

    @pytest.mark.parametrize("text", [
        "4E4654", "4e465A", "de ad", " dead", "dead\n", "abc", "zz",
    ])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ValueError):
            serialize._hex(text)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            serialize._hex(12)

    @pytest.mark.parametrize("obj", [
        {"address": "AB", "value": {}, "datum": ""},
        {"address": "", "value": {"4E4654": 1}, "datum": ""},
        {"address": "", "value": {}, "datum": "de ad"},
    ])
    def test_output_fields_rejected(self, obj):
        with pytest.raises(serialize.FormatError):
            serialize.output_from_json(obj)

    def test_ref_and_tx_fields_rejected(self, sample_tx):
        with pytest.raises(serialize.FormatError):
            serialize.ref_from_json({"tx_hash": "AB", "index": 0})
        obj = serialize.tx_to_json(sample_tx)
        obj["additional_data"] = obj["additional_data"].upper()
        with pytest.raises(serialize.FormatError):
            serialize._Reader().tx(obj)


class TestTraceFiles:
    def test_round_trip(self, scenario):
        prefix = gen_traces(scenario, depth=4, count=1, seed=7)[0]
        text = serialize.dump_trace(
            prefix, scenario.genesis_txs, [scenario.initial_slot]
        )
        loaded, genesis, slots = serialize.load_trace(text)
        assert loaded.states == prefix.states
        assert loaded.annotations == prefix.annotations
        assert tuple(genesis) == scenario.genesis_txs
        assert slots == [scenario.initial_slot]

    def test_canonical_text(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=7)[0]
        text = serialize.dump_trace(prefix)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["version"] == serialize.FORMAT_VERSION
        assert payload["kind"] == "trace"
        assert text == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_wrong_version_rejected(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=7)[0]
        payload = json.loads(serialize.dump_trace(prefix))
        payload["version"] = 99
        with pytest.raises(serialize.FormatError):
            serialize.load_trace(json.dumps(payload))

    def test_wrong_kind_rejected(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=7)[0]
        text = serialize.dump_trace(prefix)
        with pytest.raises(serialize.FormatError):
            serialize.load_run(text)

    def test_truncated_text_rejected(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=7)[0]
        text = serialize.dump_trace(prefix)
        with pytest.raises(serialize.FormatError):
            serialize.load_trace(text[: len(text) // 2])

    def test_non_object_rejected(self):
        with pytest.raises(serialize.FormatError):
            serialize.load_trace("[1,2]")


class TestWriterReuse:
    """One writer across traces and their txs changes no byte."""

    def test_shared_writer_across_traces_keeps_the_bytes(self, scenario):
        traces = gen_traces(scenario, depth=5, count=4, seed=3)
        context = (scenario.genesis_txs, [scenario.initial_slot])
        writer = serialize._Writer()
        for prefix in traces:
            shared = serialize.dump_trace(prefix, *context, writer)
            assert shared == serialize.dump_trace(prefix, *context)
            expected = {
                "kind": "trace", "version": serialize.FORMAT_VERSION,
                "states": [oracle.utxo_to_json(u) for u in prefix.states],
                "lifts": [[q, oracle.tx_to_json(t)] for q, t in prefix.annotations],
                "truncated": prefix.truncated,
                "genesis": [oracle.tx_to_json(t) for t in scenario.genesis_txs],
                "initial_slots": [scenario.initial_slot],
            }
            assert json.loads(shared) == expected

    def test_shared_writer_keeps_only_what_traces_share(self, scenario):
        """Across traces the writer keeps the genesis txs and the first
        state; each trace's lift txs, created entries and derived states go
        with its file."""
        traces = gen_traces(scenario, depth=5, count=4, seed=3)
        u0 = scenario.initial_utxo
        writer = serialize._Writer()
        for prefix in traces:
            assert prefix.states[0] is u0
            serialize.dump_trace(prefix, scenario.genesis_txs, [0], writer)
            assert writer.txs.keys() == set(scenario.genesis_txs)
            assert writer.entries.keys() == u0.keys()
            assert list(writer.states) == [id(u0)]

    def test_run_file_keeps_the_bytes(self, scenario):
        prefix = gen_traces(scenario, depth=5, count=1, seed=8)[0]
        text = serialize.dump_run(
            scenario.initial_utxo, prefix.annotations, scenario.genesis_txs
        )
        assert json.loads(text) == {
            "kind": "run", "version": serialize.FORMAT_VERSION,
            "initial": oracle.utxo_to_json(scenario.initial_utxo),
            "steps": [[q, oracle.tx_to_json(t)] for q, t in prefix.annotations],
            "genesis": [oracle.tx_to_json(t) for t in scenario.genesis_txs],
        }

    def test_each_tx_is_spelled_once(self, scenario):
        writer = serialize._Writer()
        writer.utxo([], scenario.initial_utxo)
        for tx in scenario.genesis_txs:
            spelled = writer.tx(tx)
            assert json.loads(spelled) == oracle.tx_to_json(tx)
            twin = dataclasses.replace(tx)
            assert twin is not tx and writer.tx(twin) is spelled
        assert len(writer.txs) == len(set(scenario.genesis_txs))

    def test_another_output_under_a_written_ref_is_spelled_afresh(self, sample_tx):
        [(ref, claimed)] = sample_tx.inputs
        forged = out("forged")
        writer = serialize._Writer()
        writer.entries[ref] = (forged, json.dumps(oracle.entry_to_json(ref, forged)))
        spelled = writer.entry(ref, claimed)
        assert json.loads(spelled) == oracle.entry_to_json(ref, claimed)
        memo_out, memo_text = writer.entries[ref]
        assert memo_out is claimed and memo_text is spelled


class TestRunFiles:
    def test_round_trip(self, scenario):
        prefix = gen_traces(scenario, depth=4, count=1, seed=8)[0]
        text = serialize.dump_run(
            scenario.initial_utxo, prefix.annotations, scenario.genesis_txs
        )
        initial, steps, genesis = serialize.load_run(text)
        assert initial == scenario.initial_utxo
        assert tuple(steps) == prefix.annotations
        assert tuple(genesis) == scenario.genesis_txs


class TestRepeatedRef:
    """A state that lists one ref twice is a parse error."""

    DUPLICATE = "^bad UTxO set: duplicate output ref in UTxO set$"

    @pytest.fixture
    def files(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=7)[0]
        trace = json.loads(serialize.dump_trace(prefix))
        run = json.loads(serialize.dump_run(
            scenario.initial_utxo, prefix.annotations, scenario.genesis_txs
        ))
        return trace, run

    @staticmethod
    def repeat_ref(entries, same_output):
        source = entries[0] if same_output else entries[-1]
        entries.append({"output_ref": dict(entries[0]["output_ref"]),
                        "output": dict(source["output"])})

    @pytest.mark.parametrize("same_output", [True, False])
    def test_trace_state(self, files, same_output):
        trace, _ = files
        self.repeat_ref(trace["states"][-1], same_output)
        with pytest.raises(serialize.FormatError, match=self.DUPLICATE):
            serialize.load_trace(json.dumps(trace))

    @pytest.mark.parametrize("same_output", [True, False])
    def test_run_initial(self, files, same_output):
        _, run = files
        self.repeat_ref(run["initial"], same_output)
        with pytest.raises(serialize.FormatError, match=self.DUPLICATE):
            serialize.load_run(json.dumps(run))

    def test_later_malformed_entry_reports_first(self, files):
        trace, run = files
        for entries in (trace["states"][0], run["initial"]):
            self.repeat_ref(entries, True)
            entries.append({"output_ref": {"tx_hash": "00", "index": 0},
                            "output": {"address": "zz"}})
        with pytest.raises(serialize.FormatError, match="^bad output: "):
            serialize.load_trace(json.dumps(trace))
        with pytest.raises(serialize.FormatError, match="^bad output: "):
            serialize.load_run(json.dumps(run))


class TestContractTraceFiles:
    def test_dump(self):
        from ledgerlab.traces import TracePrefix

        prefix = TracePrefix((0, 1, 0), ((None, "mint"), (None, "burn")))
        payload = json.loads(serialize.dump_contract_trace(prefix))
        assert payload["kind"] == "contract-trace"
        assert payload["states"] == [0, 1, 0]
        assert payload["lifts"] == [[None, "mint"], [None, "burn"]]


class TestGraphFiles:
    def test_dump_with_labels(self):
        g = SimpleGraph(
            frozenset(["a", "b"]), frozenset([("a", "b")]), frozenset(["a"])
        )
        payload = json.loads(serialize.dump_graph(g, lambda v: v.upper()))
        assert payload["vertices"] == ["A", "B"]
        assert payload["edges"] == [["A", "B"]]
        assert payload["initial"] == ["A"]

    def test_non_injective_labels_rejected(self):
        g = SimpleGraph(frozenset(["a", "b"]), frozenset())
        with pytest.raises(ValueError):
            serialize.dump_graph(g, lambda v: "same")


class TestLedgerGraphFiles:
    def test_ids_are_digests_of_the_plain_spelling(self, scenario):
        prefix = gen_traces(scenario, depth=3, count=1, seed=4)[0]
        txs = [t for _, t in prefix.annotations]
        slots = [scenario.initial_slot] + [q for q, _ in prefix.annotations]
        lam = build_ledger_graph([scenario.initial_utxo], slots[:1], txs, slots)
        lam_prime, _ = project_ledger_graph(lam)

        def plain_id(payload):
            raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

        texts = serialize.dump_ledger_graphs(lam, lam_prime)
        for graph, text, spell in (
            (lam, texts[0],
             lambda v: [v[0], oracle.utxo_to_json(v[1]), oracle.tx_to_json(v[2])]),
            (lam_prime, texts[1], oracle.utxo_to_json),
        ):
            ids = {v: plain_id(spell(v)) for v in graph.vertices}
            assert len(ids) > 1 and json.loads(text) == {
                "kind": "graph", "version": serialize.FORMAT_VERSION,
                "vertices": sorted(ids.values()),
                "edges": sorted([ids[a], ids[b]] for a, b in graph.edges),
                "initial": sorted(ids[v] for v in graph.initial),
            }


class TestDigest:
    def test_stable_and_sensitive(self):
        assert serialize.digest("x") == serialize.digest("x")
        assert serialize.digest("x") != serialize.digest("y")
        assert len(serialize.digest("x")) == 64
