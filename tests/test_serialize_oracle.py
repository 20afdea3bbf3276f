"""Differential tests: the interning reader and the memoizing writer
against the plain oracles.

``serialize.load_trace`` and ``serialize.load_run`` build one value per
distinct entry of a file; ``serialize_oracle`` builds one per occurrence.
On generated, mutated and hand-built texts, both must return equal values
that serialize to the same text, or raise ``FormatError`` with the same
message.  The hand-built texts spell a valid entry's ``1`` as ``true`` or
``1.0`` where the entry recurs, which a memo keyed by ``==`` would accept,
since ``True == 1 == 1.0`` in Python.  Every mutated or respelled file is
spelled both by ``json.dumps`` and canonically, so that it also reaches the
reader of canonical text; the hand-built canonical cases each depart from
what the writer writes in one way, and pin which reader runs.

The writers spell each distinct state and transaction once, spell a
trace's later states from their parents' texts where the steps make them,
and join a file's pieces; the oracle encodes the whole JSON tree of the
file with one ``json.dumps``.  Both must write the same bytes, also for
traces whose steps do not make their states.
"""
import contextlib
import copy
import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serialize_oracle as oracle
from conftest import both_spellings, json_nodes, json_parent, out, tx_of
from ledgerlab import cli, serialize
from ledgerlab.core import (
    Output, OutputRef, UtxoSet, apply_tx, hash_tx, mk_outs,
)
from ledgerlab.gen import graph_universe, make_proposer, make_scenario
from ledgerlab.graphs import build_ledger_graph, project_ledger_graph
from ledgerlab.traces import TracePrefix, generate_valid_traces

TOKEN = b"NFT"
LOADERS = {
    "trace": (serialize.load_trace, oracle.load_trace),
    "run": (serialize.load_run, oracle.load_run),
}


def _hand_built():
    """Files whose first state holds the entry (g, 1) -> one NFT.

    The entry recurs in the second state, as the input of the second step,
    and as output 1 of the genesis tx g.
    """
    genesis = tx_of((), [out("a"), out("b", token=TOKEN, token_qty=1)])
    g = hash_tx(genesis)
    t1 = tx_of([(OutputRef(g, 0), genesis.outputs[0])], [out("c")])
    t2 = tx_of([(OutputRef(g, 1), genesis.outputs[1])], [out("d")])
    u0 = mk_outs(genesis)
    u1 = apply_tx(u0, t1)
    states = (u0, u1, apply_tx(u1, t2))
    steps = ((0, t1), (0, t2))
    entry = {
        "index": serialize.ref_to_json(OutputRef(g, 1)),
        "quantity": serialize.output_to_json(genesis.outputs[1]),
    }
    files = {
        "trace": serialize.dump_trace(TracePrefix(states, steps), [genesis], [0]),
        "run": serialize.dump_run(u0, steps, [genesis]),
    }
    return files, entry


HAND_BUILT, ENTRY = _hand_built()

#: where the entry recurs after the first state: a path prefix per file kind
PLACES = {
    ("trace", "later-state"): ("states", 1),
    ("trace", "lift-input"): ("lifts", 1, 1, "inputs"),
    ("trace", "genesis-output"): ("genesis", 0, "outputs"),
    ("run", "step-input"): ("steps", 1, 1, "inputs"),
    ("run", "genesis-output"): ("genesis", 0, "outputs"),
}
RESPELLED = [
    (kind, place, field, spelling)
    for (kind, place) in PLACES
    for field in ("index", "quantity")
    if not (field == "index" and place == "genesis-output")
    for spelling in (True, 1.0)
]


def respelled(kind, place, field, spelling):
    """The hand-built ``kind`` file, its entry's 1 respelled at ``place``,
    spelled both ways of ``both_spellings``."""
    payload = json.loads(HAND_BUILT[kind])
    prefix = PLACES[kind, place]
    [node] = [
        n for p, n in json_nodes(payload)
        if p[:len(prefix)] == prefix and n == ENTRY[field]
    ]
    if field == "index":
        node["index"] = spelling
    else:
        node["value"][TOKEN.hex()] = spelling
    return both_spellings(payload)


def outcome(load, text):
    """What ``load`` returns on ``text``, or its FormatError message."""
    try:
        return load(text)
    except serialize.FormatError as exc:
        return "FormatError: %s" % exc


def redump(kind, loaded):
    if kind == "trace":
        prefix, genesis, slots = loaded
        return serialize.dump_trace(prefix, genesis, slots)
    return serialize.dump_run(*loaded)


def assert_same(kind, text):
    new, old = (outcome(load, text) for load in LOADERS[kind])
    assert new == old
    if not isinstance(old, str):
        assert redump(kind, new) == redump(kind, old)


@st.composite
def generated(draw, kind):
    seed = draw(st.integers(0, 10 ** 6))
    token = draw(st.sampled_from([None, TOKEN]))
    sc = make_scenario(seed, n_outputs=draw(st.integers(1, 6)), token=token)
    prefix = generate_valid_traces(
        [sc.initial_utxo], [sc.initial_slot], make_proposer(token=token),
        depth=draw(st.integers(1, 5)), count=1, seed=seed,
    )[0]
    if kind == "trace":
        return serialize.dump_trace(prefix, sc.genesis_txs, [sc.initial_slot])
    return serialize.dump_run(sc.initial_utxo, prefix.annotations, sc.genesis_txs)


REPLACEMENTS = [
    None, True, False, 0, 1, 1.0, -1, 2 ** 32, 2 ** 64, "", "00", "AB", "zz",
    [], {}, [1], {"00": 1},
]


@st.composite
def mutated(draw, kind):
    """A generated file with one to three edits, spelled both ways."""
    return draw(edited(draw(generated(kind))))


@st.composite
def edited(draw, text, under=()):
    """``text`` with one to three edits, each at or below the node at path
    ``under`` (the root's children by default).

    An edit respells a number (``1`` as ``true``, ``7`` as ``7.0``), puts
    a copy of another node with the same key in place of a node (an entry,
    a ref, an output, an index), deletes a node, or replaces it.  The
    result is spelled both ways of ``both_spellings``.
    """
    payload = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        nodes = [(p, n) for p, n in json_nodes(payload)
                 if p and p[:len(under)] == under]
        if not nodes:  # the node at ``under`` was deleted
            break
        path, node = draw(st.sampled_from(nodes))
        parent, key = json_parent(payload, path)
        edit = draw(st.sampled_from(["respell", "copy", "delete", "replace"]))
        if edit == "respell" and type(node) is int:
            spellings = [float(node)] + ([bool(node)] if node in (0, 1) else [])
            parent[key] = draw(st.sampled_from(spellings))
        elif edit == "copy":
            same_key = [n for p, n in nodes if p[-1] == key]
            parent[key] = copy.deepcopy(draw(st.sampled_from(same_key)))
        elif edit == "delete":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return both_spellings(payload)


class TestAgreesWithOracle:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated(self, kind, data):
        assert_same(kind, data.draw(generated(kind)))

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated(self, kind, data):
        for text in data.draw(mutated(kind)):
            assert_same(kind, text)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_hand_built(self, kind):
        assert not isinstance(outcome(LOADERS[kind][0], HAND_BUILT[kind]), str)
        assert_same(kind, HAND_BUILT[kind])

    @pytest.mark.parametrize("kind, place, field, spelling", RESPELLED)
    def test_respelled(self, kind, place, field, spelling):
        for text in respelled(kind, place, field, spelling):
            assert_same(kind, text)


class TestMemoIsTypeStrict:
    @pytest.mark.parametrize("kind, place, field, spelling", RESPELLED)
    def test_load_rejects_respelled_entry(self, kind, place, field, spelling):
        for text in respelled(kind, place, field, spelling):
            with pytest.raises(serialize.FormatError):
                LOADERS[kind][0](text)

    @pytest.mark.parametrize("kind, place, field, spelling", RESPELLED)
    def test_cli_exits_2(self, kind, place, field, spelling, tmp_path):
        for text in respelled(kind, place, field, spelling):
            code, err = run_cli(kind, text, tmp_path)
            assert code == cli.EXIT_USAGE, err
            assert "Traceback" not in err


def run_cli(kind, text, tmp_path):
    """Exit code and stderr of the CLI's reading command on a ``kind`` file."""
    path = tmp_path / "file.json"
    path.write_text(text)
    argv = {
        "trace": ["trace", "validate", str(path)],
        "run": ["props", "check", "--run", str(path)],
    }[kind]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _canonical_cases():
    """Canonically spelled trace files, each departing from what the writer
    writes in one way, with whether the plain reader must read them whole.

    Built from the hand-built trace, whose second state holds the entry
    ``(g, 1)``.
    """
    [plain, canonical] = both_spellings(json.loads(HAND_BUILT["trace"]))
    assert canonical == HAND_BUILT["trace"] and plain != canonical

    def edit(change):
        payload = json.loads(HAND_BUILT["trace"])
        change(payload)
        return both_spellings(payload)[1]

    def later_entry(payload):
        [entry] = [e for e in payload["states"][1]
                   if e["output_ref"] == ENTRY["index"]]
        return entry

    def nested_delimiter(payload):
        # canonically `…,"z":[{"q":0},{"output":1}]}`: split on the entry
        # delimiter, the entry falls into two pieces that each fail alone
        later_entry(payload)["z"] = [{"q": 0}, {"output": 1}]

    def element_after_entry(payload):
        # `…}},{"w":1},{"output":…`: the piece before the element parses
        # as an entry that ends before the piece does
        payload["states"][1].insert(1, {"w": 1})

    def output_key_respelled(payload):
        # `{"outpua":` has the length of `{"output":` and sorts before
        # "output_ref", so it stands where the entry head stands
        entry = payload["states"][1][0]
        entry["outpua"] = entry.pop("output")

    def extra_key(payload):
        later_entry(payload)["z"] = 1

    def extra_key_in_ref(payload):
        later_entry(payload)["output_ref"]["z"] = 1

    def states_in_genesis(payload):
        payload["genesis"][0]["states"] = [[]]

    def only_in_genesis(payload):
        states_in_genesis(payload)
        del payload["states"]

    def version_and_entry(payload):
        payload["version"] = 2
        later_entry(payload)["output_ref"]["index"] = True

    def wrong_kind(payload):
        payload["kind"] = "run"

    def kind_and_entry(payload):
        wrong_kind(payload)
        later_entry(payload)["output_ref"]["index"] = True

    def key_after_states(payload):
        # "t" sorts between "states" and "truncated", so the text before
        # the tail does not end the states member
        payload["t"] = 1

    def empty_state(payload):
        payload["states"][1] = []

    def no_states(payload):
        payload["states"] = []
        payload["lifts"] = None

    def slots_in_genesis(payload):
        # the genesis is cut at the first `,"initial_slots":`, which falls
        # inside its tx: the cut text does not scan as one value
        payload["genesis"][0]["initial_slots"] = [7]

    def genesis_not_a_list(payload):
        payload["genesis"] = 5

    def respell(field, spelling):
        def change(payload):
            entry = later_entry(payload)
            if field == "index":
                entry["output_ref"]["index"] = spelling
            else:
                entry["output"]["value"][TOKEN.hex()] = spelling
        return change

    head, tail = canonical.split(',"truncated":')
    return {
        "nested-delimiter": (edit(nested_delimiter), True),
        "element-after-entry": (edit(element_after_entry), True),
        "output-key-respelled": (edit(output_key_respelled), True),
        "extra-key": (edit(extra_key), True),
        "extra-key-in-ref": (edit(extra_key_in_ref), True),
        "states-twice-first-empty": (
            canonical.replace(',"lifts":', ',"states":[[]],"lifts":'), True),
        "states-twice-last-empty": (
            head + ',"states":[[]],"truncated":' + tail, True),
        "states-twice-as-first-key": ('{"states":[[]],' + canonical[1:], True),
        "states-in-genesis": (edit(states_in_genesis), True),
        "slots-in-genesis": (edit(slots_in_genesis), True),
        "genesis-twice": (
            canonical.replace(',"kind":', ',"genesis":[],"kind":'), True),
        "key-before-genesis": ('{"a":1,' + canonical[1:], True),
        # the cut text is `[],"genesis":[…]`, of which `[]` is one value
        "genesis-twice-adjacent": (
            canonical.replace('{"genesis":', '{"genesis":[],"genesis":', 1), True),
        "states-only-in-genesis": (edit(only_in_genesis), True),
        "wrong-version-and-entry": (edit(version_and_entry), True),
        "wrong-kind": (edit(wrong_kind), True),
        "wrong-kind-and-entry": (edit(kind_and_entry), True),
        "no-trailing-newline": (canonical[:-1], True),
        "key-after-states": (edit(key_after_states), True),
        # not JSON: a states member of one character, `[7`, that is not `]`
        "states-one-character": (
            head[:head.index(',"states":')] + ',"states":[7,"truncated":' + tail,
            True),
        "index-true": (edit(respell("index", True)), True),
        "index-1.0": (edit(respell("index", 1.0)), True),
        "quantity-true": (edit(respell("quantity", True)), True),
        "quantity-1.0": (edit(respell("quantity", 1.0)), True),
        "as-written": (canonical, False),
        "empty-state": (edit(empty_state), False),
        "no-states": (edit(no_states), True),
        "genesis-not-a-list": (edit(genesis_not_a_list), False),
    }


CANONICAL_CASES = _canonical_cases()


def read_whole(monkeypatch):
    """The texts ``serialize._load`` parses from now on: the files that the
    plain reader reads whole."""
    texts = []
    load = serialize._load

    def spy(text, kind):
        texts.append(text)
        return load(text, kind)

    monkeypatch.setattr(serialize, "_load", spy)
    return texts


class TestCanonicalText:
    """A canonically spelled file's states are read by their text; any
    departure from what the writer writes sends it to the plain reader."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_agrees_with_oracle(self, name, tmp_path):
        text, _ = CANONICAL_CASES[name]
        assert_same("trace", text)
        code, err = run_cli("trace", text, tmp_path)
        if isinstance(outcome(oracle.load_trace, text), str):
            assert code == cli.EXIT_USAGE and err.startswith("error: "), err
        else:
            assert code in (cli.EXIT_CLEAN, cli.EXIT_VIOLATION), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_which_reader_runs(self, name, monkeypatch):
        text, plain = CANONICAL_CASES[name]
        whole = read_whole(monkeypatch)
        outcome(serialize.load_trace, text)
        assert whole == ([text] if plain else [])

    @pytest.mark.parametrize("argv", [
        ["--seed", "21", "--depth", "12", "--count", "100", "--outputs", "24",
         "--token", TOKEN.hex()],
        ["--seed", "1", "--depth", "5", "--count", "3", "--outputs", "200"],
        ["--seed", "3", "--depth", "30", "--count", "2", "--outputs", "40"],
    ], ids=["contract-fanout", "wide-state", "long-run"])
    def test_generated_files_are_read_by_text(self, argv, tmp_path, monkeypatch):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["trace", "gen", *argv, "--out", str(tmp_path)]) == 0
        texts = [p.read_text() for p in sorted(tmp_path.glob("trace_*.json"))]
        expected = [oracle.load_trace(t) for t in texts]

        def refuse(*args):
            raise AssertionError("the plain reader ran")

        monkeypatch.setattr(serialize._Reader, "utxo", refuse)
        whole = read_whole(monkeypatch)
        assert serialize.load_traces(texts) == expected
        assert [serialize.load_trace(t) for t in texts] == expected
        assert whole == []


class TestSharing:
    def test_reader_builds_each_distinct_entry_once(self):
        prefix, genesis, _ = serialize.load_trace(HAND_BUILT["trace"])
        u0, u1, _ = prefix.states
        ref = OutputRef(hash_tx(genesis[0]), 1)
        [ref0] = [r for r in u0.keys() if r == ref]
        [ref1] = [r for r in u1.keys() if r == ref]
        assert ref0 is ref1
        assert u0.get(ref) is u1.get(ref) is genesis[0].outputs[1]
        [(spent_ref, spent_out)] = prefix.annotations[1][1].inputs
        assert spent_ref == ref0 and spent_out is u0.get(ref)

    def test_no_memo_outlives_a_read(self):
        first, second = (serialize.load_trace(HAND_BUILT["trace"]) for _ in "ab")
        assert first == second
        pairs = zip(first[0].states[0].items(), second[0].states[0].items())
        assert all(r is not s and o is not p for (r, o), (s, p) in pairs)

    def test_writer_converts_another_output_of_a_ref(self):
        [ref] = mk_outs(tx_of((), [out("a")])).keys()
        writer = serialize._Writer()
        for tag in ("a", "b", "a"):
            u = UtxoSet({ref: out(tag)})
            assert state_text(writer, u) == oracle.canonical(oracle.utxo_to_json(u))


def state_text(writer, u):
    return "".join(serialize._entry_list([], writer.texts(u)))


def _scenario_traces(seed, count=3):
    """The trace files of one scenario: they share its genesis and first state."""
    sc = make_scenario(seed, n_outputs=4, token=TOKEN)
    prefixes = generate_valid_traces(
        [sc.initial_utxo], [sc.initial_slot], make_proposer(token=TOKEN),
        depth=4, count=count, seed=seed,
    )
    return [serialize.dump_trace(p, sc.genesis_txs, [sc.initial_slot])
            for p in prefixes]


class TestLoadTraces:
    """One reader for several files gives what one reader per file gives."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_load_trace_and_oracle(self, seed):
        texts = _scenario_traces(seed)
        shared = serialize.load_traces(texts)
        assert shared == [serialize.load_trace(t) for t in texts]
        assert shared == [oracle.load_trace(t) for t in texts]
        assert [redump("trace", x) for x in shared] == texts

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_entries_are_one_object(self, seed):
        (a, genesis_a, _), (b, genesis_b, _) = serialize.load_traces(
            _scenario_traces(seed, count=2))
        u, v = a.states[0], b.states[0]
        assert u == v and u.keys()
        for ref in u.keys():
            [ref_b] = [r for r in v.keys() if r == ref]
            assert ref_b is ref and v.get(ref) is u.get(ref)
        assert genesis_a
        assert all(x is y for ga, gb in zip(genesis_a, genesis_b)
                   for x, y in zip(ga.outputs, gb.outputs))

    @pytest.mark.parametrize("place, field, spelling",
                             [r[1:] for r in RESPELLED if r[0] == "trace"])
    def test_respelled_second_file(self, place, field, spelling):
        for bad in respelled("trace", place, field, spelling):
            assert (outcome(serialize.load_traces, [HAND_BUILT["trace"], bad])
                    == outcome(serialize.load_trace, bad))

    def test_shared_genesis_is_built_once(self, monkeypatch):
        texts = _scenario_traces(5)
        calls, tx = [], serialize._Reader.tx
        monkeypatch.setattr(serialize._Reader, "tx",
                            lambda read, obj: calls.append(obj) or tx(read, obj))
        read = serialize.load_traces(texts)
        [genesis] = {tuple(map(id, g)) for _, g, _ in read}
        assert len(calls) == len(genesis) + sum(len(p.annotations) for p, _, _ in read)
        assert len({id(g) for _, g, _ in read}) == len(texts)
        assert read == [oracle.load_trace(t) for t in texts]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_malformed_second_file(self, data):
        self.check_second_file(data, ())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_malformed_second_genesis(self, data):
        """A genesis text that the first file did not spell is built and
        checked, not taken from the first file's."""
        self.check_second_file(data, ("genesis",))

    @staticmethod
    def check_second_file(data, under):
        first, second = _scenario_traces(data.draw(st.integers(0, 10 ** 6)), 2)
        for bad in data.draw(edited(second, under)):
            alone = outcome(serialize.load_trace, bad)
            both = outcome(serialize.load_traces, [first, bad])
            if isinstance(alone, str):
                assert both == alone
            else:
                assert both == [serialize.load_trace(first), alone]


def ledger_files(prefixes, genesis, slots, writer=None):
    """The trace and run files of ``prefixes``, written by the library (with
    ``writer`` shared by the traces, if given) and by the oracle."""
    new, old = [], []
    for p in prefixes:
        new.append(serialize.dump_trace(p, genesis, slots, writer))
        old.append(oracle.dump_trace(p, genesis, slots))
        if p.annotations is not None:
            new.append(serialize.dump_run(p.states[0], p.annotations, genesis))
            old.append(oracle.dump_run(p.states[0], p.annotations, genesis))
    return new, old


@st.composite
def generated_files(draw):
    """Traces of one generated scenario, each perhaps truncated or without
    lifts, with their genesis and a drawn, unsorted slot list."""
    seed = draw(st.integers(0, 10 ** 6))
    token = draw(st.sampled_from([None, TOKEN]))
    sc = make_scenario(seed, n_outputs=draw(st.integers(1, 6)), token=token)
    prefixes = generate_valid_traces(
        [sc.initial_utxo], [sc.initial_slot], make_proposer(token=token),
        depth=draw(st.integers(1, 5)), count=draw(st.integers(1, 3)), seed=seed,
    )
    prefixes = [
        dataclasses.replace(
            p, truncated=draw(st.booleans()),
            annotations=draw(st.sampled_from([p.annotations, None])),
        )
        for p in prefixes
    ]
    slots = draw(st.lists(st.integers(0, 2 ** 20), max_size=3))
    return prefixes, sc.genesis_txs, slots


def _hand_built_values():
    """Edge cases: an empty state, a ref re-bound to another output and back,
    a multi-token value, empty address and datum, an inputless lift, no
    lifts, and unsorted initial slots."""
    plain = Output(b"", {b"coin": 1}, b"")
    multi = Output(b"a", {b"coin": 3, b"T": 1, b"U": 2 ** 64 - 1}, b"")
    genesis = tx_of((), [plain, multi, out("g")])
    u0 = mk_outs(genesis)
    [r0, r1, r2] = sorted(u0.keys())
    spend = tx_of([(r0, plain)], [Output(b"x", {}, b"d")], extra=b"\x00")
    mint = tx_of((), [out("m", token=TOKEN, token_qty=1)], interval=(3, 9))
    rebound = UtxoSet({r0: out("other"), r1: multi})
    states = (u0, apply_tx(u0, spend), rebound, u0, UtxoSet({}))
    steps = ((0, spend), (4, mint), (4, mint), (2 ** 20, genesis))
    return [
        (TracePrefix((UtxoSet({}),)), (), ()),
        (TracePrefix((UtxoSet({}),), ()), (), (7,)),
        (TracePrefix(states, steps, True), (genesis,), (5, 0, 3)),
        (TracePrefix(states, None), (genesis, mint), (2, 1)),
        (TracePrefix((u0, u0), ((1, mint),)), (), (1, 1)),
    ]


HAND_BUILT_VALUES = _hand_built_values()


def replaced_state(draw, prefix, states):
    """``prefix`` with one state k >= 1 replaced by its parent, by one of
    ``states``, or by itself with one output altered."""
    k = draw(st.integers(1, len(prefix) - 1))
    u = prefix.states[k]
    how = draw(st.sampled_from(["parent", "other", "altered"]))
    if how == "parent" or (how == "altered" and not len(u)):
        u = prefix.states[k - 1]
    elif how == "other":
        u = draw(st.sampled_from(states))
    else:
        ref = draw(st.sampled_from(sorted(u.keys())))
        address, value, datum = u.get(ref)
        u = UtxoSet({**u.entries, ref: Output(address, value, datum + b"!")})
    return dataclasses.replace(prefix, states=prefix.states[:k] + (u,) + prefix.states[k + 1:])


def _guard_cases():
    """Traces whose steps do not all make their states from their parents."""
    g = tx_of((), [out("a"), out("b")])
    u0 = mk_outs(g)
    [r0, r1] = sorted(u0.keys())
    spend = tx_of([(r0, out("a"))], [out("c")])
    u1 = apply_tx(u0, spend)
    # spends a ref that u1 lacks, and one that it holds
    stray = tx_of([(r0, out("a")), (r1, out("b"))], [out("d")])
    unseen = apply_tx(u0, tx_of([(r1, out("b"))], [out("e")]))
    return {
        "spends a ref its parent lacks": TracePrefix(
            (u0, u1, apply_tx(u1, stray)), ((0, spend), (1, stray))),
        "spends a ref its parent lacks, state unchanged": TracePrefix(
            (u0, u1, u1), ((0, spend), (1, stray))),
        "one state object at two positions": TracePrefix(
            (u0, u1, u0, u1), ((0, spend), (1, spend), (2, spend))),
        "a parent the writer never spelled": TracePrefix(
            (u0, apply_tx(unseen, spend)), ((0, spend),)),
        "no lifts": TracePrefix((u0, u1, unseen, u1), None),
    }


GUARD_CASES = _guard_cases()


class TestWriterAgreesWithOracle:
    @settings(max_examples=80, deadline=None)
    @given(files=generated_files(), shared=st.booleans())
    def test_generated(self, files, shared):
        new, old = ledger_files(*files, serialize._Writer() if shared else None)
        assert new == old

    @pytest.mark.parametrize("case", range(len(HAND_BUILT_VALUES)))
    def test_hand_built(self, case):
        prefix, genesis, slots = HAND_BUILT_VALUES[case]
        new, old = ledger_files([prefix], genesis, slots)
        assert new == old

    @settings(max_examples=30, deadline=None)
    @given(files=generated_files())
    def test_one_writer_for_several_files(self, files):
        """A writer that already spelled other files, with entries and txs of
        other scenarios, writes what a fresh writer writes."""
        prefixes, genesis, slots = files
        writer = serialize._Writer()
        for prefix, g, s in HAND_BUILT_VALUES:
            serialize.dump_trace(prefix, g, s, writer)
        shared = [serialize.dump_trace(p, genesis, slots, writer) for p in prefixes]
        assert shared == [serialize.dump_trace(p, genesis, slots) for p in prefixes]
        assert shared == [oracle.dump_trace(p, genesis, slots) for p in prefixes]

    @settings(max_examples=60, deadline=None)
    @given(files=generated_files(), data=st.data())
    def test_replaced_state(self, files, data):
        """A state k >= 1 that its step does not make of its parent, drawn as
        that parent, a state of any of the traces, or the state with one
        output altered, is spelled as the oracle spells it."""
        prefixes, genesis, slots = files
        states = [u for p in prefixes for u in p.states]
        writer = serialize._Writer()
        for prefix in prefixes:
            if len(prefix) > 1:
                prefix = replaced_state(data.draw, prefix, states)
            assert (serialize.dump_trace(prefix, genesis, slots, writer)
                    == oracle.dump_trace(prefix, genesis, slots))

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_guard(self, case):
        prefix = GUARD_CASES[case]
        expected = oracle.dump_trace(prefix)
        writer = serialize._Writer()
        for _ in "ab":
            assert serialize.dump_trace(prefix, (), (), writer) == expected
        assert serialize.dump_trace(prefix) == expected

    @pytest.mark.parametrize("seed, depth", [(0, 3), (1, 8), (2, 14), (0, 25)])
    def test_ledger_graphs(self, seed, depth):
        sc, txs, slots = graph_universe(seed, depth)
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
        lam_prime, _ = project_ledger_graph(lam)
        new = serialize.dump_ledger_graphs(lam, lam_prime)
        assert new == oracle.dump_ledger_graphs(lam, lam_prime)

    @pytest.mark.parametrize("prefix", [
        TracePrefix((0,)),
        TracePrefix((0, 1, 0), ((None, "mint"), (None, "burn"))),
        TracePrefix(({"b": [1], "a": None}, "s"), None),
    ])
    def test_contract_traces(self, prefix):
        new = serialize.dump_contract_trace(prefix)
        assert new == oracle.dump_contract_trace(prefix)


class TestWriterCost:
    """One writer for the traces of a wide scenario spells each entry of the
    first state and each created entry once: a later state is derived from
    its parent's texts, not spelled in full."""

    @pytest.fixture(scope="class")
    def wide(self):
        sc = make_scenario(11, n_outputs=2000)
        prefixes = generate_valid_traces(
            [sc.initial_utxo], [sc.initial_slot], make_proposer(),
            depth=5, count=10, seed=11,
        )
        return prefixes, sc.genesis_txs, [sc.initial_slot]

    @staticmethod
    def written(monkeypatch, prefixes, genesis, slots):
        calls, entry = [], serialize._entry
        monkeypatch.setattr(serialize, "_entry",
                            lambda ref, o: calls.append(ref) or entry(ref, o))
        writer = serialize._Writer()
        texts = [serialize.dump_trace(p, genesis, slots, writer) for p in prefixes]
        return texts, len(calls)

    def test_entries_spelled(self, wide, monkeypatch):
        prefixes, genesis, slots = wide
        assert all(len(p) == 5 for p in prefixes)
        _, calls = self.written(monkeypatch, prefixes, genesis, slots)
        created = sum(len(t.outputs) for p in prefixes for _, t in p.annotations)
        assert calls <= len(prefixes[0].states[0]) + created

    def test_refusing_guard_keeps_the_bytes(self, wide, monkeypatch):
        prefixes, genesis, slots = wide
        monkeypatch.setattr(serialize, "_derived", lambda *args: None)
        texts, calls = self.written(monkeypatch, prefixes, genesis, slots)
        assert calls >= sum(map(len, prefixes[0].states))
        assert texts == [oracle.dump_trace(p, genesis, slots) for p in prefixes]
