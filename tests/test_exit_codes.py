"""The exit-code contract holds for any input file.

Generated trace and run files are mutated one edit at a time: a state entry
dropped, repeated or moved; a number or token value map retyped or pushed
out of range; two steps swapped; a list truncated; a 1 in an entry that
occurs more than once spelled ``true`` or ``1.0`` in one occurrence.  Each
mutant is spelled as ``json.dumps`` spells it and canonically, as the
writers spell a file, so that it meets both the plain reader and the reader
of canonical text.  Every command must then exit 0 (clean), 1 (violation)
or 2 (usage or parse error), never 3, and print no traceback; the respelled
entry is a parse error.  The unmutated files exit 0, as do a one-state
trace and a stepless run.  In those, a field the format calls a list, or
the boolean ``truncated``, spelled as another JSON value that Python would
iterate or test alike, such as ``{}`` or ``""``, is a parse error; so it is
in both spellings.
"""
import contextlib
import copy
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import both_spellings, json_nodes, json_parent
from ledgerlab import cli, serialize
from ledgerlab.contracts import CONTRACTS
from ledgerlab.gen import make_proposer, make_scenario
from ledgerlab.traces import TracePrefix, generate_valid_traces

TOKEN = b"NFT"


def _generated():
    sc = make_scenario(7, n_outputs=5, token=TOKEN)
    prefix = generate_valid_traces(
        [sc.initial_utxo],
        [sc.initial_slot],
        make_proposer(token=TOKEN),
        depth=5,
        count=1,
        seed=7,
        additional_checks=CONTRACTS["nft"](TOKEN).additional_checks,
    )[0]
    return {
        "trace": serialize.dump_trace(prefix, sc.genesis_txs, [sc.initial_slot]),
        "run": serialize.dump_run(sc.initial_utxo, prefix.annotations, sc.genesis_txs),
    }


FILES = _generated()


def _one_state_files():
    """A one-state trace and a stepless run, whose empty lists read alike."""
    sc = make_scenario(7, n_outputs=5, token=TOKEN)
    return {
        "trace": serialize.dump_trace(
            TracePrefix((sc.initial_utxo,), ()), sc.genesis_txs, [sc.initial_slot]
        ),
        "run": serialize.dump_run(sc.initial_utxo, (), sc.genesis_txs),
    }


ONE_STATE = _one_state_files()

COMMANDS = {
    "trace": [
        ["trace", "validate", "{f}"],
        ["trace", "monitor", "{f}", "--monitor", "duplicate-state"],
        ["trace", "monitor", "{f}", "--monitor", "duplicate-tx"],
        ["trace", "monitor", "{f}", "--monitor", "utxo-empty"],
        ["trace", "dist", "{f}", "{f}"],
        ["contract", "check", "--name", "nft", "--token", TOKEN.hex(),
         "--traces", "{f}", "--nonexpanding", "--induce", "--out", "{d}"],
        # one reader serves both files: the clean one fills its memo first
        ["trace", "dist", "{clean}", "{f}"],
        ["contract", "check", "--name", "nft", "--token", TOKEN.hex(),
         "--traces", "{clean}", "{f}", "--nonexpanding"],
    ],
    "run": [
        ["props", "check", "--run", "{f}"],
        ["props", "canon", "--run", "{f}"],
        ["props", "canon", "--run", "{f}", "--enumerate", "--cap", "20"],
    ],
}

BAD_NUMBERS = [None, True, "7", 7.0, [7], {"n": 7}, -1, 2 ** 32, 2 ** 64, -2 ** 70]
BAD_VALUE_MAPS = [
    None, [1], "00", 7, True, {"zz": 1}, {"00": -1}, {"00": 2 ** 64},
    {"00": 1.5}, {"00": "1"}, {"00": None}, {"": 1},
]


def _is_state(path, node):
    """A UTxO state: the run's ``initial`` or one of the trace's ``states``."""
    return isinstance(node, list) and (
        path == ("initial",) or (len(path) == 2 and path[0] == "states")
    )


def _spelling(node):
    return json.dumps(node, sort_keys=True)


def _entry_of(payload, path):
    """The ref or output object holding the index or quantity at ``path``."""
    return json_parent(payload, path if path[-1] == "index" else path[:-1])[0]


@st.composite
def mutated(draw, kind):
    """A copy of the generated ``kind`` file with one edit, and its label;
    the copy is spelled both ways of ``both_spellings``."""
    payload = json.loads(FILES[kind])
    nodes = list(json_nodes(payload))
    edit = draw(st.sampled_from([
        "drop-entry", "repeat-entry", "move-entry", "retype-number",
        "retype-value-map", "swap-steps", "truncate-list", "respell-number",
    ]))
    if edit.endswith("-entry"):
        states = [n for p, n in nodes if _is_state(p, n) and n]
        entries = draw(st.sampled_from(states))
        i = draw(st.integers(0, len(entries) - 1))
        if edit == "drop-entry":
            del entries[i]
        elif edit == "repeat-entry":
            entries.insert(draw(st.integers(0, len(entries))), copy.deepcopy(entries[i]))
        else:
            entries.insert(draw(st.integers(0, len(entries) - 1)), entries.pop(i))
    elif edit == "retype-number":
        paths = [p for p, n in nodes if type(n) is int]
        node, key = json_parent(payload, draw(st.sampled_from(paths)))
        node[key] = draw(st.sampled_from(BAD_NUMBERS))
    elif edit == "retype-value-map":
        paths = [p for p, n in nodes if p and p[-1] == "value"]
        node, key = json_parent(payload, draw(st.sampled_from(paths)))
        node[key] = draw(st.sampled_from(BAD_VALUE_MAPS))
    elif edit == "respell-number":
        spellings = Counter(_spelling(n) for _, n in nodes if isinstance(n, dict))
        paths = [
            p for p, n in nodes
            if type(n) is int and n == 1 and len(p) > 1
            and (p[-1] == "index" or p[-2] == "value")
            and spellings[_spelling(_entry_of(payload, p))] > 1
        ]
        node, key = json_parent(payload, draw(st.sampled_from(paths)))
        node[key] = draw(st.sampled_from([True, 1.0]))
    elif edit == "swap-steps":
        steps = payload["lifts" if kind == "trace" else "steps"]
        i, j = draw(st.lists(
            st.integers(0, len(steps) - 1), min_size=2, max_size=2, unique=True
        ))
        steps[i], steps[j] = steps[j], steps[i]
    else:
        lists = [n for _, n in nodes if isinstance(n, list) and n]
        target = draw(st.sampled_from(lists))
        del target[draw(st.integers(0, len(target) - 1)):]
    return edit, both_spellings(payload)


def run_all(kind, text, tmp_dir):
    """Exit code and stderr of every ``kind`` command on the file ``text``."""
    path = tmp_dir / ("%s.json" % kind)
    path.write_text(text)
    clean = tmp_dir / ("clean-%s.json" % kind)
    clean.write_text(FILES[kind])
    results = []
    for template in COMMANDS[kind]:
        argv = [a.format(f=path, d=tmp_dir / "out", clean=clean) for a in template]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        results.append((argv[:2], code, err.getvalue()))
    return results


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@pytest.mark.parametrize("kind", sorted(FILES))
def test_generated_files_exit_clean(kind, tmp_dir):
    for text in (FILES[kind], ONE_STATE[kind]):
        for command, code, err in run_all(kind, text, tmp_dir):
            assert code == cli.EXIT_CLEAN, (command, err)


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_files_keep_the_exit_contract(kind, tmp_dir, data):
    edit, texts = data.draw(mutated(kind), label="edit")
    for text in texts:
        for command, code, err in run_all(kind, text, tmp_dir):
            assert code in (cli.EXIT_CLEAN, cli.EXIT_VIOLATION, cli.EXIT_USAGE), (
                edit, command, err,
            )
            if edit == "respell-number":
                assert code == cli.EXIT_USAGE, (command, err)
            assert "Traceback" not in err


LOOK_ALIKES = [
    ("trace", ("truncated",), "no"),
    ("trace", ("truncated",), 7),
    ("trace", ("truncated",), None),
    ("trace", ("states", 0), {}),
    ("trace", ("states", 0), ""),
    ("trace", ("lifts",), {}),
    ("trace", ("lifts",), ""),
    ("trace", ("genesis",), {}),
    ("trace", ("genesis",), ""),
    ("trace", ("genesis", 0, "inputs"), {}),
    ("trace", ("genesis", 0, "outputs"), {}),
    ("trace", ("initial_slots",), {}),
    ("trace", ("initial_slots",), ""),
    ("run", ("initial",), {}),
    ("run", ("initial",), ""),
    ("run", ("steps",), {}),
    ("run", ("steps",), ""),
    ("run", ("genesis",), {}),
    ("run", ("genesis", 0, "outputs"), ""),
]


@pytest.mark.parametrize("kind, path, value", LOOK_ALIKES, ids=[
    "%s.%s=%s" % (kind, ".".join(map(str, path)), json.dumps(value))
    for kind, path, value in LOOK_ALIKES
])
def test_look_alike_containers_are_parse_errors(kind, path, value, tmp_dir):
    payload = json.loads(ONE_STATE[kind])
    node, key = json_parent(payload, path)
    node[key] = value
    for text in both_spellings(payload):
        for command, code, err in run_all(kind, text, tmp_dir):
            assert code == cli.EXIT_USAGE, (command, err)
            assert err.startswith("error: ")
