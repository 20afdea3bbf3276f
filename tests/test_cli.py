import argparse
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import check_monitor_monotone, gen_traces
from ledgerlab import cli, core, serialize
from ledgerlab.cli import (
    EXIT_CLEAN,
    EXIT_INTERNAL,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from ledgerlab.contracts import nft_contract
from ledgerlab.core import UtxoSet
from ledgerlab.gen import make_scenario
from ledgerlab.traces import TracePrefix, check_non_expanding


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(text):
    return json.loads(text)


def refused(capsys, monkeypatch, tmp_path, *argv):
    """The stderr of a command refused as a usage error, run in ``tmp_path``
    with no output directory set: it printed nothing and wrote nothing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    return err


@pytest.fixture
def trace_dir(tmp_path, capsys):
    out = tmp_path / "traces"
    code, stdout, _ = run_cli(
        capsys, "trace", "gen", "--seed", "5", "--depth", "4", "--count", "3",
        "--out", str(out),
    )
    assert code == EXIT_CLEAN
    return out


class TestTraceGen:
    def test_writes_files_and_manifest(self, trace_dir):
        files = sorted(p.name for p in trace_dir.iterdir())
        assert files == [
            "manifest.json", "trace_000.json", "trace_001.json", "trace_002.json"
        ]
        manifest = read_json((trace_dir / "manifest.json").read_text())
        assert len(manifest["files"]) == 3
        for entry in manifest["files"]:
            text = (trace_dir / entry["name"]).read_text()
            assert serialize.digest(text) == entry["digest"]

    def test_digests_are_of_the_bytes_on_disk(self, tmp_path, capsys, monkeypatch):
        """Every digest printed or listed is the sha256 of its file's bytes,
        also where text files would end their lines in ``\\r\\n``."""
        def crlf_write_text(path, text, *args, **kwargs):
            return path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))

        monkeypatch.setattr(Path, "write_text", crlf_write_text)

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        out = tmp_path / "traces"
        code, stdout, _ = run_cli(
            capsys, "trace", "gen", "--seed", "5", "--depth", "4", "--count", "3",
            "--out", str(out),
        )
        assert code == EXIT_CLEAN
        assert read_json(stdout)["manifest_digest"] == sha256(out / "manifest.json")
        manifest = read_json((out / "manifest.json").read_bytes())
        assert len(manifest["files"]) == 3
        for entry in manifest["files"]:
            assert entry["digest"] == sha256(out / entry["name"])
        graphs = tmp_path / "graphs"
        code, stdout, _ = run_cli(capsys, "graph", "dump", "--seed", "3", "--depth",
                                  "3", "--out", str(graphs))
        assert code == EXIT_CLEAN
        summary = read_json(stdout)
        assert summary["lambda_digest"] == sha256(graphs / "lambda.json")
        assert summary["lambda_prime_digest"] == sha256(graphs / "lambda_prime.json")

    def test_byte_identical_under_fixed_seed(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, stdout, _ = run_cli(
                capsys, "trace", "gen", "--seed", "12", "--depth", "5",
                "--count", "4", "--out", str(out),
            )
            assert code == EXIT_CLEAN
            outs.append(
                {p.name: p.read_bytes() for p in out.iterdir()}
            )
        assert outs[0] == outs[1]

    def test_out_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env"))
        code, _, _ = run_cli(capsys, "trace", "gen", "--seed", "1", "--count", "1")
        assert code == EXIT_CLEAN
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env"]
        assert sorted(p.name for p in (tmp_path / "env").iterdir()) == [
            "manifest.json", "trace_000.json"
        ]

    def test_out_flag_wins_over_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env"))
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "1", "--count", "1",
            "--out", str(tmp_path / "flag"),
        )
        assert code == EXIT_CLEAN
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flag"]

    def test_empty_token_is_a_token(self, tmp_path, capsys, monkeypatch):
        """``--token ""`` is the token id ``b""``, not the default or no token."""
        made = []

        def contract(*args):
            made.append(args)
            return nft_contract(*args)

        monkeypatch.setitem(cli.CONTRACTS, "nft", contract)
        out = tmp_path / "empty"
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "3", "--depth", "4",
            "--count", "2", "--out", str(out), "--token", "",
        )
        assert code == EXIT_CLEAN
        code, stdout, _ = run_cli(
            capsys, "contract", "check", "--name", "nft", "--token", "",
            "--traces", *sorted(str(p) for p in out.glob("trace_*.json")),
        )
        assert code == EXIT_CLEAN and read_json(stdout)["steps_checked"] == 6
        assert made == [(b"",), (b"",)]

    def test_seed_changes_bytes(self, tmp_path, capsys):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / ("s" + seed)
            run_cli(capsys, "trace", "gen", "--seed", seed, "--out", str(out))
            blobs.append((out / "trace_000.json").read_bytes())
        assert blobs[0] != blobs[1]


class TestSortCount:
    """``trace gen`` sorts one state, the scenario's first: every later state
    takes its canonical order from its parent.  No verdict command sorts."""

    @pytest.mark.parametrize("token", [[], ["--token", "ab"]])
    def test_gen_sorts_once_and_verdicts_never(
        self, tmp_path, capsys, monkeypatch, token
    ):
        sorted_sizes = []
        plain_sort = core._sorted_items

        def counted(entries):
            sorted_sizes.append(len(entries))
            return plain_sort(entries)

        monkeypatch.setattr(core, "_sorted_items", counted)
        out = tmp_path / "traces"
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "4", "--outputs", "200", "--depth",
            "5", "--count", "3", "--out", str(out), *token,
        )
        assert code == EXIT_CLEAN
        assert sorted_sizes == [200]
        trace = out / "trace_000.json"
        prefix, genesis, _ = serialize.load_trace(trace.read_text())
        assert len(prefix) == 5
        run = tmp_path / "run.json"
        run.write_text(serialize.dump_run(prefix.states[0], prefix.annotations, genesis))
        sorted_sizes.clear()
        for argv in (["trace", "validate", str(trace)],
                     ["props", "check", "--run", str(run)]):
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == EXIT_CLEAN
            assert all(v["clean"] for v in read_json(stdout)["verdicts"])
        assert sorted_sizes == []


class TestTraceValidate:
    def test_generated_traces_are_clean(self, trace_dir, capsys):
        for k in range(3):
            code, stdout, _ = run_cli(
                capsys, "trace", "validate", str(trace_dir / ("trace_%03d.json" % k))
            )
            assert code == EXIT_CLEAN
            report = read_json(stdout)
            assert all(v["clean"] for v in report["verdicts"])
            assert {v["check"] for v in report["verdicts"]} == {
                "well-founded", "valid-trace"
            }

    def test_corrupted_state_is_a_violation(self, trace_dir, tmp_path, capsys):
        text = (trace_dir / "trace_000.json").read_text()
        prefix, genesis, slots = serialize.load_trace(text)
        states = list(prefix.states)
        states[-1] = states[0]
        bad = serialize.dump_trace(
            TracePrefix(tuple(states), prefix.annotations), genesis, slots
        )
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(bad)
        code, stdout, _ = run_cli(capsys, "trace", "validate", str(bad_path))
        assert code == EXIT_VIOLATION

    def test_unparseable_file_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "trace", "validate", str(p))
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "trace", "validate", "/no/such/file")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("corrupt", [
        lambda lift: lift[1]["validity_interval"].__setitem__(0, 0.0),
        lambda lift: lift.__setitem__(0, str(lift[0])),
    ], ids=["float-validity-bound", "string-slot"])
    def test_non_natural_number_is_a_parse_error(
        self, trace_dir, tmp_path, capsys, corrupt
    ):
        payload = read_json((trace_dir / "trace_000.json").read_text())
        corrupt(payload["lifts"][0])
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "trace", "validate", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestTraceDist:
    def test_distance_of_two_generated_traces(self, trace_dir, capsys):
        code, stdout, _ = run_cli(
            capsys, "trace", "dist",
            str(trace_dir / "trace_000.json"), str(trace_dir / "trace_001.json"),
        )
        assert code == EXIT_CLEAN
        payload = read_json(stdout)
        assert set(payload) == {"exact", "value", "inputs_digest"}

    def test_same_file_twice_is_not_exact_zero(self, trace_dir, capsys):
        # two loads produce equal but distinct objects, so the distance is
        # only an upper bound
        path = str(trace_dir / "trace_000.json")
        code, stdout, _ = run_cli(capsys, "trace", "dist", path, path)
        payload = read_json(stdout)
        assert payload["exact"] is False


def repeated_tail(prefix):
    """The prefix with its first state and its last step repeated at the end."""
    return TracePrefix(
        prefix.states + prefix.states[:1],
        prefix.annotations + prefix.annotations[-1:],
    )


class TestTraceMonitor:
    @pytest.mark.parametrize("name", sorted(cli.MONITORS))
    def test_clean_monitor(self, trace_dir, capsys, name):
        code, stdout, _ = run_cli(
            capsys, "trace", "monitor", str(trace_dir / "trace_000.json"),
            "--monitor", name,
        )
        assert code == EXIT_CLEAN
        assert read_json(stdout)["verdicts"] == [
            {"check": "monitor:%s" % name, "clean": True, "witness": None}
        ]

    def test_unknown_monitor_is_usage_error(
        self, trace_dir, tmp_path, monkeypatch, capsys
    ):
        err = refused(
            capsys, monkeypatch, tmp_path, "trace", "monitor",
            str(trace_dir / "trace_000.json"), "--monitor", "nope",
        )
        assert "error: argument --monitor: invalid choice: 'nope'" in err

    @pytest.mark.parametrize("name", sorted(cli.MONITORS))
    def test_violated_monitor(self, tmp_path, capsys, name):
        sc = make_scenario(5)
        prefix = gen_traces(sc, depth=4, count=1, seed=5)[0]
        if name == "utxo-empty":
            u0 = prefix.states[0]
            bad, witness = TracePrefix((u0, UtxoSet({}), u0)), 1
        else:
            bad, witness = repeated_tail(prefix), len(prefix)
        path = tmp_path / "bad.json"
        path.write_text(serialize.dump_trace(bad))
        code, stdout, _ = run_cli(
            capsys, "trace", "monitor", str(path), "--monitor", name
        )
        assert code == EXIT_VIOLATION
        assert read_json(stdout)["verdicts"][0]["witness"] == witness

    @pytest.mark.parametrize("name", sorted(cli.MONITORS))
    def test_registered_monitor_is_monotone(self, tmp_path, capsys, name):
        samples = []
        for token in ([], ["--token", b"NFT".hex()]):
            out = tmp_path / ("token" if token else "plain")
            code, _, _ = run_cli(
                capsys, "trace", "gen", "--seed", "3", "--depth", "6",
                "--count", "4", "--out", str(out), *token,
            )
            assert code == EXIT_CLEAN
            for path in sorted(out.glob("trace_*.json")):
                prefix = serialize.load_trace(path.read_text())[0]
                samples.append(prefix)
                if prefix.annotations:
                    samples.append(repeated_tail(prefix))
        assert len(samples) > 8
        assert check_monitor_monotone(cli.MONITORS[name], samples)


@pytest.fixture
def run_file(tmp_path):
    sc = make_scenario(9)
    prefix = gen_traces(sc, depth=5, count=1, seed=9)[0]
    text = serialize.dump_run(
        sc.initial_utxo, prefix.annotations, sc.genesis_txs
    )
    path = tmp_path / "run.json"
    path.write_text(text)
    return sc, prefix, path


class TestPropsCheck:
    def test_clean_run(self, run_file, capsys):
        _, _, path = run_file
        code, stdout, _ = run_cli(capsys, "props", "check", "--run", str(path))
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        assert {v["check"] for v in report["verdicts"]} == {
            "replay-valid", "well-founded", "replay-protection",
            "trivial-update-protection", "disjointness",
        }

    def test_duplicate_tx_is_a_violation(self, run_file, tmp_path, capsys):
        sc, prefix, _ = run_file
        steps = list(prefix.annotations)
        # replaying the first tx cannot be valid, so duplicate a tx in a
        # way that fails replay instead: repeat the last (slot, tx) pair
        steps.append(steps[-1])
        text = serialize.dump_run(sc.initial_utxo, steps, sc.genesis_txs)
        path = tmp_path / "dup_run.json"
        path.write_text(text)
        code, stdout, _ = run_cli(capsys, "props", "check", "--run", str(path))
        assert code == EXIT_VIOLATION
        report = read_json(stdout)
        verdicts = {v["check"]: v for v in report["verdicts"]}
        assert not verdicts["replay-valid"]["clean"]


class TestPropsCanon:
    def test_levels_and_presentation(self, run_file, capsys):
        _, prefix, path = run_file
        code, stdout, _ = run_cli(capsys, "props", "canon", "--run", str(path))
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        n = len(prefix.annotations)
        assert len(report["levels"]) == n
        assert sorted(report["canonical_presentation"]) == list(range(n))

    def test_enumerate_includes_canonical(self, run_file, capsys):
        _, _, path = run_file
        code, stdout, _ = run_cli(
            capsys, "props", "canon", "--run", str(path), "--enumerate",
            "--cap", "200",
        )
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        assert report["canonical_presentation"] in report["permutations"]

    def test_eight_tx_worked_example(self, eight_tx, tmp_path, capsys):
        genesis, u0, txs = eight_tx
        text = serialize.dump_run(u0, [(1, t) for t in txs], [genesis])
        path = tmp_path / "eight.json"
        path.write_text(text)
        code, stdout, _ = run_cli(
            capsys, "props", "canon", "--run", str(path), "--enumerate",
            "--cap", "100000",
        )
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        assert report["levels"] == [0, 0, 1, 0, 2, 2, 1, 3]
        assert report["canonical_presentation"] == [0, 1, 3, 2, 6, 4, 5, 7]
        assert [3, 1, 6, 2, 5, 7, 0, 4] in report["permutations"]
        assert not report["capped"]


class TestDecreasingSlots:
    """Steps whose slots go down are a violation in run and trace files."""

    @pytest.fixture
    def steps(self, run_file):
        sc, prefix, _ = run_file
        (_, first), *rest = prefix.annotations
        return sc, prefix, [(50, first)] + rest

    @pytest.mark.parametrize("command", ["check", "canon"])
    def test_run_file(self, steps, command, tmp_path, capsys):
        sc, _, steps = steps
        path = tmp_path / "down_run.json"
        path.write_text(serialize.dump_run(sc.initial_utxo, steps, sc.genesis_txs))
        code, stdout, _ = run_cli(capsys, "props", command, "--run", str(path))
        assert code == EXIT_VIOLATION
        (verdict,) = read_json(stdout)["verdicts"]
        assert verdict["check"] == "replay-valid"
        assert verdict["witness"] == [1, "slots-decreasing"]

    def test_trace_file_agrees(self, steps, tmp_path, capsys):
        sc, prefix, steps = steps
        path = tmp_path / "down_trace.json"
        path.write_text(serialize.dump_trace(
            TracePrefix(prefix.states, steps), sc.genesis_txs, [50]
        ))
        code, stdout, _ = run_cli(capsys, "trace", "validate", str(path))
        assert code == EXIT_VIOLATION
        verdicts = {v["check"]: v for v in read_json(stdout)["verdicts"]}
        assert verdicts["valid-trace"]["witness"] == "slots-decreasing"


@pytest.mark.parametrize("value", [[1], None], ids=["list", "null"])
class TestNonObjectTokenValue:
    """A token value that is not a JSON object is a parse error."""

    def test_trace_validate(self, trace_dir, tmp_path, capsys, value):
        payload = read_json((trace_dir / "trace_000.json").read_text())
        payload["states"][0][0]["output"]["value"] = value
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "trace", "validate", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_props_check(self, run_file, tmp_path, capsys, value):
        payload = read_json(run_file[2].read_text())
        payload["initial"][0]["output"]["value"] = value
        path = tmp_path / "bad_value_run.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "props", "check", "--run", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:")


def _upper_address(entry):
    entry["output"]["address"] = entry["output"]["address"].upper()


def _spaced_address(entry):
    address = entry["output"]["address"]
    entry["output"]["address"] = address[:2] + " " + address[2:]


def _token_spelled_twice(entry):
    entry["output"]["value"].update({"4e4654": 1, "4E4654": 1})


@pytest.mark.parametrize("mutate", [
    _upper_address, _spaced_address, _token_spelled_twice,
], ids=["uppercase", "space", "two-spellings"])
def test_byte_string_not_lowercase_hex_is_a_parse_error(
    trace_dir, tmp_path, capsys, mutate
):
    payload = read_json((trace_dir / "trace_000.json").read_text())
    entry = next(e for e in payload["states"][-1]
                 if e["output"]["address"] != e["output"]["address"].upper())
    mutate(entry)
    path = tmp_path / "bad_hex.json"
    path.write_text(json.dumps(payload))
    code, stdout, err = run_cli(capsys, "trace", "validate", str(path))
    assert code == EXIT_USAGE
    assert stdout == "" and err.startswith("error:")


class TestRepeatedRef:
    """A state or initial state that lists one ref twice is a parse error."""

    ERROR = "error: bad UTxO set: duplicate output ref in UTxO set\n"

    def test_trace_validate(self, trace_dir, tmp_path, capsys):
        payload = read_json((trace_dir / "trace_000.json").read_text())
        state = payload["states"][-1]
        state.append(state[0])
        path = tmp_path / "repeated_ref.json"
        path.write_text(json.dumps(payload))
        code, stdout, err = run_cli(capsys, "trace", "validate", str(path))
        assert (code, stdout, err) == (EXIT_USAGE, "", self.ERROR)

    def test_props_check(self, run_file, tmp_path, capsys):
        payload = read_json(run_file[2].read_text())
        payload["initial"].append(payload["initial"][0])
        path = tmp_path / "repeated_ref_run.json"
        path.write_text(json.dumps(payload))
        code, stdout, err = run_cli(capsys, "props", "check", "--run", str(path))
        assert (code, stdout, err) == (EXIT_USAGE, "", self.ERROR)


@pytest.mark.parametrize("kind, argv", [
    ("trace", ["trace", "validate"]),
    ("run", ["props", "check", "--run"]),
], ids=["trace-validate", "props-check"])
def test_nesting_past_the_parser_limit_is_a_parse_error(
    tmp_path, capsys, kind, argv
):
    field = "states" if kind == "trace" else "initial"
    path = tmp_path / "deep.json"
    head = '{"version":1,"kind":"%s","%s":' % (kind, field)
    path.write_text(head + "[" * 100_000)
    code, stdout, err = run_cli(capsys, *argv, str(path))
    assert code == EXIT_USAGE
    assert stdout == "" and err.startswith("error: not valid JSON: ")
    assert "Traceback" not in err


class TestNonWellFoundedStart:
    """A start state that already holds a ref some transaction creates."""

    def write_run(self, tmp_path, u0, txs):
        path = tmp_path / "nwf_run.json"
        path.write_text(serialize.dump_run(u0, [(0, t) for t in txs]))
        return str(path)

    def test_validate_reports_collision(self, non_well_founded, tmp_path, capsys):
        u0, (_, t1) = non_well_founded
        path = tmp_path / "nwf_trace.json"
        path.write_text(serialize.dump_trace(TracePrefix((u0, u0), ((0, t1),))))
        code, stdout, _ = run_cli(capsys, "trace", "validate", str(path))
        assert code == EXIT_VIOLATION
        (verdict,) = read_json(stdout)["verdicts"]
        assert verdict["witness"] == "step-0-created-collides"

    def test_check_reports_collision(self, non_well_founded, tmp_path, capsys):
        u0, (_, t1) = non_well_founded
        path = self.write_run(tmp_path, u0, [t1])
        code, stdout, _ = run_cli(capsys, "props", "check", "--run", path)
        assert code == EXIT_VIOLATION
        (verdict,) = read_json(stdout)["verdicts"]
        assert verdict["check"] == "replay-valid"
        assert verdict["witness"] == [0, "created-collides"]

    def test_check_reports_disjointness_as_json(
        self, non_well_founded, tmp_path, capsys
    ):
        u0, txs = non_well_founded
        path = self.write_run(tmp_path, u0, txs)
        code, stdout, _ = run_cli(capsys, "props", "check", "--run", path)
        assert code == EXIT_VIOLATION
        verdicts = {v["check"]: v for v in read_json(stdout)["verdicts"]}
        assert verdicts["replay-valid"]["clean"]
        assert verdicts["disjointness"]["witness"] == ["created-overlap", "u0", "c1"]

    def test_canon_levels_follow_dependencies(
        self, non_well_founded, tmp_path, capsys
    ):
        u0, txs = non_well_founded
        path = self.write_run(tmp_path, u0, txs)
        code, stdout, _ = run_cli(capsys, "props", "canon", "--run", path)
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        assert report["levels"] == [1, 0]
        assert report["canonical_presentation"] == [1, 0]

    def test_enumerate_drops_colliding_order(
        self, non_well_founded, tmp_path, capsys
    ):
        u0, txs = non_well_founded
        path = self.write_run(tmp_path, u0, txs)
        code, stdout, _ = run_cli(
            capsys, "props", "canon", "--run", path, "--enumerate"
        )
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        assert report["permutations"] == []
        assert not report["capped"]


class TestContractCommands:
    def test_list(self, capsys):
        code, stdout, _ = run_cli(capsys, "contract", "list")
        assert code == EXIT_CLEAN
        assert "nft" in read_json(stdout)["contracts"]

    def test_unknown_contract_is_usage_error(
        self, trace_dir, tmp_path, monkeypatch, capsys
    ):
        err = refused(
            capsys, monkeypatch, tmp_path, "contract", "check", "--name", "nope",
            "--traces", str(trace_dir / "trace_000.json"), "--induce",
        )
        assert "error: argument --name: invalid choice: 'nope'" in err

    def test_unreadable_file_after_a_good_one_is_usage_error(self, trace_dir, capsys):
        code, stdout, stderr = run_cli(
            capsys, "contract", "check", "--name", "nft", "--traces",
            str(trace_dir / "trace_000.json"), str(trace_dir / "missing.json"),
        )
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith("error: cannot read ")

    def test_check_induce_nonexpanding(self, tmp_path, capsys):
        token = b"NFT".hex()
        gen_dir = tmp_path / "nft_traces"
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "6", "--depth", "4",
            "--count", "3", "--token", token, "--out", str(gen_dir),
        )
        assert code == EXIT_CLEAN
        traces = sorted(str(p) for p in gen_dir.glob("trace_*.json"))
        induced_dir = tmp_path / "induced"
        code, stdout, _ = run_cli(
            capsys, "contract", "check", "--name", "nft", "--token", token,
            "--traces", *traces, "--induce", "--nonexpanding",
            "--out", str(induced_dir),
        )
        assert code == EXIT_CLEAN
        report = read_json(stdout)
        checks = {v["check"]: v for v in report["verdicts"]}
        assert checks["step-correctness"]["clean"]
        assert checks["non-expanding"]["clean"]
        assert report["steps_checked"] > 0
        induced = sorted(p.name for p in induced_dir.iterdir())
        assert induced == [
            "contract_trace_000.json", "contract_trace_001.json",
            "contract_trace_002.json",
        ]
        payload = read_json((induced_dir / induced[0]).read_text())
        assert payload["kind"] == "contract-trace"
        assert all(s in (0, 1) for s in payload["states"])


class TestOneProjection:
    """``contract check`` projects each trace once, and reads every verdict
    and every written file off that one image."""

    @pytest.fixture
    def nft_traces(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "6", "--depth", "8", "--count", "12",
            "--outputs", "12", "--token", "4e4654", "--out", str(tmp_path / "gen"),
        )
        assert code == EXIT_CLEAN
        paths = sorted(str(p) for p in (tmp_path / "gen").glob("trace_*.json"))
        return paths, [serialize.load_trace(Path(p).read_text())[0] for p in paths]

    def check(self, capsys, tmp_path, paths, *flags):
        return run_cli(
            capsys, "contract", "check", "--name", "nft", "--token", "4e4654",
            "--traces", *paths, *flags, "--out", str(tmp_path / "induced"),
        )

    def test_pi_once_per_state_and_kappa_once_per_step(
        self, nft_traces, tmp_path, capsys, monkeypatch
    ):
        calls = {"pi": 0, "kappa": 0}

        def counted(name, f):
            def wrapper(arg):
                calls[name] += 1
                return f(arg)
            return wrapper

        def contract(token):
            sc = nft_contract(token)
            return dataclasses.replace(
                sc, pi=counted("pi", sc.pi), kappa=counted("kappa", sc.kappa))

        monkeypatch.setitem(cli.CONTRACTS, "nft", contract)
        paths, traces = nft_traces
        code, _, _ = self.check(capsys, tmp_path, paths, "--nonexpanding", "--induce")
        assert code == EXIT_CLEAN
        assert calls == {"pi": sum(len(t.states) for t in traces),
                         "kappa": sum(len(t.annotations) for t in traces)}

    @pytest.fixture
    def partial(self, nft_traces, monkeypatch):
        """The NFT contract undefined on the last state of trace 3."""
        _, traces = nft_traces
        hole = traces[3].states[-1]

        def contract(token):
            sc = nft_contract(token)
            return dataclasses.replace(
                sc, pi=lambda u: None if u == hole else sc.pi(u))

        monkeypatch.setitem(cli.CONTRACTS, "nft", contract)
        return [k for k, t in enumerate(traces) if hole in t.states], hole

    def test_induce_stops_at_the_first_hole(
        self, nft_traces, partial, tmp_path, capsys
    ):
        paths, traces = nft_traces
        holed, hole = partial
        code, stdout, stderr = self.check(capsys, tmp_path, paths, "--induce")
        assert code == EXIT_USAGE and stdout == ""
        first = traces[holed[0]].states.index(hole)
        assert stderr == "error: state %d outside the projection domain\n" % first
        # every image is checked before the output directory is made
        assert not (tmp_path / "induced").exists()

    def test_nonexpanding_skips_the_pairs_with_a_hole(
        self, nft_traces, partial, tmp_path, capsys, monkeypatch
    ):
        paths, traces = nft_traces
        holed, _ = partial
        reports = []

        def spy(*args):
            reports.append(check_non_expanding(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "check_non_expanding", spy)
        code, stdout, _ = self.check(capsys, tmp_path, paths, "--nonexpanding")
        assert code == EXIT_VIOLATION
        report = read_json(stdout)
        assert {v["check"]: v["clean"] for v in report["verdicts"]} == {
            "step-correctness": False, "non-expanding": True}
        kept = [p for k, p in enumerate(paths) if k not in holed]
        _, stdout, _ = self.check(capsys, tmp_path, kept, "--nonexpanding")
        n = len(paths)
        affected = n * (n - 1) // 2 - len(kept) * (len(kept) - 1) // 2
        assert report["pairs_checked"] == read_json(stdout)["pairs_checked"]
        assert reports[0].pairs_checked == report["pairs_checked"]
        assert reports[0].pairs_skipped == reports[1].pairs_skipped + affected


class TestGraphDump:
    def test_writes_both_graphs(self, tmp_path, capsys):
        out = tmp_path / "graphs"
        code, stdout, _ = run_cli(
            capsys, "graph", "dump", "--seed", "3", "--depth", "3",
            "--out", str(out),
        )
        assert code == EXIT_CLEAN
        summary = read_json(stdout)
        lam = read_json((out / "lambda.json").read_text())
        prime = read_json((out / "lambda_prime.json").read_text())
        assert lam["kind"] == "graph" and prime["kind"] == "graph"
        assert len(lam["vertices"]) == summary["lambda_vertices"]
        assert len(prime["vertices"]) == summary["lambda_prime_vertices"]
        assert serialize.digest(
            (out / "lambda.json").read_text()
        ) == summary["lambda_digest"]

    @pytest.mark.parametrize("seed, depth, lam_digest, prime_digest", [
        ("3", "3",
         "69db2e6e366a93ce70c372246bc60b75ada03e4ac038b09278659d10bb3f21e0",
         "7f19f4a929dfa28501d416a79e6ae313de79c1faac9bc970f8a545d3c3c6a323"),
        ("1", "5",
         "3ea4d47117f1b3a85b14fc278de5d4954f4bca33b6ace085bfa2125d7c35786a",
         "fff2348314aa4c02c0785efc1489d4618b137346f33d8f5c3fd4232094d5e91c"),
        ("0", "25",
         "9137b39d2ccbf31d4bd3e179dee085c97faf60e541548385c8a85718ee7a0709",
         "e8e16818284120c025386b2fee6ee03454f7ad63bda6d4ca84416069ddc72767"),
        ("0", "40",
         "212e6e780ff442908e021ddcc910c1c7194bd7807e0dade2c29e598206ca0db6",
         "bc3b4ee72e4250f3dd1af71c68ca96c883ac1dab5f91dfcbbdbe23919350b57b"),
    ])
    def test_pinned_digests(
        self, tmp_path, capsys, seed, depth, lam_digest, prime_digest
    ):
        code, stdout, _ = run_cli(
            capsys, "graph", "dump", "--seed", seed, "--depth", depth,
            "--out", str(tmp_path),
        )
        assert code == EXIT_CLEAN
        summary = read_json(stdout)
        assert summary["lambda_digest"] == lam_digest
        assert summary["lambda_prime_digest"] == prime_digest

    def test_deterministic(self, tmp_path, capsys):
        digests = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            _, stdout, _ = run_cli(
                capsys, "graph", "dump", "--seed", "4", "--out", str(out)
            )
            digests.append(read_json(stdout)["lambda_digest"])
        assert digests[0] == digests[1]


class TestPinnedBytes:
    """Digests of CLI output that any change must reproduce byte for byte."""

    @pytest.mark.parametrize("seed, cap, stdout_digest", [
        (0, 50, "2158b4d7359920761b8eba76bcb7f15836adae43a9ce7b3d34f04a4f874086da"),
        (0, 400, "c45ee46d6c111dffce8e8c6563b071e4b5a2638130ceec5c999eaca2251b0790"),
        (1, 50, "396afbf69f2225b910f72d263beee0e75442ef14b0bcb79de069c7cc7dd9ef45"),
        (1, 400, "25e6031f5937914260549d90553db597f0a2a2fbe4eab22e040a36868e833bcb"),
        (2, 50, "9a5a7faacff27f35d14e40d11a56e197abdf519fd2afadd358eeaf5c529ef6f1"),
        (2, 400, "fed78020f00ad1d4bd933c46ec7f14f77dc53897eb9ea620dcd76f2a05641410"),
    ])
    def test_props_canon_enumerate(self, tmp_path, capsys, seed, cap, stdout_digest):
        sc = make_scenario(seed, n_outputs=40)
        prefix = gen_traces(sc, depth=31, count=1, seed=seed)[0]
        path = tmp_path / "run.json"
        path.write_text(
            serialize.dump_run(sc.initial_utxo, prefix.annotations, sc.genesis_txs)
        )
        code, stdout, _ = run_cli(
            capsys, "props", "canon", "--run", str(path), "--enumerate",
            "--cap", str(cap),
        )
        assert code == EXIT_CLEAN
        assert serialize.digest(stdout) == stdout_digest

    @pytest.mark.parametrize("seed, manifest_digest", [
        (0, "2d6fd7f457ba0595cbd84320afa9322ab5179c5f599a33d36b737847d8c8296b"),
        (1, "9a02755fe8ac0d7b14f1a30b792673239de051c4d30fa9bd049e3d5be72a8ae7"),
        (2, "d623495737a95fa09f3ed318d16280b90bb5c9b42dd3ee9d2598b8202977d9a0"),
        (3, "f15b6311675fc659660e2b5dc7c439db9fc348356d08c963eb1fa0b8e5ef1c43"),
    ])
    def test_trace_gen_with_token(self, tmp_path, capsys, seed, manifest_digest):
        code, stdout, _ = run_cli(
            capsys, "trace", "gen", "--seed", str(seed), "--depth", "10",
            "--count", "10", "--outputs", "16", "--token", "4e4654",
            "--out", str(tmp_path),
        )
        assert code == EXIT_CLEAN
        assert read_json(stdout) == {"manifest_digest": manifest_digest,
                                     "written": 10}

    # the manifest holds each file's digest, so it pins every file's bytes
    @pytest.mark.parametrize("shape, seed, manifest_digest", [
        ((30, 5, 4), 0, "7c59290702a4293e541eaefedf71737691f64b34b16400ae832332f4631df7bc"),
        ((30, 5, 4), 1, "961ffe014257b2e964028b3e9dd431c2f36ea6571b670ee63739d0522ab09027"),
        ((30, 5, 4), 2, "f639f6bb8008f44cf532e4eb96ebc36ab2e10c326ab4098dd78f4529ce982f32"),
        ((8, 40, 1), 0, "b3ea9b74face589c54ab6362aa5960296e930943807ecfb2c37d98f2e48693e8"),
        ((8, 40, 1), 1, "7780e67f58eb4beae69d40aece1692d3fafdbc6b8057923f0c8a4c4d45b6ffd5"),
        ((8, 40, 1), 2, "e9ab8da57ad24209e64d8fb143281f8d5c3fb4740ec7ad8f554123d26e9d5678"),
    ])
    def test_trace_gen(self, tmp_path, capsys, shape, seed, manifest_digest):
        outputs, depth, count = shape
        code, stdout, _ = run_cli(
            capsys, "trace", "gen", "--seed", str(seed), "--outputs", str(outputs),
            "--depth", str(depth), "--count", str(count), "--out", str(tmp_path),
        )
        assert code == EXIT_CLEAN
        assert read_json(stdout) == {"manifest_digest": manifest_digest,
                                     "written": count}

    def test_trace_validate_and_props_check(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "3", "--outputs", "30", "--depth", "5",
            "--count", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_CLEAN
        trace = tmp_path / "trace_000.json"
        code, stdout, _ = run_cli(capsys, "trace", "validate", str(trace))
        assert code == EXIT_CLEAN
        assert serialize.digest(stdout) == (
            "a1f436dd1baaa80922f51c1a2eb46849bc5a321c8da76c1350cb00217f99c6a7")
        prefix, genesis, _ = serialize.load_trace(trace.read_text())
        run = tmp_path / "run.json"
        run.write_text(serialize.dump_run(prefix.states[0], prefix.annotations, genesis))
        code, stdout, _ = run_cli(capsys, "props", "check", "--run", str(run))
        assert code == EXIT_CLEAN
        assert serialize.digest(stdout) == (
            "2ee48a20041404b0865143e5b2dbcc3df7e27806730ce937a51057268b7c0087")

    @pytest.mark.parametrize("mutant, exit_code, stdout_digest, induced_digest", [
        (False, EXIT_CLEAN,
         "9bbe5ea30db5980f68c101ca3f75f43632676e6a1afd725cffe0259b8c0626cb",
         "56148066b7aba562949cb81cf9cf2f493e5eac99a70efd9e92c102d5c4522186"),
        (True, EXIT_VIOLATION,
         "23466e4c01cc815871ed0bfe5d0ba9702f61b47b6c0f358f4418c16f2154b5d7",
         "b25f89b909d69c91bd9d06793c13790d17d9e238817e0f17ee31ad4ae01824b1"),
    ])
    def test_contract_check(self, tmp_path, capsys, mutant, exit_code,
                            stdout_digest, induced_digest):
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "6", "--depth", "8", "--count", "12",
            "--outputs", "12", "--token", "4e4654", "--out", str(tmp_path / "gen"),
        )
        assert code == EXIT_CLEAN
        traces = sorted(str(p) for p in (tmp_path / "gen").glob("trace_*.json"))
        if mutant:
            # one more token in the last state breaks the last step
            traces.append(str(add_token_to_last_state(
                Path(traces[0]), tmp_path / "mutant.json", "4e4654")))
        code, stdout, _ = run_cli(
            capsys, "contract", "check", "--name", "nft", "--token", "4e4654",
            "--traces", *traces, "--nonexpanding", "--induce",
            "--out", str(tmp_path / "induced"),
        )
        assert code == exit_code
        assert serialize.digest(stdout) == stdout_digest
        induced = sorted((tmp_path / "induced").iterdir())
        assert [p.name for p in induced] == [
            "contract_trace_%03d.json" % k for k in range(len(traces))]
        combined = hashlib.sha256()
        for path in induced:
            combined.update(hashlib.sha256(path.read_bytes()).digest())
        assert combined.hexdigest() == induced_digest


def add_token_to_last_state(source: Path, target: Path, token: str) -> Path:
    """Copy a trace file with one more ``token`` in its last state's first entry."""
    trace = read_json(source.read_text())
    value = trace["states"][-1][0]["output"]["value"]
    value[token] = value.get(token, 0) + 1
    target.write_text(json.dumps(trace))
    return target


def assert_json_witness(witness):
    """A witness is null, a string, an integer or a list of such values."""
    if isinstance(witness, list):
        for item in witness:
            assert_json_witness(item)
    else:
        assert witness is None or type(witness) in (str, int), witness


class TestVerdictShape:
    """Every verdict of every checking command, clean or violated, has the
    keys check, clean and witness, and nothing else."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "6", "--depth", "4", "--count", "1",
            "--token", "4e4654", "--out", str(gen),
        )
        assert code == EXIT_CLEAN
        trace = gen / "trace_000.json"
        prefix, genesis, slots = serialize.load_trace(trace.read_text())
        files = {
            "trace": trace,
            "broken": add_token_to_last_state(
                trace, tmp_path / "broken.json", "4e4654"),
        }
        for name, text in (
            ("repeated", serialize.dump_trace(repeated_tail(prefix), genesis, slots)),
            ("run", serialize.dump_run(prefix.states[0], prefix.annotations, genesis)),
            ("replayed", serialize.dump_run(
                prefix.states[0], prefix.annotations + prefix.annotations[-1:],
                genesis)),
        ):
            files[name] = tmp_path / ("%s.json" % name)
            files[name].write_text(text)
        return files

    MONITOR = ("--monitor", "duplicate-tx")
    CONTRACT = ("--name", "nft", "--nonexpanding", "--traces")

    @pytest.mark.parametrize("argv, exit_code", [
        pytest.param(("trace", "validate", "{trace}"), EXIT_CLEAN,
                     id="validate-clean"),
        pytest.param(("trace", "validate", "{broken}"), EXIT_VIOLATION,
                     id="validate-violated"),
        pytest.param(("trace", "monitor", "{trace}", *MONITOR), EXIT_CLEAN,
                     id="monitor-clean"),
        pytest.param(("trace", "monitor", "{repeated}", *MONITOR), EXIT_VIOLATION,
                     id="monitor-violated"),
        pytest.param(("props", "check", "--run", "{run}"), EXIT_CLEAN,
                     id="check-clean"),
        pytest.param(("props", "check", "--run", "{replayed}"), EXIT_VIOLATION,
                     id="check-violated"),
        pytest.param(("props", "canon", "--run", "{run}"), EXIT_CLEAN,
                     id="canon-clean"),
        pytest.param(("props", "canon", "--run", "{replayed}"), EXIT_VIOLATION,
                     id="canon-violated"),
        pytest.param(("contract", "check", *CONTRACT, "{trace}"), EXIT_CLEAN,
                     id="contract-clean"),
        pytest.param(("contract", "check", *CONTRACT, "{broken}"), EXIT_VIOLATION,
                     id="contract-violated"),
    ])
    def test_each_verdict_is_check_clean_witness(
        self, files, capsys, argv, exit_code
    ):
        args = [a.format(**{k: str(p) for k, p in files.items()}) for a in argv]
        code, stdout, _ = run_cli(capsys, *args)
        assert code == exit_code
        verdicts = read_json(stdout)["verdicts"]
        assert verdicts
        for verdict in verdicts:
            assert set(verdict) == {"check", "clean", "witness"}
            assert type(verdict["check"]) is str
            assert type(verdict["clean"]) is bool
            assert_json_witness(verdict["witness"])
        violated = [v["check"] for v in verdicts if not v["clean"]]
        assert bool(violated) == (exit_code == EXIT_VIOLATION)


class TestSizesBelowOne:
    """A size below 1 is a usage error, as ``--depth 0`` is."""

    @pytest.mark.parametrize("flag, value", [
        ("--outputs", "0"), ("--outputs", "-3"), ("--count", "0"),
        ("--count", "-2"),
    ])
    def test_trace_gen(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gen"
        code, stdout, err = run_cli(
            capsys, "trace", "gen", "--seed", "1", flag, value, "--out", str(out)
        )
        assert code == EXIT_USAGE
        assert stdout == "" and "must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_graph_dump_writes_nothing(self, tmp_path, capsys, depth):
        out = tmp_path / "graphs"
        code, stdout, err = run_cli(
            capsys, "graph", "dump", "--seed", "1", "--depth", depth, "--out", str(out)
        )
        assert code == EXIT_USAGE
        assert stdout == "" and "must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_props_canon_cap(self, run_file, capsys, cap):
        _, _, path = run_file
        code, stdout, err = run_cli(
            capsys, "props", "canon", "--run", str(path), "--enumerate",
            "--cap", cap,
        )
        assert code == EXIT_USAGE
        assert stdout == "" and err.endswith(
            "error: argument --cap: cap must be an integer >= 1: %r\n" % cap)

    @pytest.mark.parametrize("cap", ["0", "-1", "x", "1.5"])
    @pytest.mark.parametrize("run, enumerate", [("clean", False), ("replayed", True)])
    def test_props_canon_cap_is_refused_on_every_run(
        self, run_file, tmp_path, capsys, cap, run, enumerate
    ):
        sc, prefix, path = run_file
        if run == "replayed":
            path = tmp_path / "replayed.json"
            path.write_text(serialize.dump_run(
                sc.initial_utxo, prefix.annotations + prefix.annotations[-1:],
                sc.genesis_txs))
            code, _, _ = run_cli(capsys, "props", "canon", "--run", str(path))
            assert code == EXIT_VIOLATION
        argv = ["props", "canon", "--run", str(path), "--cap", cap]
        code, stdout, err = run_cli(capsys, *argv + ["--enumerate"] * enumerate)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err.count("error:") == 1 and "argument --cap" in err


#: each reading command, given the trace files and the run file
READING_COMMANDS = {
    "trace validate": lambda traces, run: ["trace", "validate", traces[0]],
    "trace dist": lambda traces, run: ["trace", "dist", traces[0], traces[1]],
    "trace monitor": lambda traces, run: [
        "trace", "monitor", traces[0], "--monitor", "utxo-empty"],
    "props check": lambda traces, run: ["props", "check", "--run", run],
    "props canon": lambda traces, run: ["props", "canon", "--run", run],
    "contract check": lambda traces, run: [
        "contract", "check", "--name", "nft", "--traces", *traces],
}

#: each writing command, given a trace file
WRITING_COMMANDS = {
    "trace gen": lambda trace: ["trace", "gen", "--seed", "1", "--count", "1"],
    "graph dump": lambda trace: ["graph", "dump", "--seed", "1"],
    "contract check --induce": lambda trace: [
        "contract", "check", "--name", "nft", "--traces", trace, "--induce"],
}

#: the first file each writing command writes
FIRST_WRITTEN = {
    "trace gen": "trace_000.json",
    "graph dump": "lambda.json",
    "contract check --induce": "contract_trace_000.json",
}


class TestFileBoundary:
    @pytest.fixture
    def inputs(self, trace_dir, run_file):
        return sorted(str(p) for p in trace_dir.glob("trace_*.json")), str(run_file[2])

    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    def test_report_digests_the_input_texts(self, command, inputs, capsys):
        argv = READING_COMMANDS[command](*inputs)
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == EXIT_CLEAN
        # sha256 over the per-file sha256 digests, in argument order
        per_file = (hashlib.sha256(Path(a).read_bytes()).digest()
                    for a in argv if a.endswith(".json"))
        expected = hashlib.sha256(b"".join(per_file)).hexdigest()
        assert read_json(stdout)["inputs_digest"] == expected

    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    def test_digest_is_of_the_file_bytes(self, command, inputs, tmp_path, capsys):
        argv = READING_COMMANDS[command](*inputs)
        last = max(k for k, a in enumerate(argv) if a.endswith(".json"))
        lf = Path(argv[last])
        # an LF UTF-8 file keeps the digest of its decoded text
        text_digest = hashlib.sha256(lf.read_text(encoding="utf-8").encode("utf-8"))
        assert text_digest.digest() == hashlib.sha256(lf.read_bytes()).digest()
        code, stdout, _ = run_cli(capsys, *argv)
        lf_report = read_json(stdout)
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        argv[last] = str(crlf)
        crlf_code, stdout, _ = run_cli(capsys, *argv)
        crlf_report = read_json(stdout)
        assert crlf_code == code == EXIT_CLEAN
        assert crlf_report.pop("inputs_digest") != lf_report.pop("inputs_digest")
        assert crlf_report == lf_report

    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    def test_non_utf8_input_is_a_usage_error(self, command, inputs, tmp_path, capsys):
        argv = READING_COMMANDS[command](*inputs)
        last = max(k for k, a in enumerate(argv) if a.endswith(".json"))
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(Path(argv[last]).read_bytes().replace(b'"', b'"\xe9', 1))
        argv[last] = str(latin1)
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr.startswith("error: cannot decode ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    def test_missing_input_is_a_usage_error(self, command, inputs, tmp_path, capsys):
        argv = READING_COMMANDS[command](*inputs)
        last = max(k for k, a in enumerate(argv) if a.endswith(".json"))
        argv[last] = str(tmp_path / "missing.json")
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr.startswith("error: cannot read ")

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    @pytest.mark.parametrize("via", ["out-is-a-file", "out-below-a-file", "env-is-a-file"])
    def test_unusable_output_path_is_a_usage_error(
        self, command, via, inputs, tmp_path, monkeypatch, capsys
    ):
        blocker = tmp_path / "a_file"
        blocker.write_text("x")
        argv = WRITING_COMMANDS[command](inputs[0][0])
        if via == "env-is-a-file":
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(blocker))
        else:
            below = via == "out-below-a-file"
            argv += ["--out", str(blocker / "sub" if below else blocker)]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr.startswith("error: cannot write ")
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_output_name_taken_by_a_directory_is_a_usage_error(
        self, command, inputs, tmp_path, capsys
    ):
        out = tmp_path / "out"
        (out / FIRST_WRITTEN[command]).mkdir(parents=True)
        argv = WRITING_COMMANDS[command](inputs[0][0]) + ["--out", str(out)]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr.startswith("error: cannot write ")
        assert [p.name for p in out.iterdir()] == [FIRST_WRITTEN[command]]

    def test_empty_initial_slots_admit_any_first_slot(self, trace_dir, tmp_path, capsys):
        payload = read_json((trace_dir / "trace_000.json").read_text())
        first = payload["lifts"][0][0]
        checks = {}
        for slots in ([], [first + 1]):
            path = tmp_path / "slots.json"
            path.write_text(json.dumps(dict(payload, initial_slots=slots)))
            code, stdout, _ = run_cli(capsys, "trace", "validate", str(path))
            verdicts = {v["check"]: v for v in read_json(stdout)["verdicts"]}
            checks[code] = verdicts["valid-trace"]["witness"]
        assert checks == {EXIT_CLEAN: None, EXIT_VIOLATION: "not-initial-slot"}


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_group(self, capsys):
        assert run_cli(capsys, "bogus")[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_CLEAN

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        # an invariant breach (RuntimeError) is one more internal error
        for error in (ZeroDivisionError, RuntimeError):
            def broken(args):
                raise error("boom")

            monkeypatch.setattr(cli, "cmd_contract_list", broken)
            code, _, err = run_cli(capsys, "contract", "list")
            assert code == EXIT_INTERNAL
            assert err == "internal error: %s: boom\n" % error.__name__

    @pytest.fixture
    def collector_on(self):
        enabled = gc.isenabled()
        gc.enable()
        yield
        if not enabled:
            gc.disable()

    def test_handler_runs_with_the_collector_paused(
        self, collector_on, monkeypatch, capsys
    ):
        seen = []
        monkeypatch.setattr(
            cli, "cmd_contract_list", lambda args: seen.append(gc.isenabled()) or 0)
        assert run_cli(capsys, "contract", "list")[0] == EXIT_CLEAN
        assert seen == [False]

    @pytest.mark.parametrize("outcome, expected", [
        (lambda: EXIT_CLEAN, EXIT_CLEAN),
        (lambda: EXIT_VIOLATION, EXIT_VIOLATION),
        (serialize.FormatError("bad"), EXIT_USAGE),
        (RuntimeError("boom"), EXIT_INTERNAL),
    ], ids=["clean", "violation", "format-error", "internal"])
    def test_collector_is_back_on_after_every_exit(
        self, outcome, expected, collector_on, monkeypatch, capsys
    ):
        def handler(args):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome()

        monkeypatch.setattr(cli, "cmd_contract_list", handler)
        assert run_cli(capsys, "contract", "list")[0] == expected
        assert gc.isenabled()

    def test_collector_is_back_on_after_a_usage_error(self, collector_on, capsys):
        assert run_cli(capsys, "contract", "bogus")[0] == EXIT_USAGE
        assert gc.isenabled()

    def test_a_paused_collector_stays_paused(self, collector_on, capsys):
        gc.disable()
        assert run_cli(capsys, "contract", "list")[0] == EXIT_CLEAN
        assert not gc.isenabled()

    @pytest.mark.parametrize("command", ["trace gen", "contract check"])
    def test_non_hex_token_is_a_usage_error(
        self, command, trace_dir, tmp_path, monkeypatch, capsys
    ):
        argv = {
            "trace gen": ["trace", "gen", "--seed", "1", "--token", "zz"],
            "contract check": [
                "contract", "check", "--name", "nft", "--token", "4e465",
                "--traces", str(trace_dir / "trace_000.json"), "--induce"],
        }[command]
        err = refused(capsys, monkeypatch, tmp_path, *argv)
        assert "error: argument --token: invalid fromhex value" in err


def cyclic_garbage(capsys, *argv):
    """The exit code of ``argv`` and the objects it left in reference cycles:
    it runs with the collector off and saving what it finds, then collects."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(list(argv))
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    return code, garbage


def ledgerlab_objects(garbage):
    return [o for o in garbage
            if (type(o).__module__ or "").split(".")[0] == "ledgerlab"]


class TestNoCycles:
    """Ledger values form no reference cycles, which is what makes it safe for
    ``main`` to pause the cycle collector: refcounting frees them all."""

    @pytest.fixture
    def inputs(self, run_file, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "gen", "--seed", "6", "--depth", "3", "--count", "20",
            "--token", "4e4654", "--out", str(tmp_path / "gen"))
        assert code == EXIT_CLEAN
        traces = sorted(str(p) for p in (tmp_path / "gen").glob("trace_*.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        return {"traces": traces, "run": str(run_file[2]), "broken": str(broken),
                "out": str(tmp_path / "out")}

    COMMANDS = {
        "trace gen": lambda i: [
            "trace", "gen", "--seed", "1", "--count", "2", "--out", i["out"]],
        "trace validate": lambda i: ["trace", "validate", i["traces"][0]],
        "trace dist": lambda i: ["trace", "dist", *i["traces"][:2]],
        "trace monitor": lambda i: [
            "trace", "monitor", i["traces"][0], "--monitor", "utxo-empty"],
        "props check": lambda i: ["props", "check", "--run", i["run"]],
        "props canon --enumerate": lambda i: [
            "props", "canon", "--run", i["run"], "--enumerate"],
        "contract check --induce --nonexpanding": lambda i: [
            "contract", "check", "--name", "nft", "--token", "4e4654",
            "--traces", *i["traces"][:2], "--induce", "--nonexpanding",
            "--out", i["out"]],
        "graph dump": lambda i: ["graph", "dump", "--seed", "1", "--out", i["out"]],
        "unreadable input": lambda i: ["trace", "validate", i["broken"]],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_ledger_value_is_cyclic_garbage(self, command, inputs, capsys):
        code, garbage = cyclic_garbage(capsys, *self.COMMANDS[command](inputs))
        assert code == (EXIT_USAGE if command == "unreadable input" else EXIT_CLEAN)
        assert ledgerlab_objects(garbage) == []

    def test_cyclic_garbage_does_not_grow_with_the_input(self, inputs, capsys):
        counts = []
        for n in (2, 20):
            code, garbage = cyclic_garbage(
                capsys, "contract", "check", "--name", "nft", "--token", "4e4654",
                "--traces", *inputs["traces"][:n])
            assert code == EXIT_CLEAN
            counts.append(len(garbage))
        assert counts[0] == counts[1]


#: a command of each kind of stdout: a report, a digest line, a list
CLOSED_STDOUT_COMMANDS = {
    "trace validate": lambda traces, run, out: ["trace", "validate", traces[0]],
    "trace dist": lambda traces, run, out: ["trace", "dist", traces[0], traces[1]],
    "props canon --enumerate": lambda traces, run, out: [
        "props", "canon", "--run", run, "--enumerate"],
    "contract list": lambda traces, run, out: ["contract", "list"],
    "trace gen": lambda traces, run, out: [
        "trace", "gen", "--seed", "1", "--count", "1", "--out", out],
    "graph dump": lambda traces, run, out: ["graph", "dump", "--seed", "1",
                                            "--out", out],
}


class TestClosedStdout:
    """A stdout whose reader has gone cannot be written: a usage error, told
    in one line, with no second error when the interpreter exits."""

    @pytest.mark.parametrize("name", sorted(CLOSED_STDOUT_COMMANDS))
    def test_exits_2(self, trace_dir, run_file, tmp_path, name):
        traces = [str(trace_dir / ("trace_%03d.json" % k)) for k in range(2)]
        argv = CLOSED_STDOUT_COMMANDS[name](traces, str(run_file[2]),
                                            str(tmp_path / "out"))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ledgerlab.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1


class TestParserReuse:
    """``main`` builds its parser once per process and dispatches by name."""

    def test_sequence_matches_fresh_processes(
        self, trace_dir, run_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        traces = [str(trace_dir / ("trace_%03d.json" % k)) for k in range(3)]
        sequence = [
            ["props", "check"],
            ["--help"],
            ["trace", "monitor", traces[0], "--monitor", "nope"],
            ["trace", "validate", str(bad)],
            ["trace", "validate", traces[0]],
            ["trace", "dist", traces[0], traces[1]],
            ["props", "check", "--run", str(run_file[2])],
            ["contract", "check", "--name", "nft", "--traces", *traces,
             "--nonexpanding"],
            ["contract", "list"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        cli._parser.cache_clear()
        for argv in sequence:
            fresh = subprocess.run(
                [sys.executable, "-m", "ledgerlab.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert run_cli(capsys, *argv) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(sequence) - 1)

    def test_every_subcommand_has_a_handler(self):
        def choices(parser):
            [sub] = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
            return sub.choices

        names = [
            "cmd_%s_%s" % (group, command)
            for group, group_parser in choices(cli.build_parser()).items()
            for command in choices(group_parser)
        ]
        assert len(names) == 9
        assert all(callable(getattr(cli, name, None)) for name in names), names
