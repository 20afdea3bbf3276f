import json

import pytest

from conftest import gen_traces
from ledgerlab import cli, serialize
from ledgerlab.cli import (
    EXIT_CLEAN,
    EXIT_INTERNAL,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from ledgerlab.gen import make_scenario
from ledgerlab.traces import TracePrefix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(text):
    return json.loads(text)


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

    def test_seed_changes_bytes(self, tmp_path, capsys):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / ("s" + seed)
            run_cli(capsys, "trace", "gen", "--seed", seed, "--out", str(out))
            blobs.append((out / "trace_000.json").read_bytes())
        assert blobs[0] != blobs[1]


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


class TestTraceMonitor:
    def test_clean_monitor(self, trace_dir, capsys):
        code, stdout, _ = run_cli(
            capsys, "trace", "monitor", str(trace_dir / "trace_000.json"),
            "--monitor", "duplicate-state",
        )
        assert code == EXIT_CLEAN

    def test_unknown_monitor_is_usage_error(self, trace_dir, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "monitor", str(trace_dir / "trace_000.json"),
            "--monitor", "nope",
        )
        assert code == EXIT_USAGE

    def test_violated_monitor(self, tmp_path, capsys):
        sc = make_scenario(5)
        prefix = gen_traces(sc, depth=4, count=1, seed=5)[0]
        states = list(prefix.states) + [prefix.states[0]]
        ann = list(prefix.annotations) + [prefix.annotations[-1]]
        bad = serialize.dump_trace(TracePrefix(tuple(states), tuple(ann)))
        path = tmp_path / "dup.json"
        path.write_text(bad)
        code, stdout, _ = run_cli(
            capsys, "trace", "monitor", str(path), "--monitor", "duplicate-state"
        )
        assert code == EXIT_VIOLATION
        report = read_json(stdout)
        assert report["verdicts"][0]["witness"] == len(states) - 1


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

    def test_unknown_contract_is_usage_error(self, trace_dir, capsys):
        code, _, _ = run_cli(
            capsys, "contract", "check", "--name", "nope",
            "--traces", str(trace_dir / "trace_000.json"),
        )
        assert code == EXIT_USAGE

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


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_group(self, capsys):
        assert run_cli(capsys, "bogus")[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_CLEAN

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        def broken(args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "cmd_contract_list", broken)
        code, _, err = run_cli(capsys, "contract", "list")
        assert code == EXIT_INTERNAL
        assert err == "internal error: ZeroDivisionError: boom\n"
