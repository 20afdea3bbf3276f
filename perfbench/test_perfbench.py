"""Self-test of the benchmark, at tiny size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import measure  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, trace=0, hash_seed=0, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
         "--hash-seed", str(hash_seed)],
        cwd=root, capture_output=True, text=True, timeout=120)
    return proc


def result_of(proc, workload, trace=0):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results"
                         / ("%s-seed3-tiny-trace%d.json" % (workload, trace))).read_text())
    return result, record


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_verdicts_and_digests_do_not_depend_on_the_hash_seed(workload):
    seen = []
    for hash_seed in (0, 1):
        result, record = result_of(run_workload(workload, hash_seed=hash_seed), workload)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert record["pythonhashseed"] == str(hash_seed)
        outcomes = [(c["kind"], c["exit"], c["clean"]) for c in record["commands"]]
        seen.append((outcomes, record["digests"]))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_exactly_the_metrics_benchmark_json_names(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = result_of(run_workload(workload, trace=trace), workload, trace)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert result["correct"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_about_one_verdict_input_in_ten_is_a_mutant(workload, tmp_path):
    commands, _ = workloads.WORKLOADS[workload](
        3, workloads.SIZES[workload]["full"], tmp_path, measure.run_cli)
    verdicts = [c for c in commands if c.role == "verdict"]
    mutants = [c for c in verdicts if c.expect_exit == 1]
    assert 0.05 <= len(mutants) / len(verdicts) <= 0.2
    for cmd in mutants:
        code, stdout = measure.run_cli(cmd.argv)
        assert workloads.verify(cmd, code, stdout) == (None, None), cmd.argv


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(range(1, 41)) == (75, 30)
    assert measure.tail(range(1, 101)) == (90, 90)
    assert measure.tail(range(1, 1001)) == (99, 990)
    assert measure.tail([1.0, 2.0, 3.0]) == (50, 2.0)


def test_host_speed_drops_kernel_runs_and_scales_by_nearby_samples():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    host.times = [0.0, 1.0, 1.5, 5.0]
    host.durations = [ref, 2 * ref, 2 * ref, ref]
    seconds, scaled = host.measured(0.9, 2.0)
    assert seconds == pytest.approx(1.1 - 4 * ref)
    assert scaled == pytest.approx(seconds / 2)
    # no sample within the window: the nearest ones on each side decide
    assert host.measured(3.0, 3.5)[1] == pytest.approx(0.5 / 1.5)


def test_tracer_rebinds_every_import_and_restores_it():
    from ledgerlab import core, gen, properties, traces

    original = core.step_ledger
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert traces.step_ledger is core.step_ledger is properties.step_ledger
        assert core.step_ledger is not original
        scenario = gen.make_scenario(1)
        traces.generate_valid_traces(
            [scenario.initial_utxo], [scenario.initial_slot], gen.make_proposer(),
            depth=3, count=1, seed=1)
    finally:
        tracer.uninstall()
    assert core.step_ledger is original and traces.step_ledger is original
    names = {tracer.names[i] for i in tracer.name}
    assert {"traces.generate_valid_traces", "gen.propose", "core.step_ledger",
            "core.check_tx", "core.UtxoSet.__post_init__"} <= names
    own = tracing.self_times(tracer)
    assert all(t >= -1e-9 for t in own)
    top = [i for i in range(len(tracer)) if tracer.parent[i] == -1]
    total = sum(tracer.end[i] - tracer.start[i] for i in top)
    assert abs(sum(own) - total) < 1e-6


def test_spans_file_round_trips(tmp_path):
    tracer = tracing.Tracer()
    f = tracer.wrap("core.f", lambda x: x + 1)
    g = tracer.wrap("core.g", lambda x: f(x) * 2)
    assert g(1) == 4
    tracer.write(tmp_path / "t.spans")
    names, cols = tracing.load_spans(tmp_path / "t.spans")
    assert [names[i] for i in cols["name"]] == ["core.g", "core.f"]
    assert list(cols["parent"]) == [-1, 0]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_workload("long-run", root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
