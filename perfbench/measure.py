"""One workload run, in the fresh process that ``run.py`` starts.

The process imports ledgerlab, prepares the workload's inputs several
times (set-up), then runs the workload's command sequence in-process
through ``ledgerlab.cli.main(argv)``, one command at a time, until the
measuring time is used up, while ``hostspeed.py`` follows the host's
speed to scale each time to a reference speed.  Every result is compared
with its known answer after the timed pass.  With ``--trace 1`` the second
half of the time runs one iteration with every layer wrapped in spans (see
``tracer.py``).

The last line of standard output is the result: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads
from hostspeed import REFERENCE_KERNEL_S, HostSpeed

SETUP_REPEATS = 3
#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
#: samples a reported tail percentile must have beyond it
TAIL_BEYOND = 10
PINNED = Path(__file__).with_name("pinned.json")


def run_cli(argv):
    """Run one command in-process, untimed: (exit code, stdout)."""
    from ledgerlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@dataclass
class Iteration:
    """One pass over the command sequence: its wall time and command times."""

    wall: float
    raw: list
    scaled: list


def run_iteration(commands, host=None):
    """Run the sequence once.

    Returns the iteration (its wall time and each command's seconds and,
    with ``host`` sampling, reference seconds) and [(exit code, stdout)].
    """
    from ledgerlab import cli

    clock = time.perf_counter
    spans, outputs = [], []
    gc.collect()
    begin = clock()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            try:
                code = cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed command, not a crash of the run
                code = "%s: %s" % (type(exc).__name__, exc)
            end = clock()
        spans.append((start, end))
        outputs.append((code, out.getvalue()))
    wall = clock() - begin
    if host is None:
        times = [(end - start, end - start) for start, end in spans]
    else:
        times = [host.measured(start, end) for start, end in spans]
    return Iteration(wall, [t for t, _ in times], [s for _, s in times]), outputs


class Checker:
    """Compares results with known answers and pinned or first-seen digests."""

    def __init__(self, pinned: dict, observed: dict):
        self.pinned = pinned
        self.observed = dict(observed)
        self.failures = []
        self.attempted = 0
        #: exit code and clean flags of each command in the first iteration
        self.outcomes = []

    def check(self, commands, outputs, iteration):
        for cmd, (code, stdout) in zip(commands, outputs):
            self.attempted += 1
            reason, digest = workloads.verify(cmd, code, stdout)
            if iteration == 0:
                self.outcomes.append([code, workloads.clean_flags(stdout)])
            if reason is None and cmd.digest_key:
                key = cmd.digest_key
                if key in self.pinned and digest != self.pinned[key]:
                    reason = "digest %s differs from the pinned one" % key
                elif key in self.observed and digest != self.observed[key]:
                    reason = "digest %s differs from the first one" % key
                self.observed.setdefault(key, digest)
            if reason is not None:
                self.failures.append({"iteration": iteration, "kind": cmd.kind,
                                      "argv": cmd.argv, "reason": reason})


def tail(values):
    """Highest ladder percentile with TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles; with fewer than 2 * TAIL_BEYOND samples no
    percentile qualifies and the median is reported.  Returns (percentile,
    value).
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def measure(commands, seconds, checker, host):
    """Iterate the sequence while another iteration fits in ``seconds``."""
    iterations = []
    begin = time.perf_counter()
    while True:
        iteration, outputs = run_iteration(commands, host)
        checker.check(commands, outputs, len(iterations))
        iterations.append(iteration)
        if time.perf_counter() - begin + iteration.wall > seconds:
            return iterations


def end_to_end(commands, per_iteration):
    """End-to-end metrics from command times, one list per iteration.

    Each command's latency is its median over the iterations; ``gen_s`` and
    ``verdict_s`` add up these medians, so a slow phase of the host in one
    iteration moves them less than a median of per-iteration sums.
    Returns the metrics and the tail's percentile and sample count.
    """
    latency = [statistics.median(times[i] for times in per_iteration)
               for i in range(len(commands))]

    def role_s(role):
        return sum(t for t, cmd in zip(latency, commands) if cmd.role == role)

    verdict_ms = [1000 * t for t, cmd in zip(latency, commands) if cmd.role == "verdict"]
    tail_p, tail_ms = tail(verdict_ms)
    metrics = {
        "pipeline_s": (statistics.median(sum(times) for times in per_iteration), "s"),
        "gen_s": (role_s("gen"), "s"),
        "verdict_s": (role_s("verdict"), "s"),
        "verdict_ms.p50": (statistics.median(verdict_ms), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
    }
    return metrics, {"percentile": tail_p, "samples": len(verdict_ms)}


def traced_iteration(commands, checker, iteration_no, spans_path):
    """One iteration with every layer wrapped: (iteration, per-layer metrics, spans)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        iteration, outputs = run_iteration(commands)
    finally:
        tracer.uninstall()
    checker.check(commands, outputs, iteration_no)
    cli_ms = {}
    canon_valid = 0
    for cmd, elapsed, (code, stdout) in zip(commands, iteration.raw, outputs):
        cli_ms.setdefault(cmd.kind, []).append(1000 * elapsed)
        if cmd.kind == "props_canon" and "--enumerate" in cmd.argv and code == 0:
            canon_valid += len(json.loads(stdout)["permutations"])
    metrics = tracing.per_layer_metrics(tracer, cli_ms, canon_valid)
    tracer.write(spans_path)
    return iteration, metrics, len(tracer)


def max_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_info():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before this process was started")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    import ledgerlab
    import ledgerlab.cli  # noqa: F401  (the whole package, as a CLI user loads it)

    imported = time.perf_counter()
    import_s = time.time() - args.started
    if Path(ledgerlab.__file__).resolve().parent != (root / "src" / "ledgerlab").resolve():
        print("ledgerlab was imported from %s, not from the checkout"
              % ledgerlab.__file__, file=sys.stderr)
        return 2

    name = "%s-seed%d-%s-trace%d" % (args.workload, args.seed, args.size, args.trace)
    work = root / ".perfbench" / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, name, work, root / ".perfbench" / "results",
                   (imported - import_s, imported))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, name, work, results_dir, import_span) -> int:
    """Set up, measure, check and report one workload run.

    ``import_span`` is the (start, end) of the process start and import, on
    the ``time.perf_counter`` clock.
    """
    results_dir.mkdir(parents=True, exist_ok=True)
    params = workloads.SIZES[args.workload][args.size]
    prepare = workloads.WORKLOADS[args.workload]

    budget = args.seconds / 2 if args.trace else args.seconds
    with HostSpeed() as host:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            work.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            commands, setup_digests = prepare(args.seed, params, work, run_cli)
            setup_times.append(host.measured(start, time.perf_counter())[1])
        setup_rss_mb = max_rss_mb()
        # scaled by the kernel samples just after the import, like any span
        import_s = host.measured(*import_span)[1]
        pinned = {}
        if args.size == "full" and PINNED.exists():
            table = json.loads(PINNED.read_text()).get(args.workload, {})
            pinned = {**table.get("every_seed", {}),
                      **table.get("seeds", {}).get(str(args.seed), {})}
        checker = Checker(pinned, setup_digests)
        iterations = measure(commands, budget, checker, host)
    e2e, tail_info = end_to_end(commands, [it.scaled for it in iterations])
    e2e["setup_s"] = (import_s + statistics.median(setup_times), "s")
    e2e["peak_rss_mb"] = (max_rss_mb(), "MB")
    unscaled, _ = end_to_end(commands, [it.raw for it in iterations])

    per_layer, n_spans = None, 0
    spans_path = results_dir / (name + ".spans")
    if args.trace:
        # no kernel samples here: they would land inside the spans
        traced, per_layer, n_spans = traced_iteration(
            commands, checker, len(iterations), spans_path)
        per_layer["trace.overhead_frac"] = (
            sum(traced.raw) / unscaled["pipeline_s"][0] - 1, "ratio")

    failed = len(checker.failures)
    reported = per_layer if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "host": host_info(), "params": params,
        "iterations": len(iterations), "iteration_walls": [it.wall for it in iterations],
        "import_s": import_s, "setup_runs_s": setup_times,
        "setup_peak_rss_mb": setup_rss_mb,
        "host_speed": {"reference_kernel_s": REFERENCE_KERNEL_S,
                       "kernel_s": statistics.median(host.durations),
                       "samples": len(host.durations)},
        "verdict_tail": tail_info, "failed_frac": failed / checker.attempted,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_unscaled": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "per_layer": per_layer and {k: {"value": v, "unit": u}
                                    for k, (v, u) in per_layer.items()},
        "spans": {"file": spans_path.name, "count": n_spans} if args.trace else None,
        "digests": checker.observed, "pinned": sorted(pinned),
        "commands": [
            {"kind": c.kind, "argv": c.argv, "role": c.role,
             "exit": outcome[0], "clean": outcome[1],
             "median_ms": 1000 * statistics.median(it.scaled[i] for it in iterations)}
            for i, (c, outcome) in enumerate(zip(commands, checker.outcomes))],
        "failures": checker.failures,
        "result": result,
    }
    (results_dir / (name + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    print("workload %s seed %d: %d iteration(s), %d commands each, PYTHONHASHSEED=%s"
          % (args.workload, args.seed, len(iterations), len(commands),
             record["pythonhashseed"]))
    print("verdict_ms.tail is p%g over %d verdict commands"
          % (tail_info["percentile"], tail_info["samples"]))
    print("failed_frac = %d / %d" % (failed, checker.attempted))
    for key, (value, unit) in sorted({**e2e, **(per_layer or {})}.items()):
        print("  %-40s %14.6g %s" % (key, value, unit))
    for failure in checker.failures[:10]:
        print("FAILED %s: %s" % (failure["kind"], failure["reason"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
