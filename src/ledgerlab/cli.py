"""Command-line entry point.

Subcommands: ``trace gen|validate|dist|monitor``, ``props check|canon``,
``contract list|check``, ``graph dump``.  Exit codes: 0 clean, 1 property
violation, 2 usage, parse or file error, 3 any internal error, an invariant
breach included.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import gen, serialize
from .contracts import CONTRACTS, check_contract_on_traces
from .core import CheckResult
from .graphs import build_ledger_graph, project_ledger_graph
from .properties import (
    build_tx_poset,
    canonical_presentation,
    check_disjointness,
    check_replay_protection,
    check_trivial_update_protection,
    check_well_founded,
    enumerate_valid_permutations,
    replay_sequence,
    valid_orders,
)
from .traces import (
    check_non_expanding,
    generate_valid_traces,
    monitor_trace,
    ultra_distance,
    validate_trace_prefix,
)

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

OUT_DIR_ENV = "LEDGERLAB_OUT"


#: each monitor's bad-prefix predicate, by name
MONITORS = {
    "utxo-empty": lambda p: any(len(u) == 0 for u in p.states),
    "duplicate-tx": lambda p: (p.annotations is not None
                               and not check_replay_protection(p)),
    "duplicate-state": lambda p: not check_trivial_update_protection(p),
}


def _verdict(check: str, clean: bool, witness) -> dict:
    return {"check": check, "clean": clean, "witness": witness}


def _print(payload: dict, indent: Optional[int] = None) -> None:
    """Print a command's stdout, JSON with sorted keys, flushed at once, so
    that a stdout that cannot be written is a usage error here and not a
    second error at exit."""
    try:
        print(json.dumps(payload, sort_keys=True, indent=indent), flush=True)
    except OSError as exc:
        # the interpreter flushes stdout again at exit: let it write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError("cannot write stdout: %s" % exc) from exc


def _emit(command: str, verdicts: List[dict], inputs_digest: str, **extra) -> int:
    """Print a checking command's report; exit 1 when a verdict is not clean."""
    report = {"command": command, "verdicts": verdicts, "inputs_digest": inputs_digest}
    report.update(extra)
    _print(report, indent=2)
    if all(v["clean"] for v in verdicts):
        return EXIT_CLEAN
    return EXIT_VIOLATION


class _Inputs:
    """A command's input files, read in order as they are iterated.

    Each file is digested as it is yielded, so no text outlives its parse;
    ``digest`` is sha256 over the sha256 digests of the files' own bytes,
    which are decoded as UTF-8 whatever the locale, newlines untouched.
    """

    def __init__(self, *paths: str):
        self.paths = paths
        self._digests = []

    def __iter__(self):
        for path in self.paths:
            try:
                data = Path(path).read_bytes()
            except OSError as exc:
                raise ValueError("cannot read %s: %s" % (path, exc)) from exc
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError("cannot decode %s: %s" % (path, exc)) from exc
            self._digests.append(hashlib.sha256(data).digest())
            del data  # only the text is held while it is parsed
            yield text

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(self._digests)).hexdigest()


def _out_dir(arg: Optional[str]) -> Path:
    out = Path(arg or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (out, exc)) from exc
    return out


def _write(out: Path, name: str, text: str) -> str:
    """Write ``text`` to ``out / name`` as UTF-8, newlines untouched; return
    the reproducibility digest of the bytes written."""
    data = text.encode("utf-8")
    try:
        (out / name).write_bytes(data)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (out / name, exc)) from exc
    return hashlib.sha256(data).hexdigest()


def _well_founded(start, genesis) -> dict:
    wf = check_well_founded(start, genesis)
    return _verdict("well-founded", wf.ok, wf.reason)


# --- trace commands ---------------------------------------------------------

def cmd_trace_gen(args) -> int:
    scenario = gen.make_scenario(args.seed, n_outputs=args.outputs)
    hook = None if args.token is None else CONTRACTS["nft"](args.token).additional_checks
    traces = generate_valid_traces(
        [scenario.initial_utxo],
        [scenario.initial_slot],
        gen.make_proposer(token=args.token),
        depth=args.depth,
        count=args.count,
        seed=args.seed,
        additional_checks=hook,
    )
    out = _out_dir(args.out)
    manifest = {"seed": args.seed, "depth": args.depth, "count": args.count,
                "files": []}
    # the traces share the scenario's genesis and first state: spell them once
    writer = serialize._Writer()
    for k, prefix in enumerate(traces):
        text = serialize.dump_trace(
            prefix, scenario.genesis_txs, [scenario.initial_slot], writer
        )
        name = "trace_%03d.json" % k
        manifest["files"].append(
            {"name": name, "digest": _write(out, name, text),
             "truncated": prefix.truncated}
        )
    manifest_text = serialize.dump_manifest(manifest)
    _print({"manifest_digest": _write(out, "manifest.json", manifest_text),
            "written": len(traces)})
    return EXIT_CLEAN


def cmd_trace_validate(args) -> int:
    inputs = _Inputs(args.file)
    prefix, genesis, initial_slots = serialize.load_trace(*inputs)
    verdicts = [_well_founded(prefix.states[0], genesis)] if genesis else []
    result = validate_trace_prefix(prefix, initial_slots)
    verdicts.append(_verdict("valid-trace", result.ok, result.reason))
    return _emit("trace validate", verdicts, inputs.digest)


def cmd_trace_dist(args) -> int:
    inputs = _Inputs(args.file_a, args.file_b)
    (a, _, _), (b, _, _) = serialize.load_traces(inputs)
    d = ultra_distance(a, b)
    _print({"exact": d.exact, "value": str(d.value), "inputs_digest": inputs.digest})
    return EXIT_CLEAN


def cmd_trace_monitor(args) -> int:
    inputs = _Inputs(args.file)
    prefix, _, _ = serialize.load_trace(*inputs)
    violated_at = monitor_trace(MONITORS[args.monitor], prefix)
    verdict = _verdict("monitor:%s" % args.monitor, violated_at is None, violated_at)
    return _emit("trace monitor", [verdict], inputs.digest)


# --- props commands ---------------------------------------------------------

def _replay(path: str):
    """Read and replay a run file, for ``props check`` and ``props canon``.

    Returns the run (or the refusal), the genesis transactions, the
    ``replay-valid`` verdict and the inputs digest.
    """
    inputs = _Inputs(path)
    initial, steps, genesis = serialize.load_run(*inputs)
    run = replay_sequence(initial, steps)
    refused = isinstance(run, CheckResult)
    verdict = _verdict("replay-valid", not refused,
                       [run.witness, run.reason] if refused else None)
    return run, genesis, verdict, inputs.digest


def cmd_props_check(args) -> int:
    run, genesis, verdict, digest = _replay(args.run)
    verdicts = [verdict]
    if verdict["clean"]:
        if genesis:
            verdicts.append(_well_founded(run.states[0], genesis))
        for name, checker in (
            ("replay-protection", check_replay_protection),
            ("trivial-update-protection", check_trivial_update_protection),
            ("disjointness", check_disjointness),
        ):
            result = checker(run)
            verdicts.append(_verdict(name, result.ok, result.witness or None))
    return _emit("props check", verdicts, digest)


def cmd_props_canon(args) -> int:
    run, _, verdict, digest = _replay(args.run)
    extra = {}
    if verdict["clean"]:
        poset = build_tx_poset(run)
        extra = {
            "levels": poset.levels,
            "canonical_presentation": canonical_presentation(poset),
        }
        if args.enumerate:
            perms = enumerate_valid_permutations(poset, args.cap)
            txs = [tx for _, tx in run.annotations]
            extra["permutations"] = valid_orders(run.states[0], txs, perms.sequences)
            extra["capped"] = perms.capped
    return _emit("props canon", [verdict], digest, **extra)


# --- contract commands ------------------------------------------------------

def cmd_contract_list(args) -> int:
    _print({"contracts": sorted(CONTRACTS)})
    return EXIT_CLEAN


def cmd_contract_check(args) -> int:
    make = CONTRACTS[args.name]
    sc = make(args.token) if args.token is not None else make()
    inputs = _Inputs(*args.traces)
    traces = [prefix for prefix, _, _ in serialize.load_traces(inputs)]
    report = check_contract_on_traces(sc, traces)
    verdicts = [_verdict("step-correctness", not report.failures, report.failures[:5])]
    extra = {"steps_checked": report.steps_checked}
    if args.induce:
        for image in report.induced:
            if None in image.states:
                raise ValueError("state %d outside the projection domain"
                                 % image.states.index(None))
        out = _out_dir(args.out)
        for k, image in enumerate(report.induced):
            _write(out, "contract_trace_%03d.json" % k,
                   serialize.dump_contract_trace(image))
    if args.nonexpanding:
        nonexp = check_non_expanding(traces, report.induced)
        verdicts.append(_verdict("non-expanding", not nonexp.violations,
                                 nonexp.violations[:5]))
        extra["pairs_checked"] = nonexp.pairs_checked
    return _emit("contract check", verdicts, inputs.digest, **extra)


# --- graph commands ---------------------------------------------------------

def cmd_graph_dump(args) -> int:
    sc, txs, slots = gen.graph_universe(args.seed, args.depth)
    lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
    lam_prime, _phi = project_ledger_graph(lam)
    out = _out_dir(args.out)
    lam_text, prime_text = serialize.dump_ledger_graphs(lam, lam_prime)
    _print({
        "lambda_vertices": len(lam.vertices),
        "lambda_prime_vertices": len(lam_prime.vertices),
        "lambda_digest": _write(out, "lambda.json", lam_text),
        "lambda_prime_digest": _write(out, "lambda_prime.json", prime_text),
    })
    return EXIT_CLEAN


# --- parser -----------------------------------------------------------------

def _cap(text: str) -> int:
    """``props canon --cap``, refused while parsing: a bad cap is a usage
    error whether the run is enumerated or not, and whether it replays."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError("cap must be an integer >= 1: %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerlab",
        description="UTxO ledger semantics laboratory",
    )
    top = parser.add_subparsers(dest="group", required=True)

    trace = top.add_parser("trace", help="trace generation and analysis")
    trace_sub = trace.add_subparsers(dest="command", required=True)
    p = trace_sub.add_parser("gen", help="generate valid trace files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--outputs", type=int, default=4)
    p.add_argument("--token", type=bytes.fromhex,
                   help="hex token id; restricts to the NFT policy")
    p.add_argument("--out")
    p = trace_sub.add_parser("validate", help="re-validate a trace file")
    p.add_argument("file")
    p = trace_sub.add_parser("dist", help="ultrametric distance of two traces")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p = trace_sub.add_parser("monitor", help="run a safety monitor")
    p.add_argument("file")
    p.add_argument("--monitor", required=True, choices=sorted(MONITORS))

    props = top.add_parser("props", help="run-level ledger properties")
    props_sub = props.add_subparsers(dest="command", required=True)
    p = props_sub.add_parser("check", help="replay a run and check properties")
    p.add_argument("--run", required=True)
    p = props_sub.add_parser("canon", help="dependency levels, canonical order")
    p.add_argument("--run", required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=_cap, default=720)

    contract = top.add_parser("contract", help="structured contracts")
    contract_sub = contract.add_subparsers(dest="command", required=True)
    p = contract_sub.add_parser("list", help="registered contracts")
    p = contract_sub.add_parser("check", help="check a contract over traces")
    p.add_argument("--name", required=True, choices=sorted(CONTRACTS))
    p.add_argument("--token", type=bytes.fromhex, help="hex token id (default NFT)")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--induce", action="store_true")
    p.add_argument("--nonexpanding", action="store_true")
    p.add_argument("--out")

    graph = top.add_parser("graph", help="transition graph dumps")
    graph_sub = graph.add_subparsers(dest="command", required=True)
    p = graph_sub.add_parser("dump", help="dump a small ledger graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--out")

    return parser


_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN
    # ledger values form no reference cycles, so refcounting frees them all and
    # the cycle collector only rescans the live heap: pause it for the command
    enabled = gc.isenabled()
    gc.disable()
    # the handler is looked up when called, so one rebound on the module runs
    try:
        return globals()["cmd_%s_%s" % (args.group, args.command)](args)
    except (serialize.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # anything else is a defect, not a verdict: keep it off exit 1
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
