"""The benchmark's workloads: input preparation and command sequences.

Each workload turns a seed into input files (through an untimed
``ledgerlab trace gen``) and into a list of ``ledgerlab`` commands, each
carrying its known answer: the exit code, the ``clean`` flag of every
check it reports and, for the write-side commands, the digest of what it
wrote.  About one verdict input in ten is a mutant whose verdict is known
by construction, so the rejection paths are timed too.

Inputs are derived with the standard ``json`` module from the file format
in ``docs/format.md``, not through the library under test.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

#: command kinds that write files; every other kind returns a verdict
GEN_KINDS = ("trace_gen", "graph_dump")

COIN = b"coin".hex()
NFT = b"NFT".hex()
MONITORS = ("utxo-empty", "duplicate-tx", "duplicate-state")
#: digests that do not depend on the workload seed (the graph dump's seed is fixed)
SEED_INDEPENDENT_DIGESTS = ("graph",)
#: the monitors that grow with the number of states; the quadratic ones
#: keep the verdict median and tail away from the edge of a cost group
COSTLY_MONITORS = ("duplicate-tx", "duplicate-state")

#: workload parameters; "tiny" keeps the same shape at a size for tests
SIZES = {
    "wide-state": {
        "full": {"outputs": 2000, "depth": 5, "traces": 10},
        "tiny": {"outputs": 30, "depth": 4, "traces": 3},
    },
    "long-run": {
        "full": {"outputs": 40, "depth": 101, "runs": 10, "cap": 50},
        "tiny": {"outputs": 8, "depth": 10, "runs": 2, "cap": 20},
    },
    "contract-fanout": {
        "full": {"outputs": 24, "depth": 12, "traces": 100, "graph_depth": 25},
        "tiny": {"outputs": 6, "depth": 5, "traces": 6, "graph_depth": 6},
    },
}


@dataclass
class Command:
    """One ``ledgerlab`` invocation and its known answer."""

    kind: str
    argv: List[str]
    expect_exit: int = 0
    #: expected ``clean`` flag of each reported check, by check name
    expect_clean: Optional[dict] = None
    #: further check on the parsed output; returns a failure reason or None
    check: Optional[Callable[[dict], Optional[str]]] = None
    #: name under which this command's output digest is pinned
    digest_key: Optional[str] = None
    #: extracts the digest from the parsed output
    digest: Optional[Callable[[dict], object]] = None

    @property
    def role(self) -> str:
        return "gen" if self.kind in GEN_KINDS else "verdict"


def clean_flags(stdout: str):
    """The ``clean`` flag of each check a command reported, or None."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    if not isinstance(out, dict) or "verdicts" not in out:
        return None
    return {v["check"]: v["clean"] for v in out["verdicts"]}


def verify(cmd: Command, code: int, stdout: str):
    """Compare one result with its known answer: (failure reason, digest)."""
    if code != cmd.expect_exit:
        return "exit %r, expected %d" % (code, cmd.expect_exit), None
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON", None
    if cmd.expect_clean is not None:
        clean = clean_flags(stdout)
        if clean != cmd.expect_clean:
            return "clean flags %r, expected %r" % (clean, cmd.expect_clean), None
    if cmd.check is not None:
        reason = cmd.check(out)
        if reason:
            return reason, None
    return None, cmd.digest(out) if cmd.digest else None


# --- file helpers -----------------------------------------------------------

def read_json(path: Path):
    return json.loads(Path(path).read_text())


def write_json(path: Path, obj) -> Path:
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return Path(path)


def files_digest(paths) -> str:
    """One digest over several files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return h.hexdigest()


def sub_seeds(workload: str, seed: int, n: int) -> List[int]:
    """Independent generator seeds for one workload run."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [rng.randrange(2 ** 31) for _ in range(n)]


def run_from_trace(trace: dict) -> dict:
    """The run file replaying a trace's lift from its first state."""
    return {"genesis": trace["genesis"], "initial": trace["states"][0],
            "kind": "run", "steps": list(trace["lifts"]), "version": trace["version"]}


def bump_last_state(trace: dict, token: str) -> dict:
    """A copy of the trace whose last state holds one more ``token``."""
    entry = json.loads(json.dumps(trace["states"][-1][0]))
    value = entry["output"]["value"]
    value[token] = value.get(token, 0) + 1
    last = [entry] + trace["states"][-1][1:]
    return dict(trace, states=trace["states"][:-1] + [last])


def first_difference(a: dict, b: dict):
    """Expected ``trace dist`` output for two trace files: (exact, value)."""
    n = min(len(a["states"]), len(b["states"]))
    for k in range(n):
        if a["states"][k] != b["states"][k]:
            return True, str(Fraction(1, 2 ** k))
    return False, str(Fraction(1, 2 ** n))


# --- commands with their known answers ---------------------------------------

def trace_gen_argv(seed, p, count, token=None) -> List[str]:
    argv = ["trace", "gen", "--seed", str(seed), "--depth", str(p["depth"]),
            "--count", str(count), "--outputs", str(p["outputs"])]
    return argv + (["--token", token] if token else [])


def trace_gen(argv, out_dir, count, key) -> Command:
    def check(out):
        if out.get("written") != count:
            return "wrote %r traces, expected %d" % (out.get("written"), count)
        return None

    return Command("trace_gen", argv + ["--out", str(out_dir)], check=check,
                   digest_key=key, digest=lambda out: out["manifest_digest"])


def graph_dump(seed, depth, out_dir, key) -> Command:
    return Command(
        "graph_dump",
        ["graph", "dump", "--seed", str(seed), "--depth", str(depth),
         "--out", str(out_dir)],
        digest_key=key,
        digest=lambda out: [out["lambda_digest"], out["lambda_prime_digest"]])


def validate(path, clean=True, witness=None) -> Command:
    return Command(
        "trace_validate", ["trace", "validate", str(path)],
        expect_exit=0 if clean else 1,
        expect_clean={"well-founded": True, "valid-trace": clean},
        check=_witness_check("valid-trace", witness))


def monitor(path, name, clean=True, witness=None) -> Command:
    check_name = "monitor:" + name
    return Command(
        "trace_monitor", ["trace", "monitor", str(path), "--monitor", name],
        expect_exit=0 if clean else 1, expect_clean={check_name: clean},
        check=_witness_check(check_name, witness))


def props_check(path, clean=True, witness=None) -> Command:
    if clean:
        expect = {name: True for name in (
            "replay-valid", "well-founded", "replay-protection",
            "trivial-update-protection", "disjointness")}
    else:
        expect = {"replay-valid": False}
    return Command("props_check", ["props", "check", "--run", str(path)],
                   expect_exit=0 if clean else 1, expect_clean=expect,
                   check=_witness_check("replay-valid", witness))


def props_canon(path, n_steps, cap=None, clean=True) -> Command:
    argv = ["props", "canon", "--run", str(path)]
    if cap is not None:
        argv += ["--enumerate", "--cap", str(cap)]

    def check(out):
        if not clean:
            return None
        order = out.get("canonical_presentation")
        if sorted(order or ()) != list(range(n_steps)):
            return "canonical presentation is not a permutation of the run"
        if len(out.get("levels", ())) != n_steps:
            return "one level per step expected"
        if cap is not None:
            perms = out.get("permutations", [])
            if not 1 <= len(perms) <= cap or order not in perms:
                return "enumeration misses the canonical presentation"
        return None

    return Command("props_canon", argv, expect_exit=0 if clean else 1,
                   expect_clean={"replay-valid": clean}, check=check)


def trace_dist(path_a, path_b, expected) -> Command:
    exact, value = expected

    def check(out):
        if (out.get("exact"), out.get("value")) != (exact, value):
            return "distance %r/%r, expected %r/%r" % (
                out.get("exact"), out.get("value"), exact, value)
        return None

    return Command("trace_dist", ["trace", "dist", str(path_a), str(path_b)],
                   check=check)


def contract_check(paths, steps, token=NFT, induce_dir=None, clean=True,
                   witness=None, key=None) -> Command:
    argv = ["contract", "check", "--name", "nft", "--token", token,
            "--traces", *map(str, paths), "--nonexpanding"]
    if induce_dir is not None:
        argv += ["--induce", "--out", str(induce_dir)]
    n = len(paths)
    witness_check = _witness_check("step-correctness", witness)

    def check(out):
        if out.get("steps_checked") != steps:
            return "checked %r steps, expected %d" % (out.get("steps_checked"), steps)
        if not 0 <= out.get("pairs_checked", -1) <= n * (n - 1) // 2:
            return "pairs_checked out of range"
        return witness_check(out) if witness_check else None

    def induced_digest(out):
        return files_digest(Path(induce_dir) / ("contract_trace_%03d.json" % k)
                            for k in range(n))

    return Command(
        "contract_check", argv, expect_exit=0 if clean else 1,
        expect_clean={"step-correctness": clean, "non-expanding": True},
        check=check, digest_key=key,
        digest=induced_digest if induce_dir is not None else None)


def _witness_check(check_name, witness):
    if witness is None:
        return None

    def check(out):
        for verdict in out.get("verdicts", ()):
            if verdict["check"] == check_name and verdict["witness"] != witness:
                return "witness %r, expected %r" % (verdict["witness"], witness)
        return None

    return check


# --- mutants: inputs whose verdict is known by construction ------------------

def mutant(kind, source: dict, source_path: Path, path: Path) -> Command:
    """One mutant input, written to ``path``, and its known verdict.

    ``source`` is the parsed trace file at ``source_path``.
    """
    last = len(source["states"]) - 1
    if kind == "altered-state":
        # the last step now lands on a state the replay does not reach
        target = write_json(path, bump_last_state(source, COIN))
        return validate(target, clean=False, witness="state-mismatch-at-%d" % last)
    if kind == "repeated-state":
        # the last state recurs one index later; the first bad head is there
        trace = dict(source, states=source["states"] + source["states"][-1:],
                     lifts=source["lifts"] + source["lifts"][-1:])
        target = write_json(path, trace)
        return monitor(target, "duplicate-state", clean=False, witness=last + 1)
    if kind in ("repeated-step", "repeated-step-canon"):
        # replaying a transaction twice spends inputs that are gone
        run = run_from_trace(source)
        j = len(run["steps"]) // 2
        run["steps"].insert(j + 1, run["steps"][j])
        target = write_json(path, run)
        if kind == "repeated-step":
            return props_check(target, clean=False, witness=[j + 1, "missing-input"])
        return props_canon(target, len(run["steps"]), clean=False)
    if kind == "altered-distance":
        # a copy differing only at the last index is exactly 2^-last away
        target = write_json(path, bump_last_state(source, COIN))
        return trace_dist(source_path, target, (True, str(Fraction(1, 2 ** last))))
    if kind == "token-added":
        # one more token in the last state breaks the contract's last step
        target = write_json(path, bump_last_state(source, NFT))
        return contract_check([target], last, clean=False,
                              witness=[[0, last - 1, "contract-step-mismatch"]])
    raise ValueError("unknown mutant kind %r" % kind)


def mutants(kinds, sources, n_clean, work: Path, seed) -> List[Command]:
    """About one mutant per ten clean verdict commands, cycling ``kinds``.

    ``sources`` holds paths of traces with at least one step each; the
    mutated source is picked by the seed.
    """
    rng = random.Random("mutants:%d" % seed)
    cmds = []
    for i in range(max(len(kinds), round(n_clean / 10))):
        kind = kinds[i % len(kinds)]
        src_path = sources[rng.randrange(len(sources))]
        cmds.append(mutant(kind, read_json(src_path), src_path,
                           work / ("mutant_%03d.json" % i)))
    return cmds


# --- workloads ----------------------------------------------------------------

def _generate(run_cli, argv, out_dir: Path):
    """Untimed ``trace gen`` for the inputs: (manifest digest, [path]).

    Callers parse one trace at a time, to keep the harness's own memory
    peak low: ``peak_rss_mb`` is the peak of the whole process.
    """
    code, stdout = run_cli(argv + ["--out", str(out_dir)])
    if code != 0:
        raise RuntimeError("input generation failed: %s" % " ".join(argv))
    manifest = read_json(out_dir / "manifest.json")
    paths = [out_dir / f["name"] for f in manifest["files"]]
    return json.loads(stdout)["manifest_digest"], paths


def _steps(trace: dict) -> int:
    return len(trace["states"]) - 1


def prepare_wide_state(seed, p, work: Path, run_cli):
    """About 2 * 10^3 genesis outputs, ten traces of 4 steps, no token."""
    argv = trace_gen_argv(sub_seeds("wide-state", seed, 1)[0], p, p["traces"])
    digest, paths = _generate(run_cli, argv, work / "inputs")
    cmds = [trace_gen(argv, work / "gen", p["traces"], "manifest")]
    steps = 0
    for k, path in enumerate(paths):
        trace = read_json(path)
        run = write_json(work / ("run_%03d.json" % k), run_from_trace(trace))
        cmds.append(validate(path))
        cmds += [monitor(path, name) for name in COSTLY_MONITORS]
        cmds += [props_check(run), props_canon(run, _steps(trace))]
        steps += _steps(trace)
    cmds.append(contract_check(paths, steps))
    kinds = ("altered-state", "repeated-state", "repeated-step", "repeated-step-canon")
    n_clean = sum(c.role == "verdict" for c in cmds)
    cmds += mutants(kinds, paths, n_clean, work, seed)
    return cmds, {"manifest": digest}


def prepare_long_run(seed, p, work: Path, run_cli):
    """About 40 genesis outputs and ten runs of 100 steps."""
    cmds, digests, sources = [], {}, []
    for k, sub in enumerate(sub_seeds("long-run", seed, p["runs"])):
        argv = trace_gen_argv(sub, p, 1)
        key = "manifest.%d" % k
        digests[key], (path,) = _generate(run_cli, argv, work / ("inputs_%d" % k))
        trace = read_json(path)
        run = write_json(work / ("run_%03d.json" % k), run_from_trace(trace))
        n = _steps(trace)
        cmds.append(trace_gen(argv, work / ("gen_%d" % k), 1, key))
        cmds.append(validate(path))
        cmds += [monitor(path, name) for name in COSTLY_MONITORS]
        cmds += [props_check(run), props_canon(run, n),
                 props_canon(run, n, cap=p["cap"])]
        sources.append(path)
    kinds = ("repeated-step", "altered-state", "repeated-step-canon", "repeated-state")
    n_clean = sum(c.role == "verdict" for c in cmds)
    cmds += mutants(kinds, sources, n_clean, work, seed)
    return cmds, digests


def prepare_contract_fanout(seed, p, work: Path, run_cli):
    """The NFT token, ~24 genesis outputs and ~100 traces of ~11 steps."""
    argv = trace_gen_argv(sub_seeds("contract-fanout", seed, 1)[0], p,
                          p["traces"], token=NFT)
    digest, paths = _generate(run_cli, argv, work / "inputs")
    cmds = [trace_gen(argv, work / "gen", p["traces"], "manifest")]
    # The graph seed is fixed: the explicit graph's size is heavy-tailed in
    # the seed, so seed-derived graphs would swamp gen_s with input variance.
    cmds.append(graph_dump(0, p["graph_depth"], work / "graph", "graph"))
    for path in paths:
        cmds.append(validate(path))
        cmds += [monitor(path, name) for name in MONITORS]
    steps, stepped, previous = 0, [], None
    for path in paths:
        trace = read_json(path)
        if previous is not None:
            cmds.append(trace_dist(previous[0], path, first_difference(previous[1], trace)))
        steps += _steps(trace)
        if _steps(trace) >= 1:
            stepped.append(path)
        previous = path, trace
    cmds.append(contract_check(paths, steps, induce_dir=work / "induced", key="induced"))
    kinds = ("altered-state", "repeated-state", "altered-distance", "token-added")
    n_clean = sum(c.role == "verdict" for c in cmds)
    cmds += mutants(kinds, stepped, n_clean, work, seed)
    return cmds, {"manifest": digest}


WORKLOADS = {
    "wide-state": prepare_wide_state,
    "long-run": prepare_long_run,
    "contract-fanout": prepare_contract_fanout,
}
