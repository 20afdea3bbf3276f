"""Record the output digests the benchmark pins, for seeds 0-99.

Usage, from the root of a checkout:

    python3 perfbench/pin.py

For each workload and seed this prepares the full-size inputs and runs
each command that writes files once, then stores the digests of what they
wrote (the ``trace gen`` manifests, the ``graph dump`` graphs and the
induced contract traces) in ``perfbench/pinned.json``.  Digests that do not
depend on the seed are stored once per workload, under ``every_seed``; the
others under ``seeds``.  A benchmark run counts a command whose digest
differs from a pinned one as failed, so the byte-identical generation gate
holds on every run.  Re-pin only when the benchmark itself changes what it
generates.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(100)


def digests_for(workload: str, seed: int, work: Path, skip=()) -> dict:
    """The digests of one seed's write-side commands, except those in ``skip``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands, digests = workloads.WORKLOADS[workload](
        seed, workloads.SIZES[workload]["full"], work, measure.run_cli)
    for cmd in commands:
        if cmd.digest_key is None or cmd.digest_key in digests or cmd.digest_key in skip:
            continue
        code, stdout = measure.run_cli(cmd.argv)
        reason, digests[cmd.digest_key] = workloads.verify(cmd, code, stdout)
        if reason is not None:
            raise SystemExit("%s seed %d: %s: %s" % (workload, seed, cmd.kind, reason))
    shutil.rmtree(work)
    return digests


def main() -> int:
    pinned = {}
    for workload in sorted(workloads.WORKLOADS):
        work = ROOT / ".perfbench" / "pin" / workload
        every_seed, seeds = {}, {}
        for seed in SEEDS:
            digests = digests_for(workload, seed, work, skip=every_seed)
            for key in workloads.SEED_INDEPENDENT_DIGESTS:
                if key in digests:
                    every_seed[key] = digests.pop(key)
            seeds[str(seed)] = digests
            print(workload, seed, flush=True)
        pinned[workload] = {"every_seed": every_seed, "seeds": seeds}
    (BENCH_DIR / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
