"""Run one ledgerlab benchmark workload in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-run --seed 3 --seconds 20 --trace 0

The workload runs in a child process with a fixed ``PYTHONHASHSEED`` and
``src/`` on its path; see ``perfbench/README.md`` for the workloads and
metrics.  The last line of standard output is the result as JSON.  The
exit code is 0 only when the child measured and printed a result.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: the hash seed every workload process runs under unless told otherwise
HASH_SEED = 0
#: the child is stopped after this long, so that the run ends within 180 s
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same shape at test size")
    parser.add_argument("--hash-seed", type=int, default=HASH_SEED,
                        help="PYTHONHASHSEED of the workload process")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ledgerlab" / "__init__.py").is_file():
        print("no ledgerlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed),
               PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--root", str(ROOT), "--started", repr(time.time())]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("workload did not finish in %d s" % CHILD_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
