"""Benchmark entry point: run one workload in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload laws|cli|synthesis --seed N \\
        --seconds S --trace 0|1

The workload runs in a child process whose PYTHONHASHSEED is derived from
--seed: synthesis peels states in set iteration order, so its cost depends
on the hash seed (see NOTES.md).  The child's stdout is passed through; its
last line is the result object.  A checkout without polygame's sources is
refused with a non-zero exit and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for a benchmark seed: any value in [0, 2**32)."""
    return int.from_bytes(hashlib.sha256(f"polygame-bench:{seed}".encode()).digest()[:4], "big")


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one polygame benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "polygame" / "__init__.py").is_file():
        print(f"{ROOT}: no src/polygame here; run from a polygame checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(args.seed)))
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so that a timeout also ends the op children.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"workload {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 3
    sys.stdout.write(out.decode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
