"""Run every bundled law suite across a few seeds and tabulate the outcome.

Run with:  python3 demos/laws_by_the_batch.py [seed ...]
"""

import sys

from polygame.laws import SUITES, failing, run_suite


def main(argv):
    seeds = [int(a) for a in argv[1:]] or [0, 1, 2]
    width = max(len(s) for s in SUITES)
    failures = 0
    for suite in sorted(SUITES):
        for seed in seeds:
            checks = run_suite(suite, seed)
            bad = failing(checks)
            failures += len(bad)
            status = "ok" if not bad else "FAIL " + ", ".join(c["name"] for c in bad)
            print(f"  {suite:{width}s} seed={seed:<3d} {len(checks):2d} checks  {status}")
    print(f"\ntotal failing checks: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
