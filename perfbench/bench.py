"""One workload run in a fresh process; started by run.py with the hash seed set.

Usage: python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets up the inputs, runs whole rounds of ops as one
closed-loop caller until at least S seconds of ops and MIN_OPS ops are done,
checks every op's output outside the timed region and prints the end-to-end
metrics.  With ``--trace 1`` it runs the workload's fixed traced op list
once untraced and once with spans recorded, and prints the per-layer
metrics with the tracing overhead.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 7
STARTUP_REPEATS = 5

IMPORT_PROBE = (
    "import time\nt = time.perf_counter()\nimport polygame\n"
    "print(time.perf_counter() - t)\n"
)


def child_seconds(args: list[str]) -> float:
    t = time.perf_counter()
    subprocess.run(args, env=workloads.child_env(), check=True,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return time.perf_counter() - t


def setup(wl) -> tuple[list[float], bool]:
    """Import (timed in a fresh child) plus input generation, repeated.

    Returns the set-up times and whether every repeat generated the same
    inputs.
    """
    samples, digests = [], set()
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=workloads.child_env(),
                               check=True, capture_output=True, text=True)
        t = time.perf_counter()
        digests.add(wl.generate())
        samples.append(float(probe.stdout) + time.perf_counter() - t)
    return samples, len(digests) == 1


class Tally:
    """Latencies and verdicts of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.check_s = 0.0
        self.runs = Counter()
        self.bad = Counter()  # failed runs per op label
        self.by_label: dict[str, list[float]] = {}

    @property
    def failed(self) -> int:
        return sum(self.bad.values())

    def run(self, wl, op, runner):
        """Run one op timed, then check it untimed."""
        t0 = time.perf_counter()
        try:
            out, error = runner(op), None
        except Exception as exc:  # an unexpected exception fails the op
            out, error = None, exc
        t1 = time.perf_counter()
        ok = False
        if error is None:
            try:
                ok = wl.check(op, out)
            except Exception as exc:
                error = exc
        if not ok:
            self.bad[op[0]] += 1
            print(f"FAILED {wl.name} op {op[0]!r}: {error!r}", file=sys.stderr)
        self.latencies.append(t1 - t0)
        self.by_label.setdefault(op[0], []).append(t1 - t0)
        self.runs[op[0]] += 1
        self.check_s += time.perf_counter() - t1

    def finish(self, wl):
        """Fail every run of the ops that the workload's deferred checks reject."""
        for label in wl.finish():
            self.bad[label] = self.runs[label]
            print(f"FAILED {wl.name} op {label!r}: output check", file=sys.stderr)

    def rerun_singletons(self, wl, ops_by_label, runner):
        """Rerun, untimed, each op that ran once, so every output is compared
        with a second run of the same op."""
        for label, n in list(self.runs.items()):
            if n == 1:
                self.run(wl, ops_by_label[label], runner)
                self.latencies.pop()


def timed_run(wl, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    ops_by_label = {}
    start = time.perf_counter()
    r = 0
    while True:
        for op in wl.round(r):
            ops_by_label[op[0]] = op
            tally.run(wl, op, wl.run)
        r += 1
        busy = time.perf_counter() - start - tally.check_s
        if busy >= seconds and len(tally.latencies) >= MIN_OPS:
            break
    n = len(tally.latencies)
    tally.rerun_singletons(wl, ops_by_label, wl.run)
    tally.finish(wl)
    deciles = statistics.quantiles(tally.latencies, n=10)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "success_rate": ((n - tally.failed) / n, "ratio"),
    }
    return metrics, tally


def traced_run(wl) -> tuple[dict, Tally, dict]:
    # Children start from this process while it is still small.
    version = [sys.executable, str(workloads.LAUNCHER), "--version"]
    startup = [child_seconds(version) for _ in range(STARTUP_REPEATS)]

    ops = wl.traced_ops()
    tally = Tally()
    t = time.perf_counter()
    for op in ops:
        tally.run(wl, op, wl.run_inprocess)
    untraced_s = time.perf_counter() - t - tally.check_s

    tr = tracing.Tracer()
    tracing.install(tr)
    # The CLI's own layer is main() itself, the click group.
    workloads.cli.main = tr.wrap(workloads.cli.main, "cli.main")
    traced_op = tr.wrap(wl.run_inprocess, "bench.op")

    def run_op(op):
        tr.active = True
        try:
            return traced_op(op)
        finally:
            tr.active = False

    tr.active = False
    check_s = tally.check_s
    t = time.perf_counter()
    for n, op in enumerate(ops):
        tr.op = n
        tally.run(wl, op, run_op)
    traced_s = time.perf_counter() - t - (tally.check_s - check_s)
    tally.finish(wl)

    self_s = tr.layer_self_times()
    calls = tr.calls_per_layer()
    counts = tr.counts
    metrics = {
        "elements.built": (counts["elements.built"], "count"),
        "elements.sets_built": (counts["elements.sets_built"], "count"),
        "elements.eq_calls": (counts["elements.eq_calls"], "count"),
        "games.rows_built": (counts["games.rows_built"], "count"),
        "limits.enum_charged": (counts["limits.enum_charged"], "count"),
        "limits.refusals": (counts["limits.refusals"], "count"),
        "monoidal.calls": (calls["monoidal"], "count"),
        "exponential.calls": (calls["exponential"], "count"),
        "simulation.apex_points": (counts["simulation.apex_points"], "count"),
        "synthesis.pairs_kept": (counts["synthesis.pairs_kept"], "count"),
        "documents.bytes_out": (counts["documents.bytes_out"], "B"),
        "documents.bytes_in": (counts["documents.bytes_in"], "B"),
        "laws.checks": (counts["laws.checks"], "count"),
        "cli.startup_ms": (statistics.median(startup) * 1e3, "ms"),
        "trace.spans": (len(tr), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1) * 100, "%"),
    }
    for layer in ("elements", "games", "monoidal", "exponential", "additive",
                  "simulation", "synthesis", "laws", "cli"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for name, value in tr.inclusive_times().items():
        metrics[name] = (value, "s")
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    spans_path = WORK / "spans" / f"{wl.name}.tsv.gz"  # the latest traced run only
    tr.write(spans_path)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)), "traced_s": traced_s,
             "bench_self_s": self_s["bench"]}
    return metrics, tally, extra


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    workloads.write_metadata()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK)
    setup_samples, same_inputs = setup(wl)
    if args.trace:
        metrics, tally, extra = traced_run(wl)
    else:
        metrics, tally = timed_run(wl, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        extra = {}

    attempted = len(tally.latencies)
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
        "op_samples": attempted,
        "error_rate": {"value": tally.failed / attempted, "unit": "ratio"},
        "setup_samples_s": setup_samples,
        "op_median_ms": {label: statistics.median(v) * 1e3 for label, v in tally.by_label.items()},
        "inputs_repeat_identically": same_inputs,
        **extra,
    }
    result = {
        "correct": tally.failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
