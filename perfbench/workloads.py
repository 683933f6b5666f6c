"""The three workloads: law batteries, CLI document pipelines, synthesis.

A workload generates its inputs from the seed (``generate``), hands out its
ops round by round (``round``), runs one op (``run``; ``run_inprocess`` for
the traced run) and checks one op's output (``check``), outside the timed
region.  A round always has the same composition of op kinds, so a run's
figures do not depend on where the loop happens to stop.  Every workload
calls polygame through module attributes, so the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from polygame import cli, exponential, fixtures, laws, simulation, synthesis
from polygame.documents import dump_document, load_document
from polygame.simulation import check_simulation

import inputs


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class Laws:
    name = "laws"
    why = (
        "The paper's acceptance harness: it builds elements heavily through "
        "tensor, bang and comul_sim and leans on compose and equivalent, while "
        "synthesis and documents stay nearly idle."
    )
    SUITES = ("category", "monoidal", "biproduct", "exponential", "synthesis")
    # Every op's report digest is compared with a rerun of the same op.  The
    # exponential suite (most of the time) cycles over 12 seeds, so its
    # reruns happen inside the loop; the cheap suites take the next seed each
    # round, which spreads p50 over more seeds, and are rerun after the loop.
    CYCLE = 12

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.digests: dict[str, str] = {}

    def generate(self) -> str:
        self.base = self.seed * 1000
        return _digest(self.base)

    def round(self, r: int) -> list:
        ops = []
        for suite in self.SUITES:
            s = self.base + (r % self.CYCLE if suite == "exponential" else r)
            ops.append((f"{suite}:{s}", (suite, s)))
        return ops

    def traced_ops(self) -> list:
        return self.round(0) + self.round(1)

    def run(self, op):
        return laws.run_suite(*op[1])

    run_inprocess = run

    def finish(self) -> list[str]:
        return []

    def check(self, op, checks) -> bool:
        gating_ok = all(c["ok"] for c in checks if not c["name"].startswith("info:"))
        digest = _digest(checks)
        return gating_ok and self.digests.setdefault(op[0], digest) == digest


class Synthesis:
    name = "synthesis"
    why = (
        "The greatest-fixpoint layer dominates: long back-propagating chains "
        "expose quadratic peeling, and elements are only hashed and compared, "
        "never built, the opposite use from laws; documents stay idle."
    )

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.verified: dict[str, object] = {}

    def generate(self) -> str:
        """Three clusters of op cost: regions and strategies on random games,
        regions on chains, and max_simulation on pairs.  Each cluster holds
        several games, so that one game's peeling order (which sets its
        number of passes) does not decide where p50 and p90 fall."""
        rng = random.Random(self.seed)
        g, ops = {}, []
        for k in range(2):
            g[f"rand2500_{k}"] = inputs.random_game(rng, 2500, f"r{k}_")
            ops += [("alfred_region", (f"rand2500_{k}",)), ("dominic_region", (f"rand2500_{k}",))]
            g[f"rand1500_{k}"] = inputs.random_game(rng, 1500, f"q{k}_")
            ops += [("alfred_strategy", (f"rand1500_{k}",)), ("dominic_strategy", (f"rand1500_{k}",))]
        for k in range(4):
            g[f"chain600_{k}"] = inputs.alfred_chain(rng, 600, f"a{k}_")
            ops.append(("alfred_region", (f"chain600_{k}",)))
            g[f"dchain600_{k}"] = inputs.dominic_chain(rng, 600, f"e{k}_")
            ops.append(("dominic_region", (f"dchain600_{k}",)))
        for k in range(2):
            pairs = {"chain": (inputs.alfred_chain, 40), "rand": (inputs.random_game, 70)}
            for kind, (make, n) in pairs.items():
                pair = (f"{kind}{n}_{k}a", f"{kind}{n}_{k}b")
                for name in pair:
                    g[name] = make(rng, n, f"{name}_")
                ops.append(("max_simulation", pair))
        rng.shuffle(ops)
        self.games = g
        self.ops = [(f"{fn}:{'x'.join(names)}", (fn, names)) for fn, names in ops]
        return _digest([
            [op[0] for op in self.ops],
            {k: [len(v.states), len(v.next)] for k, v in g.items()},
        ])

    def round(self, r: int) -> list:
        return self.ops

    def traced_ops(self) -> list:
        return self.ops

    def run(self, op):
        fn, names = op[1]
        return getattr(synthesis, fn)(*(self.games[n] for n in names))

    run_inprocess = run

    def check(self, op, out) -> bool:
        label = op[0]
        if label in self.verified:
            return out == self.verified[label]
        fn, names = op[1]
        games = [self.games[n] for n in names]
        if fn == "max_simulation":
            pairs = {(out.leg1[r], out.leg2[r]) for r in out.apex}
            ok = not check_simulation(out) and pairs == inputs.simulation_relation_oracle(*games)
        else:
            side = fn.split("_")[0]
            oracle = getattr(inputs, f"{side}_region_oracle")(games[0])
            if fn.endswith("_region"):
                ok = out.side == side and set(out.states) == oracle
            else:
                footprint = out.leg2 if side == "alfred" else out.leg1
                ok = not check_simulation(out) and set(footprint.values()) == oracle
        if ok:
            self.verified[label] = out
        return ok

    def finish(self) -> list[str]:
        return []


class Cli:
    name = "cli"
    why = (
        "The user-facing path, where interpreter start and document "
        "load, validate and dump dominate; it mixes write-heavy builders with "
        "read-heavy checks, scripted refusals (exit 2) and 'no' answers (exit 3)."
    )

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work / "cli"
        self.first: dict[str, bytes] = {}

    def generate(self) -> str:
        """Write the documents and the script from a child process.

        The child builds the documents, so this process never holds large
        polygame values while it starts the op children: a child started
        from a large process would report that process's peak RSS as its own.
        """
        subprocess.run([sys.executable, __file__, str(self.seed), str(self.work)],
                       env=child_env(), check=True)
        self.script = [(label, tuple(op)) for label, op in
                       json.loads((self.work / "script.json").read_text(encoding="utf-8"))]
        return _digest({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(self.work.iterdir())})

    def round(self, r: int) -> list:
        return self.script

    def traced_ops(self) -> list:
        return self.script

    def run(self, op):
        args, _ = op[1]
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), *args],
            cwd=self.work,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        return proc.returncode, proc.stdout

    def run_inprocess(self, op):
        args, _ = op[1]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(args, standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode("utf-8")

    def check(self, op, out) -> bool:
        """Exit code as scripted, and stdout the same as the op's first run."""
        code, stdout = out
        _, expected = op[1]
        return code == expected and self.first.setdefault(op[0], stdout) == stdout

    def finish(self) -> list[str]:
        """Labels of ops whose stdout does not re-dump byte for byte through
        load_document/dump_document, or holds an invalid simulation."""
        return [label for label, stdout in self.first.items() if not _redumps(stdout)]


def _redumps(stdout: bytes) -> bool:
    if not stdout:
        return True
    text = stdout.decode("utf-8")
    kind, value = load_document(text)
    if dump_document(kind, value) != text:
        return False
    return kind != "simulation" or not check_simulation(value)


def write_cli_inputs(seed: int, work: Path) -> None:
    """The cli workload's documents and script, written into ``work``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    b3 = exponential.bang(fixtures.COIN, 3)
    docs = {
        "b3.json": ("game", b3),
        "b4.json": ("game", exponential.bang(fixtures.COIN, 4)),
        "ms.json": ("simulation", synthesis.max_simulation(b3, b3)),
        "msc.json": ("simulation", synthesis.max_simulation(fixtures.COIN, fixtures.COIN)),
        "idc.json": ("simulation", simulation.identity_sim(fixtures.COIN)),
        "g1.json": ("game", inputs.random_game(rng, 5, "g", 2, 2, dead=0.1)),
        "g2.json": ("game", inputs.random_game(rng, 6, "k", 2, 2, dead=0.1)),
    }
    texts = {name: dump_document(kind, value) for name, (kind, value) in docs.items()}
    texts["bad.json"] = _corrupt_gamma(texts["msc.json"])
    texts["script.json"] = json.dumps(_cli_script(rng))
    for name, text in texts.items():
        (work / name).write_text(text, encoding="utf-8")


def _corrupt_gamma(text: str) -> str:
    """A well-formed simulation document whose first gamma entry is wrong."""
    doc = json.loads(text)
    payload = doc["payload"]
    key = min(payload["gamma"])
    apex = [p for p in payload["apex"] if p != payload["gamma"][key]]
    payload["gamma"][key] = apex[0]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cli_script(rng: random.Random) -> list:
    """25 invocations with their scripted exit codes, in seeded order.

    The kinds of command are fixed; the seed picks fixtures, generated games,
    modes and law seeds among choices of like cost, and the order.
    """
    fixture = lambda: rng.choice(("coin", "trap", "oneway"))  # noqa: E731
    game = lambda: rng.choice(("g1.json", "g2.json"))  # noqa: E731
    side = lambda: rng.choice(("alfred", "dominic"))  # noqa: E731
    script = [
        (["bang", fixture(), "3"], 0),
        (["bang", game(), "2"], 0),
        (["tensor", "b3.json", fixture()], 0),
        (["tensor", game(), game()], 0),
        (["dual", fixture()], 0),
        (["dual", game()], 0),
        (["oplus", fixture(), game()], 0),
        (["lollipop", fixture(), fixture()], 0),
        (["power", fixture(), "2"], 0),
        (["compose", "ms.json", "ms.json"], 0),
        (["compose", "msc.json", "msc.json"], 0),
        (["max-sim", "b3.json", "b3.json"], 0),
        (["max-sim", game(), game()], 0),
        (["synth", game(), "--side", side()], 0),
        (["synth", game(), "--side", side(), "--region"], 0),
        (["check-sim", "ms.json"], 0),
        (["check-sim", "msc.json"], 0),
        (["check-sim", "bad.json"], 3),
        (["validate", "b4.json"], 0),
        (["validate", game()], 0),
        (["equiv", "msc.json", "msc.json", "--mode", rng.choice(("full", "span"))], 0),
        (["equiv", "msc.json", "idc.json"], 3),
        (["equiv", "ms.json", "ms.json"], 2),
        (["bang", "coin", "6", "--max-enum", "1000"], 2),
        (["laws", "--suite", rng.choice(("category", "biproduct", "synthesis")),
          "--seed", str(rng.randrange(1000))], 0),
    ]
    rng.shuffle(script)
    return [(" ".join(args), (args, code)) for args, code in script]


# -- child processes ----------------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "polygame"
SITE = ROOT / ".perfbench_work" / "site"


def write_metadata() -> None:
    """Install-style metadata for the source tree, so ``--version`` resolves.

    The checkout is run from source, not installed; this is the one file
    ``pip install -e`` would add that the CLI reads.
    """
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    meta = SITE / f"{project['name']}-{project['version']}.dist-info"
    meta.mkdir(parents=True, exist_ok=True)
    (meta / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {project['name']}\nVersion: {project['version']}\n",
        encoding="utf-8",
    )


def child_env() -> dict:
    """The workload's environment (hash seed included) with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(SITE)])
    return env


WORKLOADS = {w.name: w for w in (Laws, Cli, Synthesis)}

if __name__ == "__main__":
    write_cli_inputs(int(sys.argv[1]), Path(sys.argv[2]))
