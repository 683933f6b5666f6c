"""Diagnostics come out in the same order in every process.

Elements hash by identity, so a validator that walks a set of them reports in
address order, which changes from run to run.  Each check here runs in fresh
interpreters under two hash seeds and compares what they print.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("0", "4242")

# beta emptied on the largest relation-shaped simulation between two bounded
# replays of the coin: 119 problems.  The game drops its move table, so its
# states lack move fibers and every counter and successor key is unexpected.
BROKEN = """
import json, sys
from polygame.documents import dump_document
from polygame.exponential import bang
from polygame.fixtures import COIN
from polygame.games import Game, validate_game
from polygame.simulation import Simulation, check_simulation
from polygame.synthesis import max_simulation

s = max_simulation(bang(COIN, 2), bang(COIN, 2))
s = Simulation(s.src, s.dst, s.apex, s.leg1, s.leg2, s.alpha, {}, s.gamma)
g = bang(COIN, 2)
g = Game(g.states, {}, g.counters, g.next)
if len(sys.argv) > 1:
    with open(sys.argv[1], "w") as fh:
        fh.write(dump_document("simulation", s))
print(json.dumps({"simulation": check_simulation(s), "game": validate_game(g)}))
"""


def run(args, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
    )


def test_problem_lists_agree_across_hash_seeds():
    outs = [run(["-c", BROKEN], seed) for seed in SEEDS]
    for done in outs:
        assert done.returncode == 0, done.stderr.decode()
    first, second = (json.loads(done.stdout) for done in outs)
    assert len(first["simulation"]) == 119
    assert first["simulation"] == second["simulation"]
    assert len(first["game"]) > 1
    assert first["game"] == second["game"]


def test_check_sim_report_bytes_agree_across_hash_seeds(tmp_path):
    doc = tmp_path / "broken.json"
    assert run(["-c", BROKEN, str(doc)], SEEDS[0]).returncode == 0
    outs = [run(["-m", "polygame.cli", "check-sim", str(doc)], seed) for seed in SEEDS]
    assert [done.returncode for done in outs] == [3, 3]
    assert outs[0].stdout == outs[1].stdout
