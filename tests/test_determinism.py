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


# The exact apex bijection ``equivalent`` picks, digested, on the category
# suite's associativity pairs, on simulations with duplicated witnesses, on a
# unit law and on a pair with no bijection; pinned before its search was
# rewritten, so any change of which witness pairs with which shows here.
EQUIVALENT_MAPPINGS = """
import hashlib
import random
from polygame.fixtures import COIN, ONEWAY, TRAP
from polygame.laws import SUITES, random_simulation
from polygame.simulation import compose, equivalent, identity_sim

def pin(name, s, t):
    iso = equivalent(s, t, search_bound=len(s.apex))
    pairs = [] if iso is None else sorted(f"{k!r}>{v!r}" for k, v in iso.mapping.items())
    text = "none" if iso is None else ";".join(pairs)
    print(name, hashlib.sha256(text.encode()).hexdigest())

# the category suite's associativity pairs, as its draw makes them
draw, _ = SUITES["category"]
for seed, rounds in ((0, (2, 5, 9)), (11, (0, 3, 6))):
    composites = draw(random.Random(seed))["composites"]
    for n in rounds:
        pin(f"assoc-{seed}-{n}", *composites[n])
# duplicated witnesses: twins the search must tell apart, or pair in order
for k, (g1, g2) in enumerate(((COIN, COIN), (TRAP, COIN), (ONEWAY, COIN))):
    s = random_simulation(random.Random(k), g1, g2, dup_chance=0.5)
    pin(f"self-{k}", s, s)
s = random_simulation(random.Random(0), COIN, COIN, dup_chance=0.5)
pin("left-unit", compose(identity_sim(COIN), s), s)
pin("other", s, random_simulation(random.Random(2), COIN, COIN, dup_chance=0.5))
"""

FROZEN_MAPPINGS = {
    "assoc-0-2": "7f9846cfd86cfeb68cbbb3057504bc5ebaaff3f13d495d0bd476fa55d2d24103",
    "assoc-0-5": "7a14f5d547e7b8c95ce14b07c16a01691faee84783e4205b7f009d540578b364",
    "assoc-0-9": "da9a5f88504a83d19be4ad61fa3523845ee42b922bce67b0c3ea63ccc3bcc35b",
    "assoc-11-0": "ccec4ff797992bde9a8ae4cb6ad2e3e3b77981beb9e89be0d606e9be03a328f7",
    "assoc-11-3": "bb858bc65dd611d2af3b964a5796355b6d15e5ae33df20463d263d6f93d49e14",
    "assoc-11-6": "91968b29a2fec89b6d0d9586856b2a0f6b59cc5395840c2082d4946195401852",
    "self-0": "82a4c5c63d06583f6074ac2476d87fef16cb6abd358f901e0011958dbc34b38c",
    "self-1": "b49e273d87547957912dbce28f2f1e5cc96586de4c9d81117751ccae148b614c",
    "self-2": "0aa9caec9d3d23e8c133bbbdd121241482e132796e6dfd9fb0bf177fd1b99b1f",
    "left-unit": "660df24dd4d5515c7780be5a5eb44b0dcd313d2e515d7b3a35cf158625b11269",
    "other": "140bedbf9c3f6d56a9846d2ba7088798683f4da0c248231336e6a05679e4fdfe",
}


def test_equivalent_mappings_frozen_across_hash_seeds():
    outs = [run(["-c", EQUIVALENT_MAPPINGS], seed) for seed in SEEDS]
    for done in outs:
        assert done.returncode == 0, done.stderr.decode()
    first, second = (dict(map(str.split, done.stdout.decode().splitlines())) for done in outs)
    assert first == second == FROZEN_MAPPINGS
