"""Shared helpers for the test suite.

The helpers here are deliberately *independent* of the library internals:
``valid_by_definition`` re-states the simulation condition as four raw
quantifier loops so the checker has something to be measured against, and
``eq`` wraps the equivalence search with a bound wide enough for every
composite built in the tests, and ``tensor_by_loops`` writes the tensor's
tables as plain nested loops, the reference ``monoidal.tensor`` is graded
against.  ``dump_v1`` is the encoder of the retired ``format_version: 1``,
kept as the reference the frozen digests were taken with.  ``walk_tables``
reads a simulation's tables key by key in walk order, the reference a full
read is graded against.  ``run_cli`` runs one ``polygame`` command line in
process.  The ``*_total`` functions count, in plain arithmetic, what each
builder charges its enumeration budget.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import random
from collections import Counter
from typing import NamedTuple

import pytest

from polygame.cli import main
from polygame.elements import atom, fun, mset, pair, star, tup
from polygame.fixtures import ALL_FIXTURES, COIN, EMPTY, ONEWAY, TRAP, UNIT
from polygame.games import make_game
from polygame.simulation import Simulation, equivalent

FIXTURE_GAMES = [UNIT, COIN, TRAP, ONEWAY]  # EMPTY kept separate: no states
FIXTURE_ITEMS = sorted(ALL_FIXTURES.items())


def eq(s: Simulation, t: Simulation, mode: str = "full") -> bool:
    """Morphism equality: two-sided span iso respecting the transports."""
    bound = max(16, len(s.apex), len(t.apex))
    return equivalent(s, t, mode, search_bound=bound) is not None


def tensor_by_loops(p1, p2):
    """The tensor of two games, one pair at a time: no row builder, no shared
    fibers and no product cache, just the definition."""
    states, moves, counters, nxt = [], {}, {}, {}
    for i1 in p1.states:
        for i2 in p2.states:
            i = pair(i1, i2)
            states.append(i)
            moves[i] = []
            for a1 in p1.moves[i1]:
                for a2 in p2.moves[i2]:
                    a = pair(a1, a2)
                    moves[i].append(a)
                    counters[(i, a)] = []
                    for d1 in p1.counters[(i1, a1)]:
                        for d2 in p2.counters[(i2, a2)]:
                            d = pair(d1, d2)
                            counters[(i, a)].append(d)
                            nxt[(i, a, d)] = pair(p1.next[(i1, a1, d1)], p2.next[(i2, a2, d2)])
    return make_game(states, moves, counters, nxt)


# -- enumeration totals -------------------------------------------------------------
# What each builder charges its budget: its states, then per row the number of
# arrangements, the product for its moves and the products for its
# product-shaped counters.  Counters listed as pairs are linear in what was
# charged already and cost nothing.


def lollipop_total(p2, p3) -> int:
    total = len(p2.states) * len(p3.states)
    for i2 in p2.states:
        for i3 in p3.states:
            # per P2-move a2 and P3-move a3, the maps from a3's counters to a2's
            pools = [
                [len(p2.counters[(i2, a2)]) ** len(p3.counters[(i3, a3)]) for a3 in p3.moves[i3]]
                for a2 in p2.moves[i2]
            ]
            total += sum(map(sum, pools)) + math.prod(map(sum, pools))
    return total


def dual_total(p) -> int:
    return sum(math.prod(len(p.counters[(i, a)]) for a in p.moves[i]) for i in p.states)


def _copies_total(p, word) -> int:
    """One arrangement of copies: its moves, and every move's counters."""
    moves = math.prod(len(p.moves[u]) for u in word)
    counters = math.prod(sum(len(p.counters[(u, a)]) for a in p.moves[u]) for u in word)
    return moves + counters


def tensor_power_total(p, k: int) -> int:
    words = list(itertools.product(p.states.items, repeat=k))
    return len(words) + sum(_copies_total(p, w) for w in words)


def power_total(p, k: int) -> int:
    total = 0
    for m in itertools.combinations_with_replacement(p.states.items, k):
        arrangements = math.factorial(k) // math.prod(map(math.factorial, Counter(m).values()))
        total += 1 + arrangements * (1 + _copies_total(p, m))
    return total


def bang_total(p, bound: int) -> int:
    return sum(power_total(p, k) for k in range(bound + 1))


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*args: str) -> CliResult:
    """``polygame ARGS`` in this process: the exit code (0 when ``main``
    returns, else its SystemExit's) and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def valid_by_definition(s: Simulation) -> bool:
    """The simulation condition, written out as plain loops.

    A diagram is valid when the legs/transports are total with the right
    domains and, for every apex point r and source move a1:

        alpha gives a counter-move a2 of the target,
        for every target counter d2 beta gives a source counter d1,
        and gamma names an apex point sitting over both successor states.

    This is the oracle the checker is graded against; it never calls
    check_simulation.
    """
    src, dst = s.src, s.dst
    for r in s.apex:
        if r not in s.leg1 or r not in s.leg2:
            return False
        i1, i2 = s.leg1[r], s.leg2[r]
        if i1 not in src.states or i2 not in dst.states:
            return False
        for a1 in src.moves[i1]:
            if (r, a1) not in s.alpha:
                return False
            a2 = s.alpha[(r, a1)]
            if a2 not in dst.moves[i2]:
                return False
            for d2 in dst.counters[(i2, a2)]:
                if (r, a1, d2) not in s.beta or (r, a1, d2) not in s.gamma:
                    return False
                d1 = s.beta[(r, a1, d2)]
                if d1 not in src.counters[(i1, a1)]:
                    return False
                r2 = s.gamma[(r, a1, d2)]
                if r2 not in s.apex:
                    return False
                if s.leg1[r2] != src.next[(i1, a1, d1)]:
                    return False
                if s.leg2[r2] != dst.next[(i2, a2, d2)]:
                    return False
    # no stray table rows pointing at unknown apex points
    for (r, _a1) in s.alpha:
        if r not in s.apex:
            return False
    for (r, _a1, _d2) in s.beta:
        if r not in s.apex:
            return False
    for (r, _a1, _d2) in s.gamma:
        if r not in s.apex:
            return False
    return True


def walk_tables(s: Simulation) -> tuple[dict, dict, dict]:
    """alpha, beta and gamma of s as plain dicts, walked up front.

    The walk looks each key up in turn, in the order a builder that writes
    its tables before returning would: apex points, then the source moves at
    leg1, then the target counters of alpha's answer at leg2, each in
    canonical order.  It never iterates a table, so it reads a table written
    on demand one row at a time, and a full read of the same simulation must
    give these dicts, in this order.
    """
    alpha, beta, gamma = {}, {}, {}
    for r in s.apex:
        for a1 in s.src.moves[s.leg1[r]]:
            a2 = alpha[(r, a1)] = s.alpha[(r, a1)]
            for d2 in s.dst.counters[(s.leg2[r], a2)]:
                k = (r, a1, d2)
                beta[k] = s.beta[k]
                gamma[k] = s.gamma[k]
    return alpha, beta, gamma


def tampered(sim: Simulation, rng: random.Random) -> Simulation:
    """Break one table entry of a valid simulation (for negative fuzzing).

    Returns a new Simulation with a single mutated row; the mutation is
    chosen so it *can* break validity but is not guaranteed to (e.g. a
    rerouted gamma may land on an equally good point) — callers must grade
    the result with the oracle rather than assume invalidity.
    """
    alpha = dict(sim.alpha)
    beta = dict(sim.beta)
    gamma = dict(sim.gamma)
    choices = []
    if alpha:
        choices.append("alpha")
    if beta:
        choices.append("beta")
    if gamma:
        choices.append("gamma")
    if not choices:
        return sim
    what = rng.choice(choices)
    if what == "alpha":
        key = rng.choice(sorted(alpha))
        i2 = sim.leg2[key[0]]
        moves = sorted(sim.dst.moves[i2]) or [atom("bogus")]
        alpha[key] = rng.choice(moves)
    elif what == "beta":
        key = rng.choice(sorted(beta))
        i1 = sim.leg1[key[0]]
        a1 = key[1]
        counters = sorted(sim.src.counters[(i1, a1)]) or [atom("bogus")]
        beta[key] = rng.choice(counters)
    else:
        key = rng.choice(sorted(gamma))
        gamma[key] = rng.choice(sorted(sim.apex))
    return Simulation(
        src=sim.src, dst=sim.dst, apex=sim.apex,
        leg1=sim.leg1, leg2=sim.leg2,
        alpha=alpha, beta=beta, gamma=gamma,
    )


def element_pool(depth: int = 3):
    """A spread of elements across every constructor, up to the given depth."""
    leaves = [atom("a"), atom("b"), atom("z9"), star()]
    pool = list(leaves)
    for _ in range(depth - 1):
        fresh = [
            pair(pool[0], pool[-1]),
            tup(),
            tup(pool[0], pool[1], pool[0]),
            mset([pool[0], pool[0], pool[1]]),
            fun({leaves[0]: pool[-1], leaves[1]: pool[0]}),
        ]
        pool.extend(fresh)
    return pool


@pytest.fixture
def rng():
    return random.Random(20260822)


# -- format_version 1, as a reference encoder -------------------------------------
# Version 1 wrote each element as its whole term at every occurrence, and keyed
# tables by the compact JSON text of a composite.  The frozen digests in the
# tests were taken over these bytes; a value loaded back from a current
# document and re-encoded here must still reproduce them.


# Elements are interned and immutable, so each one's encoding and key text is
# computed once per process; the large coherence-map digests need this.
@functools.cache
def encode_element_v1(e):
    k = e.kind
    if k == "atom":
        return e.data
    if k == "star":
        return "star"
    if k == "pair":
        return {"pair": [encode_element_v1(x) for x in e.data]}
    if k in ("tuple", "mset"):
        return {k: [encode_element_v1(x) for x in e.data]}
    return {"fun": [[encode_element_v1(a), encode_element_v1(b)] for a, b in e.data]}


@functools.cache
def _key_v1(*es):
    e = es[0] if len(es) == 1 else pair(*es) if len(es) == 2 else tup(*es)
    return json.dumps(encode_element_v1(e), sort_keys=True, separators=(",", ":"))


def encode_game_v1(g):
    moves, counters, nxt = {}, {}, {}
    for i in g.states:
        moves[_key_v1(i)] = [encode_element_v1(a) for a in g.moves[i]]
        for a in g.moves[i]:
            counters[_key_v1(i, a)] = [encode_element_v1(d) for d in g.counters[(i, a)]]
            for d in g.counters[(i, a)]:
                nxt[_key_v1(i, a, d)] = encode_element_v1(g.next[(i, a, d)])
    return {"states": [encode_element_v1(i) for i in g.states],
            "moves": moves, "counters": counters, "next": nxt}


def encode_simulation_v1(s):
    def table(rows):
        return {_key_v1(*k) if isinstance(k, tuple) else _key_v1(k): encode_element_v1(v)
                for k, v in rows.items()}

    return {"src": encode_game_v1(s.src), "dst": encode_game_v1(s.dst),
            "apex": [encode_element_v1(r) for r in s.apex],
            "leg1": table(s.leg1), "leg2": table(s.leg2),
            "alpha": table(s.alpha), "beta": table(s.beta), "gamma": table(s.gamma)}


def dump_v1(kind, value):
    """The compact version 1 document of a game, simulation or report."""
    encode = {"game": encode_game_v1, "simulation": encode_simulation_v1}.get(kind)
    doc = {"format_version": 1, "kind": kind,
           "payload": encode(value) if encode else value}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
