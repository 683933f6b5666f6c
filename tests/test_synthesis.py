"""Winning regions, non-losing strategies, and the largest simulation."""

import hashlib
import itertools
import random

import pytest

from polygame import synthesis
from polygame.documents import dump_document, load_document
from polygame.elements import atom
from polygame.fixtures import COIN, EMPTY, ONEWAY, TRAP, UNIT, unit_game
from polygame.games import make_game, validate_game
from polygame.laws import random_game, random_simulation
from polygame.monoidal import dual
from polygame.simulation import check_simulation
from polygame.synthesis import (
    alfred_region,
    alfred_strategy,
    dominic_region,
    dominic_strategy,
    max_simulation,
    sim_exists,
)

from conftest import FIXTURE_GAMES, dump_v1


def region_oracle(g, side):
    """Downward iteration of the one-step survival operator, written plainly."""
    good = set(g.states)
    while True:
        if side == "alfred":
            keep = {
                i for i in good
                if any(
                    all(g.next[(i, a, d)] in good for d in g.counters[(i, a)])
                    for a in g.moves[i]
                )
            }
        else:
            keep = {
                i for i in good
                if all(
                    any(g.next[(i, a, d)] in good for d in g.counters[(i, a)])
                    for a in g.moves[i]
                )
            }
        if keep == good:
            return good
        good = keep


def relation_oracle(g1, g2):
    """Greatest forall-exists-forall-exists relation, iterated directly."""
    rel = set(itertools.product(g1.states, g2.states))
    while True:
        keep = set()
        for i1, i2 in rel:
            good = True
            for a1 in g1.moves[i1]:
                found = False
                for a2 in g2.moves[i2]:
                    if all(
                        any(
                            (g1.next[(i1, a1, d1)], g2.next[(i2, a2, d2)]) in rel
                            for d1 in g1.counters[(i1, a1)]
                        )
                        for d2 in g2.counters[(i2, a2)]
                    ):
                        found = True
                        break
                if not found:
                    good = False
                    break
            if good:
                keep.add((i1, i2))
        if keep == rel:
            return rel
        rel = keep


def chain(rng, n, side):
    """A chain that loses at its far end, with escapes only near its start.

    State k moves on to k+1.  For Alfred, some states also have a risky move
    (one counter forward, one further on) and the last state has no move; for
    Dominic, every move has two forward counters and the last state's move
    has none.  A few of the first states can leave for a safe loop, so the
    losing end propagates back over almost the whole chain, one state at a
    time.
    """
    st = [atom(f"k{k}") for k in range(n)]
    safe = atom("safe")
    go, alt, leave = atom("go"), atom("alt"), atom("leave")
    d, e, out = atom("d"), atom("e"), atom("out")
    moves, counters, nxt = {safe: [go]}, {(safe, go): [d]}, {(safe, go, d): safe}
    exits = rng.sample(range(5), 2)
    for k, s in enumerate(st):
        if k == n - 1:
            moves[s] = [] if side == "alfred" else [go]
            counters.update({} if side == "alfred" else {(s, go): []})
            continue
        moves[s] = [go]
        far = st[rng.randint(k + 1, n - 1)]
        if side == "alfred":
            counters[(s, go)] = [d]
            nxt[(s, go, d)] = st[k + 1]
            if rng.random() < 0.4:
                moves[s].append(alt)
                counters[(s, alt)] = [d, e]
                nxt[(s, alt, d)], nxt[(s, alt, e)] = st[k + 1], far
            if k in exits:
                moves[s].append(leave)
                counters[(s, leave)] = [d]
                nxt[(s, leave, d)] = safe
        else:
            counters[(s, go)] = [d, e] + ([out] if k in exits else [])
            nxt[(s, go, d)], nxt[(s, go, e)] = st[k + 1], far
            if k in exits:
                nxt[(s, go, out)] = safe
    return make_game([*st, safe], moves, counters, nxt)


def names(region):
    return sorted(e.key[1] for e in region.states)


def test_frozen_regions():
    # TRAP: the one move at ok risks the dead end, so nothing survives
    assert names(alfred_region(TRAP)) == []
    # ONEWAY: the risky counter is gone, ok loops safely
    assert names(alfred_region(ONEWAY)) == ["ok"]
    assert names(alfred_region(COIN)) == ["h", "t"]
    # Dominic may always answer "safe": every TRAP state is fine for him
    assert names(dominic_region(TRAP)) == ["dead", "ok"]


def test_regions_match_plain_iteration(rng):
    pool = FIXTURE_GAMES + [random_game(rng) for _ in range(30)]
    pool += [random_game(rng, 6, 3, 3) for _ in range(30)]
    pool += [chain(rng, 60, side) for side in ("alfred", "dominic") for _ in range(3)]
    for g in pool:
        assert set(alfred_region(g).states) == region_oracle(g, "alfred")
        assert set(dominic_region(g).states) == region_oracle(g, "dominic")


def test_region_sides_are_recorded():
    assert alfred_region(COIN).side == "alfred"
    assert dominic_region(COIN).side == "dominic"


def test_strategies_are_valid_simulations(rng):
    for g in FIXTURE_GAMES + [random_game(rng) for _ in range(20)]:
        st_a = alfred_strategy(g)
        st_d = dominic_strategy(g)
        assert check_simulation(st_a) == []
        assert check_simulation(st_d) == []
        assert st_a.src == unit_game() and st_a.dst == g
        assert st_d.src == g and st_d.dst == unit_game()
        # the strategy lives exactly on the winning region
        assert {st_a.leg2[r] for r in st_a.apex} == set(alfred_region(g).states)
        assert {st_d.leg1[r] for r in st_d.apex} == set(dominic_region(g).states)


def test_empty_region_gives_empty_strategy():
    st = alfred_strategy(TRAP)
    assert len(st.apex) == 0
    assert check_simulation(st) == []
    assert not sim_exists(TRAP, "alfred")
    assert sim_exists(TRAP, "dominic")
    assert sim_exists(COIN, "alfred")


def test_dominic_strategy_frozen_for_oneway():
    st = dominic_strategy(ONEWAY)
    assert len(st.apex) == 2


# every valid strategy's footprint sits inside the synthesized region
def test_region_completeness_against_fuzzed_strategies(rng):
    for _ in range(60):
        g = rng.choice(FIXTURE_GAMES + [random_game(rng)])
        fuzz_a = random_simulation(rng, unit_game(), g)
        assert {fuzz_a.leg2[r] for r in fuzz_a.apex} <= set(alfred_region(g).states)
        fuzz_d = random_simulation(rng, g, unit_game())
        assert {fuzz_d.leg1[r] for r in fuzz_d.apex} <= set(dominic_region(g).states)


def test_max_simulation_frozen_and_sound():
    best = max_simulation(COIN, COIN)
    assert check_simulation(best) == []
    assert len(best.apex) == 4
    pairs = {(best.leg1[r], best.leg2[r]) for r in best.apex}
    assert pairs == set(itertools.product(COIN.states, COIN.states))


def test_max_simulation_matches_relation_iteration(rng):
    pool = [(COIN, TRAP), (TRAP, ONEWAY), (UNIT, COIN)]
    pool += [(random_game(rng, 2, 2, 2), random_game(rng, 2, 2, 2)) for _ in range(15)]
    pool += [(random_game(rng, 6, 3, 3), random_game(rng, 5, 3, 3)) for _ in range(10)]
    pool += [(chain(rng, 60, "alfred"), chain(rng, 60, side)) for side in ("alfred", "dominic")]
    for g1, g2 in pool:
        best = max_simulation(g1, g2)
        assert check_simulation(best) == []
        got = {(best.leg1[r], best.leg2[r]) for r in best.apex}
        assert got == relation_oracle(g1, g2)


# any valid simulation's state pairs are below the largest relation
def test_max_simulation_dominates_fuzzed_simulations(rng):
    for _ in range(40):
        g1 = rng.choice(FIXTURE_GAMES)
        g2 = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, g1, g2)
        best = max_simulation(g1, g2)
        rel = {(best.leg1[r], best.leg2[r]) for r in best.apex}
        assert {(s.leg1[r], s.leg2[r]) for r in s.apex} <= rel


# a strategy against P is a strategy for the other player in the dual
def test_duality_bridge_on_fixtures():
    for g in FIXTURE_GAMES + [EMPTY]:
        assert set(alfred_region(dual(g)).states) == set(dominic_region(g).states)


def test_empty_game_synthesis_is_trivial():
    assert names(alfred_region(EMPTY)) == []
    assert names(dominic_region(EMPTY)) == []
    assert not sim_exists(EMPTY, "alfred")
    assert not sim_exists(EMPTY, "dominic")
    # with no states on the right the pair index has width 0, so every
    # successor position is 0
    for s in (max_simulation(EMPTY, COIN), max_simulation(COIN, EMPTY),
              max_simulation(EMPTY, EMPTY), alfred_strategy(EMPTY), dominic_strategy(EMPTY)):
        assert len(s.apex) == 0
        assert check_simulation(s) == []


def test_chains_lose_almost_everywhere(rng):
    # the pools above only exercise long back-propagation if these hold
    for side, region in (("alfred", alfred_region), ("dominic", dominic_region)):
        g = chain(rng, 60, side)
        assert 2 <= len(region(g).states) <= 6


# digests of the documents the earlier whole-set peeling implementation
# produced for these inputs: the same fixpoints, and in every table the first
# witness in canonical order.  They were taken over format_version 1, so each
# document is loaded back and hashed in the reference version 1 encoding.
FROZEN = {
    "alfred_strategy": "dd7f59039f8bee127db1a41370f60252ed12844c81cf8c02bc1fb3c6ca99d49c",
    "dominic_strategy": "0b054675940938cde19c93f9cece8d14a375f02a1772109491fc5be609ca87f1",
    "max_simulation": "b82d2bee8220e8be01913e044f839f8a7883717c93b4803d84d70979bcd69e33",
}


def test_synthesis_documents_frozen():
    rng = random.Random(1209)
    games = [random_game(rng, 6, 3, 3) for _ in range(24)]
    runs = {
        "alfred_strategy": [alfred_strategy(g) for g in games],
        "dominic_strategy": [dominic_strategy(g) for g in games],
        "max_simulation": [max_simulation(g1, g2) for g1, g2 in zip(games[::2], games[1::2])],
    }
    for name, sims in runs.items():
        h = hashlib.sha256()
        for s in sims:
            _, back = load_document(dump_document("simulation", s))
            h.update(dump_v1("simulation", back).encode())
        assert h.hexdigest() == FROZEN[name], name


def _invalid_games():
    ok, go, d = atom("ok"), atom("go"), atom("d")
    stray = make_game([ok], {ok: [go]}, {(ok, go): [d]}, {(ok, go, d): atom("nowhere")})
    no_fiber = make_game([ok], {ok: [go]}, {}, {})
    return [(stray, "is not a state"), (no_fiber, "missing counter fiber")]


@pytest.mark.parametrize("g, why", _invalid_games(), ids=["stray_successor", "no_counter_fiber"])
@pytest.mark.parametrize(
    "call",
    [alfred_region, dominic_region, alfred_strategy, dominic_strategy,
     lambda g: sim_exists(g, "alfred"), lambda g: sim_exists(g, "dominic"),
     lambda g: max_simulation(g, COIN), lambda g: max_simulation(COIN, g)],
    ids=["alfred_region", "dominic_region", "alfred_strategy", "dominic_strategy",
         "sim_exists_alfred", "sim_exists_dominic", "max_simulation_src", "max_simulation_dst"],
)
def test_synthesis_refuses_invalid_games(g, why, call):
    with pytest.raises(ValueError) as raised:
        call(g)
    assert str(raised.value) == "invalid game: " + "; ".join(validate_game(g))
    assert why in str(raised.value)


def test_sim_exists_refuses_unknown_side():
    with pytest.raises(ValueError) as raised:
        sim_exists(COIN, "nobody")
    assert str(raised.value) == "unknown side 'nobody'"


# A region costs one check per state plus one per removed successor, so the
# checks never outnumber the states and successor rows together.
def test_region_checks_are_linear(rng, monkeypatch):
    calls = []
    fixpoint = synthesis._greatest_fixpoint

    def counted(items, holds, dependents):
        def check(k, s):
            calls.append(k)
            return holds(k, s)
        return fixpoint(items, check, dependents)

    monkeypatch.setattr(synthesis, "_greatest_fixpoint", counted)
    pool = [chain(rng, 60, side) for side in ("alfred", "dominic")]
    pool += [random_game(rng, 6, 3, 3) for _ in range(20)]
    for g in pool:
        for region in (alfred_region, dominic_region):
            calls.clear()
            region(g)
            assert len(calls) <= len(g.states) + len(g.next), region.__name__
