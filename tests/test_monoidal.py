"""Tensor, internal hom, currying, evaluation, duals."""

import itertools
import random

import pytest

from polygame.elements import FiniteSet, atom, pair
from polygame.exponential import bang
from polygame.fixtures import ALL_FIXTURES, COIN, EMPTY, ONEWAY, TRAP, UNIT
from polygame.games import carrier_iso, make_game, validate_game
from polygame.laws import random_game, random_simulation
from polygame.limits import SizeRefused
from polygame.monoidal import (curry, dual, eval_sim, lollipop, structural_iso, tensor,
                               tensor_sim, uncurry)
from polygame.simulation import _relabel_sim, check_simulation, compose, identity_sim
from polygame.fixtures import unit_game

from conftest import FIXTURE_GAMES, eq, tensor_by_loops


def state(g, name):
    return [s for s in g.states if s.key[1] == name][0]


def test_tensor_carrier_is_pointwise_product():
    g = tensor(COIN, TRAP)
    assert validate_game(g) == []
    assert len(g.states) == len(COIN.states) * len(TRAP.states)
    for st in g.states:
        i1, i2 = st.fst, st.snd
        assert len(g.moves[st]) == len(COIN.moves[i1]) * len(TRAP.moves[i2])
        for mv in g.moves[st]:
            a1, a2 = mv.fst, mv.snd
            assert len(g.counters[(st, mv)]) == (
                len(COIN.counters[(i1, a1)]) * len(TRAP.counters[(i2, a2)])
            )
            for c in g.counters[(st, mv)]:
                nxt = g.next[(st, mv, c)]
                assert nxt.fst == COIN.next[(i1, a1, c.fst)]
                assert nxt.snd == TRAP.next[(i2, a2, c.snd)]


BP = bang(COIN, 2)


def _tensor_cases():
    rng = random.Random(20)
    pairs = [(random_game(rng, 4, 3, 3), random_game(rng, 4, 3, 3)) for _ in range(30)]
    pairs += [(EMPTY, COIN), (COIN, EMPTY), (UNIT, UNIT), (UNIT, TRAP), (TRAP, ONEWAY)]
    return pairs + [(BP, tensor(BP, BP)), (tensor(BP, BP), BP)]


@pytest.mark.parametrize("p1, p2", _tensor_cases())
def test_tensor_matches_the_tensor_written_as_nested_loops(p1, p2):
    assert tensor(p1, p2) == tensor_by_loops(p1, p2)


def test_triple_tensor_holds_one_fiber_object_per_distinct_counter_tuple():
    for g in (tensor(tensor(BP, BP), BP), tensor(BP, tensor(BP, BP))):
        fibers = list(g.counters.values())
        assert len(fibers) == 343 and len(g.next) == 9261
        assert len({id(f) for f in fibers}) == len(set(fibers)) == 27


def test_a_relabelling_built_by_hand_is_the_associator():
    src, dst = tensor(tensor(BP, BP), BP), tensor(BP, tensor(BP, BP))
    s = _relabel_sim(src, dst, lambda x: pair(x.fst.fst, pair(x.fst.snd, x.snd)),
                     lambda x: pair(pair(x.fst, x.snd.fst), x.snd.snd))
    assert len(s.beta) == 9261
    assert s == structural_iso("assoc", BP, BP, BP)


def test_tensor_unit_is_neutral_on_carrier_counts():
    for g in FIXTURE_GAMES:
        t = tensor(g, unit_game())
        assert len(t.states) == len(g.states)
        for st in t.states:
            assert len(t.moves[st]) == len(g.moves[st.fst])


def test_tensor_with_empty_is_empty():
    assert len(tensor(COIN, EMPTY).states) == 0


def test_tensor_sim_is_functorial_enough(rng):
    # (u (x) v) composed: tensor respects identities and composition
    u = random_simulation(rng, COIN, COIN)
    v = random_simulation(rng, TRAP, TRAP)
    ident = tensor_sim(identity_sim(COIN), identity_sim(TRAP))
    assert eq(ident, identity_sim(tensor(COIN, TRAP)))
    u2 = random_simulation(rng, COIN, COIN)
    v2 = random_simulation(rng, TRAP, TRAP)
    lhs = tensor_sim(compose(u, u2), compose(v, v2))
    rhs = compose(tensor_sim(u, v), tensor_sim(u2, v2))
    assert eq(lhs, rhs)


def test_lollipop_frozen_move_counts():
    ell = lollipop(COIN, TRAP)
    # at (h, ok): 4 translation moves, 2 counters each; at (h, dead): none
    for st in ell.states:
        i2, i3 = st.fst.key[1], st.snd.key[1]
        n = len(ell.moves[st])
        if i3 == "dead":
            assert n == 0
        else:
            assert n == 4
            for mv in ell.moves[st]:
                assert len(ell.counters[(st, mv)]) == 2

    ell2 = lollipop(TRAP, COIN)
    for st in ell2.states:
        i2 = st.fst.key[1]
        n = len(ell2.moves[st])
        if i2 == "ok":
            assert n == 4
        else:
            # nothing to translate: the single vacuous move has no counters
            assert n == 1
            (mv,) = ell2.moves[st]
            assert len(ell2.counters[(st, mv)]) == 0


# |moves at (i2,i3)| = Sigma_{f: A2(i2)->A3(i3)} Pi_{a2} |D2(i2,a2)| ^ |D3(i3,f(a2))|
def test_lollipop_move_count_formula_all_fixture_pairs():
    for (n2, p2), (n3, p3) in itertools.product(sorted(ALL_FIXTURES.items()), repeat=2):
        ell = lollipop(p2, p3)
        assert validate_game(ell) == [], (n2, n3)
        for st in ell.states:
            i2, i3 = st.fst, st.snd
            a2s = sorted(p2.moves[i2])
            total = 0
            for f in itertools.product(sorted(p3.moves[i3]), repeat=len(a2s)):
                prod = 1
                for a2, a3 in zip(a2s, f):
                    prod *= len(p2.counters[(i2, a2)]) ** len(p3.counters[(i3, a3)])
                total += prod
            assert len(ell.moves[st]) == total, (n2, n3, st)


def test_lollipop_counters_are_move_counter_pairs():
    ell = lollipop(COIN, TRAP)
    for st in ell.states:
        for mv in ell.moves[st]:
            for c in ell.counters[(st, mv)]:
                # a counter names a source move and a counter for its translation
                a2, d3 = c.fst, c.snd
                assert a2 in COIN.moves[st.fst]


# curry(uncurry(s)) == s and uncurry(curry(s)) == s, on the nose
def test_curry_uncurry_strict_round_trip(rng):
    for _ in range(40):
        p1 = rng.choice(FIXTURE_GAMES)
        p2 = rng.choice(FIXTURE_GAMES)
        p3 = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, tensor(p1, p2), p3)
        cur = curry(s, p1, p2)
        assert check_simulation(cur) == []
        back = uncurry(cur, p1, p2, p3)
        assert back == s
        t = random_simulation(rng, p1, lollipop(p2, p3))
        unc = uncurry(t, p1, p2, p3)
        assert check_simulation(unc) == []
        assert curry(unc, p1, p2) == t


def test_curry_rejects_wrong_source():
    s = identity_sim(COIN)
    with pytest.raises(ValueError):
        curry(s, COIN, UNIT)


# eval o (curry(s) (x) id) ~ s
def test_eval_beta_law(rng):
    for _ in range(10):
        p1 = rng.choice([UNIT, COIN])
        p2 = rng.choice([UNIT, COIN])
        p3 = rng.choice([UNIT, COIN, TRAP])
        s = random_simulation(rng, tensor(p1, p2), p3)
        cur = curry(s, p1, p2)
        route = compose(tensor_sim(cur, identity_sim(p2)), eval_sim(p2, p3))
        assert eq(route, s)


def test_dual_frozen_counts_for_coin():
    d = dual(COIN)
    assert validate_game(d) == []
    assert d.states == COIN.states
    for st in d.states:
        # one choice function per counter of the single flip move
        assert len(d.moves[st]) == 2
        for mv in d.moves[st]:
            assert len(d.counters[(st, mv)]) == 1


def test_dual_carrier_matches_lollipop_into_unit():
    for g in FIXTURE_GAMES:
        d = dual(g)
        ell = lollipop(g, unit_game())
        by_name = {st: [e for e in ell.states if e.fst == st][0] for st in d.states}
        for st in d.states:
            lst = by_name[st]
            assert len(d.moves[st]) == len(ell.moves[lst])
            counts = sorted(len(d.counters[(st, m)]) for m in d.moves[st])
            lcounts = sorted(len(ell.counters[(lst, m)]) for m in ell.moves[lst])
            assert counts == lcounts


@pytest.mark.parametrize("g", [*ALL_FIXTURES.values(), tensor(COIN, TRAP)],
                         ids=[*ALL_FIXTURES, "coin*trap"])
def test_dual_is_lollipop_into_unit_up_to_relabelling(g):
    # negation is the hom into the unit, with its own lighter encoding
    assert carrier_iso(dual(g), lollipop(g, UNIT)) is not None


def test_double_dual_is_not_involutive_on_elements():
    dd = dual(dual(TRAP))
    ok = state(TRAP, "ok")
    assert set(dd.moves[ok]) != set(TRAP.moves[ok])


def test_function_space_guard_refuses_loudly():
    s = atom("s")
    moves = FiniteSet([atom(f"a{i}") for i in range(6)])
    g = make_game(
        FiniteSet([s]),
        {s: moves},
        {(s, a): FiniteSet([atom(f"d{i}") for i in range(6)]) for a in moves},
        {(s, a, d): s for a in moves for d in FiniteSet([atom(f"d{i}") for i in range(6)])},
    )
    with pytest.raises(SizeRefused):
        lollipop(g, g)


# -- structural isomorphisms ------------------------------------------------------
# each kind's two ends, written out by hand, and its inverse kind with its games

ISO_ENDS = {
    "assoc": lambda a, b, c: (tensor(tensor(a, b), c), tensor(a, tensor(b, c))),
    "assoc_inv": lambda a, b, c: (tensor(a, tensor(b, c)), tensor(tensor(a, b), c)),
    "unit_l": lambda a: (tensor(UNIT, a), a),
    "unit_l_inv": lambda a: (a, tensor(UNIT, a)),
    "unit_r": lambda a: (tensor(a, UNIT), a),
    "unit_r_inv": lambda a: (a, tensor(a, UNIT)),
    "symmetry": lambda a, b: (tensor(a, b), tensor(b, a)),
}
ISO_ARITY = {kind: ends.__code__.co_argcount for kind, ends in ISO_ENDS.items()}


def iso_inverse(kind, games):
    if kind == "symmetry":
        return kind, games[::-1]
    return (kind[:-4] if kind.endswith("_inv") else kind + "_inv"), games


def iso_cases(kind, source):
    n = ISO_ARITY[kind]
    if source == "random":
        rng = random.Random(sorted(ISO_ENDS).index(kind))
        return [tuple(random_game(rng) for _ in range(n)) for _ in range(4)]
    if source == "repeated":
        return [(bang(COIN, 2),) * n]
    return [(UNIT,) * n]


@pytest.mark.parametrize("source", ["random", "repeated", "unit"])
@pytest.mark.parametrize("kind", sorted(ISO_ENDS))
def test_structural_iso_is_inverse_to_its_inverse_kind(kind, source):
    for games in iso_cases(kind, source):
        fwd = structural_iso(kind, *games)
        assert (fwd.src, fwd.dst) == ISO_ENDS[kind](*games)
        assert check_simulation(fwd) == []
        inv_kind, inv_games = iso_inverse(kind, games)
        bwd = structural_iso(inv_kind, *inv_games)
        assert (bwd.src, bwd.dst) == (fwd.dst, fwd.src)
        assert eq(compose(fwd, bwd), identity_sim(fwd.src))
        assert eq(compose(bwd, fwd), identity_sim(fwd.dst))


@pytest.mark.parametrize("kind", ["symmetry_inv", "assoc_inverse", "foo"])
def test_structural_iso_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError):
        structural_iso(kind, COIN, TRAP)


@pytest.mark.parametrize("kind", sorted(ISO_ENDS))
def test_structural_iso_rejects_a_wrong_number_of_games(kind):
    n = ISO_ARITY[kind]
    for games in ((COIN,) * (n - 1), (COIN,) * (n + 1)):
        with pytest.raises(ValueError):
            structural_iso(kind, *games)
