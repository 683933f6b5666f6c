"""Direct sums: biproduct equations, split/merge, the zero object."""

import itertools

import pytest

from polygame.additive import (
    adjoint_transpose,
    bigoplus,
    cofree_game,
    copair,
    free_game,
    injection,
    oplus,
    pairing,
    projection,
    zero_game,
)
from polygame.elements import FiniteSet, atom
from polygame.fixtures import COIN, EMPTY, ONEWAY, TRAP, UNIT
from polygame.games import Game, validate_game
from polygame.laws import random_simulation
from polygame.simulation import (
    Simulation,
    Span,
    add,
    check_simulation,
    compose,
    identity_sim,
    zero_sim,
)

from conftest import FIXTURE_GAMES, eq

PAIRS = [(COIN, TRAP), (UNIT, COIN), (TRAP, ONEWAY), (UNIT, UNIT)]


def test_oplus_carrier_is_disjoint_union():
    g = oplus(COIN, TRAP)
    assert validate_game(g) == []
    assert len(g.states) == len(COIN.states) + len(TRAP.states)
    tags = sorted({st.fst.key[1] for st in g.states})
    assert tags == ["L", "R"]


# the trivial layers and the zero map, against the literal tables they once were
def test_trivial_layers_and_the_zero_map_match_their_literal_tables():
    for base in (COIN.states, TRAP.states, FiniteSet()):
        assert free_game(base) == Game(base, {i: FiniteSet() for i in base}, {}, {})
        assert cofree_game(base) == Game(
            base, {i: FiniteSet([i]) for i in base}, {(i, i): FiniteSet() for i in base}, {}
        )
    assert zero_game() is EMPTY
    assert EMPTY == Game(FiniteSet(), {}, {}, {})
    assert zero_sim(COIN, TRAP) == Simulation(COIN, TRAP, FiniteSet(), {}, {}, {}, {}, {})
    base = FiniteSet([atom("x"), atom("y")])
    apex = FiniteSet(atom(f"r{n}") for n in range(3))
    leg1 = dict(zip(apex, (atom("x"), atom("x"), atom("y"))))
    leg2 = dict(zip(apex, TRAP.states.items * 2))
    got = adjoint_transpose("left", "to_sim", Span(base, TRAP.states, apex, leg1, leg2), base, TRAP)
    assert got == Simulation(free_game(base), TRAP, apex, leg1, leg2, {}, {}, {})


def test_oplus_with_zero_object_adds_nothing():
    z = zero_game()
    assert len(z.states) == 0
    g = oplus(COIN, z)
    assert len(g.states) == len(COIN.states)


def test_bigoplus_nests_without_tag_collision():
    g = bigoplus([COIN, COIN, COIN])
    assert validate_game(g) == []
    assert len(g.states) == 6
    assert len(set(g.states)) == 6


# pi_k o iota_k ~ id ; pi_j o iota_k ~ 0 for j != k
def test_projection_of_injection_is_identity_or_zero():
    for p, q in PAIRS:
        i1, i2 = injection(p, q, 1), injection(p, q, 2)
        p1, p2 = projection(p, q, 1), projection(p, q, 2)
        for s in (i1, i2, p1, p2):
            assert check_simulation(s) == []
        assert eq(compose(i1, p1), identity_sim(p))
        assert eq(compose(i2, p2), identity_sim(q))
        assert eq(compose(i1, p2), zero_sim(p, q))
        assert eq(compose(i2, p1), zero_sim(q, p))


def test_a_side_other_than_one_or_two_is_bad_input():
    for side in (0, 3, "1"):
        for make in (injection, projection):
            with pytest.raises(ValueError, match="side must be 1 or 2"):
                make(COIN, TRAP, side)


# each projection is the copair of an identity and a zero map, so its apex is
# the tagged states of its own summand
def test_projection_is_the_copair_of_an_identity_and_a_zero_map():
    for p, q in PAIRS:
        assert projection(p, q, 1) == copair(identity_sim(p), zero_sim(q, p))
        assert projection(p, q, 2) == copair(zero_sim(p, q), identity_sim(q))
        tagged = [(r.fst, r.snd) for r in projection(p, q, 2).apex]
        assert tagged == [(atom("R"), i) for i in q.states]


# iota_0 o pi_0 + iota_1 o pi_1 ~ id
def test_injections_and_projections_resolve_the_identity():
    for p, q in PAIRS:
        both = oplus(p, q)
        lhs = add(
            compose(projection(p, q, 1), injection(p, q, 1)),
            compose(projection(p, q, 2), injection(p, q, 2)),
        )
        assert eq(lhs, identity_sim(both))


def test_copair_recovers_components(rng):
    for p, q in PAIRS:
        c = rng.choice(FIXTURE_GAMES)
        f = random_simulation(rng, p, c)
        g = random_simulation(rng, q, c)
        both = copair(f, g)
        assert check_simulation(both) == []
        # precompose with the injections to get the components back
        assert eq(compose(injection(p, q, 1), both), f)
        assert eq(compose(injection(p, q, 2), both), g)


def test_pairing_recovers_components(rng):
    for p, q in PAIRS:
        c = rng.choice(FIXTURE_GAMES)
        f = random_simulation(rng, c, p)
        g = random_simulation(rng, c, q)
        both = pairing(f, g)
        assert check_simulation(both) == []
        assert eq(compose(both, projection(p, q, 1)), f)
        assert eq(compose(both, projection(p, q, 2)), g)


# copair(iota_0, iota_1) ~ id and pairing(pi_0, pi_1) ~ id
def test_copair_and_pairing_of_canonical_maps_are_identities():
    for p, q in PAIRS:
        assert eq(copair(injection(p, q, 1), injection(p, q, 2)),
                  identity_sim(oplus(p, q)))
        assert eq(pairing(projection(p, q, 1), projection(p, q, 2)),
                  identity_sim(oplus(p, q)))


def test_split_merge_round_trip(rng):
    # a map out of a sum is its two restrictions, and they merge back
    for _ in range(10):
        p, q = rng.choice(PAIRS)
        c = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, oplus(p, q), c)
        left = compose(injection(p, q, 1), s)
        right = compose(injection(p, q, 2), s)
        assert eq(copair(left, right), s)


def test_matrix_identities_respect_mismatched_shapes():
    with pytest.raises(ValueError):
        copair(identity_sim(COIN), identity_sim(TRAP))
