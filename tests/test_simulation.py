"""Simulation diagrams: the checker, composition, enrichment, equivalence."""

import itertools
import random
from collections import Counter

import pytest

from polygame.additive import adjoint_transpose
from polygame.elements import FiniteSet, atom, pair
from polygame.fixtures import COIN, ONEWAY, TRAP, UNIT
from polygame.games import Game
from polygame.laws import random_simulation
from polygame.limits import SearchRefused
from polygame.simulation import (
    Simulation,
    Span,
    add,
    check_simulation,
    compose,
    equivalent,
    identity_sim,
    span_compose,
    span_embedding,
    span_equal,
    span_identity,
    span_iso,
    underlying_span,
    validate_span,
    zero_sim,
)
from polygame.synthesis import max_simulation

from conftest import FIXTURE_GAMES, eq, tampered, valid_by_definition


def composable_triple(rng):
    games = [rng.choice(FIXTURE_GAMES) for _ in range(4)]
    s = random_simulation(rng, games[0], games[1])
    t = random_simulation(rng, games[1], games[2])
    u = random_simulation(rng, games[2], games[3])
    return s, t, u


def test_identity_passes_checker():
    for g in FIXTURE_GAMES:
        assert check_simulation(identity_sim(g)) == []


def test_checker_matches_definition_on_valid_and_tampered(rng):
    agree = 0
    for n in range(200):
        src = rng.choice(FIXTURE_GAMES)
        dst = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, src, dst)
        if n % 2 and len(s.apex):
            s = tampered(s, rng)
        assert (check_simulation(s) == []) == valid_by_definition(s)
        agree += 1
    assert agree == 200


def test_checker_names_the_offending_row(rng):
    s = max_simulation(COIN, COIN)
    bad = Simulation(
        src=s.src, dst=s.dst, apex=s.apex, leg1=s.leg1, leg2=s.leg2,
        alpha=s.alpha, beta={}, gamma=s.gamma,
    )
    problems = check_simulation(bad)
    assert problems and all(isinstance(p, str) for p in problems)


def test_checker_reports_an_invalid_game_instead_of_raising():
    s = identity_sim(COIN)
    h = COIN.states.items[0]
    moves = {i: f for i, f in COIN.moves.items() if i != h}
    src = Game(COIN.states, moves, COIN.counters, COIN.next)
    bad = Simulation(src, s.dst, s.apex, s.leg1, s.leg2, s.alpha, s.beta, s.gamma)
    problems = check_simulation(bad)
    assert problems[0] == f"src: state {h!r} has no move fiber"
    assert all(p.startswith("src: ") for p in problems)


def test_compose_soundness_fuzzed(rng):
    for _ in range(40):
        s, t, _ = composable_triple(rng)
        assert check_simulation(compose(s, t)) == []


def test_compose_domain_mismatch_rejected():
    s = identity_sim(COIN)
    t = identity_sim(TRAP)
    with pytest.raises(ValueError):
        compose(s, t)


# compose(compose(s, t), u) ~ compose(s, compose(t, u))
def test_associativity_up_to_equivalence(rng):
    for _ in range(25):
        s, t, u = composable_triple(rng)
        lhs = compose(compose(s, t), u)
        rhs = compose(s, compose(t, u))
        assert eq(lhs, rhs)


# compose(id, s) ~ s ~ compose(s, id)
def test_identity_laws_up_to_equivalence(rng):
    for _ in range(25):
        src = rng.choice(FIXTURE_GAMES)
        dst = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, src, dst)
        assert eq(compose(identity_sim(src), s), s)
        assert eq(compose(s, identity_sim(dst)), s)


# compose(s, add(t, t')) ~ add(compose(s, t), compose(s, t')) and dually
def test_composition_distributes_over_add(rng):
    for _ in range(15):
        a = rng.choice(FIXTURE_GAMES)
        b = rng.choice(FIXTURE_GAMES)
        c = rng.choice(FIXTURE_GAMES)
        s = random_simulation(rng, a, b)
        t1 = random_simulation(rng, b, c)
        t2 = random_simulation(rng, b, c)
        assert eq(compose(s, add(t1, t2)), add(compose(s, t1), compose(s, t2)))
        u = random_simulation(rng, c, a)
        assert eq(compose(add(t1, t2), u), add(compose(t1, u), compose(t2, u)))


def test_zero_annihilates_composition(rng):
    s = random_simulation(rng, COIN, TRAP)
    z = zero_sim(TRAP, ONEWAY)
    out = compose(s, z)
    assert len(out.apex) == 0
    assert eq(out, zero_sim(COIN, ONEWAY))


def test_add_is_commutative_and_unital(rng):
    s = random_simulation(rng, COIN, COIN)
    t = random_simulation(rng, COIN, COIN)
    assert eq(add(s, t), add(t, s))
    assert eq(add(s, zero_sim(COIN, COIN)), s)


def test_underlying_span_is_functorial(rng):
    for _ in range(20):
        s, t, _ = composable_triple(rng)
        left = span_compose(underlying_span(s), underlying_span(t))
        right = underlying_span(compose(s, t))
        assert span_equal(left, right)
    g = rng.choice(FIXTURE_GAMES)
    assert span_equal(underlying_span(identity_sim(g)), span_identity(g.states))


def test_equivalence_is_reflexive_and_symmetric(rng):
    for _ in range(20):
        s = random_simulation(rng, rng.choice(FIXTURE_GAMES), rng.choice(FIXTURE_GAMES))
        assert eq(s, s)
        assert eq(s, s, "span_only")
    s = random_simulation(rng, COIN, COIN)
    t = random_simulation(rng, COIN, COIN)
    assert eq(s, t) == eq(t, s)
    assert eq(s, t, "span_only") == eq(t, s, "span_only")


def test_full_equivalence_refines_span_equivalence(rng):
    for _ in range(30):
        s = random_simulation(rng, rng.choice(FIXTURE_GAMES), rng.choice(FIXTURE_GAMES))
        t = random_simulation(rng, s.src, s.dst)
        if eq(s, t):
            assert eq(s, t, "span_only")


def test_equivalence_distinguishes_transports():
    # two strategies for COIN over the same span: always-heads vs always-tails
    best = max_simulation(COIN, COIN)
    h = [s for s in COIN.states if s.key[1] == "h"][0]
    (flip,) = COIN.moves[h]
    land_h, land_t = sorted(COIN.counters[(h, flip)])
    s = best
    twisted_beta = {}
    for (r, a1, d2), d1 in best.beta.items():
        twisted_beta[(r, a1, d2)] = land_t if d1 == land_h else land_h
    # rebuild gamma to stay valid after the twist
    by_pair = {(best.leg1[r], best.leg2[r]): r for r in best.apex}
    twisted_gamma = {}
    ok = True
    for (r, a1, d2) in best.gamma:
        i1, i2 = best.leg1[r], best.leg2[r]
        n1 = COIN.next[(i1, a1, twisted_beta[(r, a1, d2)])]
        n2 = COIN.next[(i2, best.alpha[(r, a1)], d2)]
        if (n1, n2) not in by_pair:
            ok = False
            break
        twisted_gamma[(r, a1, d2)] = by_pair[(n1, n2)]
    assert ok
    t = Simulation(src=COIN, dst=COIN, apex=best.apex, leg1=best.leg1,
                   leg2=best.leg2, alpha=best.alpha, beta=twisted_beta,
                   gamma=twisted_gamma)
    assert check_simulation(t) == []
    assert eq(s, t, "span_only")
    assert not eq(s, t, "full")


def test_duplicated_apex_points_are_observable(rng):
    plain = random_simulation(rng, UNIT, COIN, dup_chance=0.0)
    fat = random_simulation(rng, UNIT, COIN, dup_chance=1.0)
    assert len(fat.apex) > len(plain.apex)
    assert not eq(plain, fat, "span_only")
    assert not eq(plain, fat, "full")


def test_search_bound_refusal_is_uniform():
    big = max_simulation(COIN, COIN)  # apex 4
    with pytest.raises(SearchRefused) as refused:
        equivalent(big, big, "full", search_bound=3)
    assert str(refused.value) == "equivalent: apex of 4 points exceeds search bound 3"
    with pytest.raises(SearchRefused):
        equivalent(big, big, "span_only", search_bound=3)
    assert equivalent(big, big, "full", search_bound=4) is not None


def test_equivalence_rejects_mismatched_endpoints():
    with pytest.raises(ValueError):
        equivalent(identity_sim(COIN), identity_sim(TRAP))


def test_equivalent_returns_an_iso_that_matches_legs(rng):
    s = random_simulation(rng, COIN, COIN, dup_chance=0.5)
    t = random_simulation(rng, COIN, COIN, dup_chance=0.5)
    iso = equivalent(s, s, "full", search_bound=16)
    assert iso is not None
    for r, q in iso.mapping.items():
        assert s.leg1[r] == s.leg1[q]
        assert s.leg2[r] == s.leg2[q]


# -- fiber matching against a brute-force oracle --------------------------------

_BASE = FiniteSet([atom("x"), atom("y")])


def _leg_preserving_maps(s, t):
    """Every injection of s's apex into t's that keeps both legs, by brute force."""
    points = list(s.apex)
    for image in itertools.permutations(list(t.apex), len(points)):
        if all(
            s.leg1[r] == t.leg1[q] and s.leg2[r] == t.leg2[q]
            for r, q in zip(points, image)
        ):
            yield dict(zip(points, image))


def _is_leg_preserving(mapping, s, t, onto):
    if set(mapping) != set(s.apex) or not set(mapping.values()) <= set(t.apex):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if onto and set(mapping.values()) != set(t.apex):
        return False
    return all(
        s.leg1[r] == t.leg1[q] and s.leg2[r] == t.leg2[q] for r, q in mapping.items()
    )


def _random_span(rng, dst, size, name):
    apex = [atom(f"{name}{n}") for n in range(size)]
    return Span(
        _BASE,
        dst,
        FiniteSet(apex),
        {r: rng.choice(_BASE.items) for r in apex},
        {r: rng.choice(dst.items) for r in apex},
    )


def _span_pairs(rng, n):
    """Pairs of small spans, many with repeated (leg1, leg2) pairs: relabelled
    copies, copies with one leg moved or one point dropped, and strangers."""
    dst = COIN.states
    for _ in range(n):
        s = _random_span(rng, dst, rng.randint(0, 5), "p")
        kind = rng.randrange(4)
        if kind == 3:
            yield s, _random_span(rng, dst, rng.randint(0, 5), "q")
            continue
        points = list(s.apex)
        rng.shuffle(points)
        if kind == 2 and points:
            points.pop()
        names = {r: atom(f"q{n}") for n, r in enumerate(points)}
        leg1 = {names[r]: s.leg1[r] for r in points}
        leg2 = {names[r]: s.leg2[r] for r in points}
        if kind == 1 and points:
            leg1[names[points[0]]] = rng.choice(_BASE.items)
        yield s, Span(_BASE, dst, FiniteSet(names.values()), leg1, leg2)


def test_fiber_matching_agrees_with_brute_force():
    rng = random.Random(4)
    seen = Counter()
    for s, t in _span_pairs(rng, 400):
        injections = list(_leg_preserving_maps(s, t))
        bijective = len(s.apex) == len(t.apex) and bool(injections)
        seen[(bool(injections), bijective)] += 1
        seen["repeated legs"] += len({(s.leg1[r], s.leg2[r]) for r in s.apex}) < len(s.apex)

        emb = span_embedding(s, t)
        assert (emb is not None) == bool(injections)
        assert emb is None or _is_leg_preserving(emb, s, t, onto=False)

        iso = span_iso(s, t)
        assert (iso is not None) == bijective
        assert iso is None or _is_leg_preserving(iso, s, t, onto=True)
        assert span_equal(s, t) == bijective

        sim_s = adjoint_transpose("left", "to_sim", s, _BASE, COIN)
        sim_t = adjoint_transpose("left", "to_sim", t, _BASE, COIN)
        found = equivalent(sim_s, sim_t, "span_only")
        assert (found is not None) == bijective
        assert found is None or _is_leg_preserving(found.mapping, s, t, onto=True)
    assert min(seen.values()) > 20, seen  # every outcome, and repeated legs, occur


def test_compose_apex_is_the_matched_pairs(rng):
    for _ in range(60):
        g1, g2, g3 = (rng.choice(FIXTURE_GAMES) for _ in range(3))
        s = random_simulation(rng, g1, g2, dup_chance=0.5)
        t = random_simulation(rng, g2, g3, dup_chance=0.5)
        matched = [(r, q) for r in s.apex for q in t.apex if s.leg2[r] == t.leg1[q]]
        c = compose(s, t)
        assert len(c.apex) == len(matched)
        assert set(c.apex) == {pair(r, q) for r, q in matched}
        for r, q in matched:
            assert c.leg1[pair(r, q)] == s.leg1[r]
            assert c.leg2[pair(r, q)] == t.leg2[q]


def test_checker_reports_an_invalid_game_row_it_never_reads():
    s = identity_sim(COIN)
    h = COIN.states.items[0]
    src = Game(COIN.states, COIN.moves, COIN.counters, {**COIN.next, (h, h, h): h})
    bad = Simulation(src, s.dst, s.apex, s.leg1, s.leg2, s.alpha, s.beta, s.gamma)
    assert check_simulation(bad) == [f"src: successor at unknown triple {(h, h, h)!r}"]



# a span is checked against the sides the transpose was asked for, whatever
# sides it names itself
@pytest.mark.parametrize("side, leg, stray", [
    ("left", "leg1", atom("nowhere")),   # a leg1 outside base
    ("right", "leg2", atom("nowhere")),  # a leg2 outside base
    ("right", "leg1", atom("ok")),       # a span over TRAP's states, transposed at COIN
], ids=["left-leg1-off-base", "right-leg2-off-base", "right-off-the-game"])
def test_transpose_to_sim_refuses_a_span_off_its_sides(side, leg, stray):
    base = FiniteSet([atom("x")])
    asked = (base, COIN.states) if side == "left" else (COIN.states, base)
    r = atom("r")
    legs = {"leg1": {r: asked[0].items[0]}, "leg2": {r: asked[1].items[0]}}
    legs[leg][r] = stray
    # the sides the span names hold its legs, so it is valid on its own terms
    sp = Span(FiniteSet(legs["leg1"].values()), FiniteSet(legs["leg2"].values()),
              FiniteSet([r]), legs["leg1"], legs["leg2"])
    assert validate_span(sp) == []
    with pytest.raises(ValueError) as raised:
        adjoint_transpose(side, "to_sim", sp, base, COIN)
    assert str(raised.value) == f"invalid span: {leg}({r!r}) = {stray!r} is not in base"


# a simulation is checked against the ends the transpose was asked for
@pytest.mark.parametrize("side, run", [
    ("left", "free_game(base) -> game"),
    ("right", "game -> cofree_game(base)"),
])
def test_transpose_to_span_refuses_a_simulation_off_its_ends(side, run):
    base = FiniteSet([atom("x")])
    with pytest.raises(ValueError) as raised:
        adjoint_transpose(side, "to_span", identity_sim(COIN), base, TRAP)
    assert str(raised.value) == f"invalid simulation: it does not run {run}"
    r, h = atom("r"), COIN.states.items[0]
    legs = (base.items[0], h) if side == "left" else (h, base.items[0])
    sides = (base, COIN.states) if side == "left" else (COIN.states, base)
    sp = Span(*sides, FiniteSet([r]), {r: legs[0]}, {r: legs[1]})
    s = adjoint_transpose(side, "to_sim", sp, base, COIN)
    assert adjoint_transpose(side, "to_span", s, base, COIN) == sp
    with pytest.raises(ValueError):
        adjoint_transpose(side, "to_span", s, base, TRAP)
