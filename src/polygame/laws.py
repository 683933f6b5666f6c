"""Seeded law batteries, shared by the command line and the test suite.

A law is a :class:`Law` record: a check name, the input scope it ranges over,
``holds(*case)`` deciding one case, and ``details(cases)`` giving the report
text.  A suite in :data:`SUITES` is a pair ``(draw, laws)``: ``draw(rng)``
makes all of the suite's random choices up front and returns ``{scope name:
list of cases}``.  :func:`run_suite` is the one loop: it draws once from
``random.Random(seed)``, then reports each law in order as a ``{"name", "ok",
"details"}`` record, ``ok`` when the law holds on every case of its scope.
Fixed inputs (the stock fixtures, the canonical maps of a sum) are scopes
whose cases do not depend on the seed; a value several laws share (the
composites behind associativity and its detail) is computed once, in the draw.

To check existing laws on new inputs, add a scope: register the laws in
:data:`SUITES` with a ``draw`` returning cases of the shape they take under
their scope's name.

Every check gates: :func:`failing`, which the CLI's exit code follows, lists
the checks that fail.

The random generators here produce *valid* objects by construction: games
with total tables, and simulations whose transports are chosen among the
witnesses of the largest relation-shaped simulation (so validity never needs
to be assumed, only confirmed).  Apex duplicates are injected on purpose:
spans carry multiplicities, and laws must survive them.
"""

from __future__ import annotations

import random
from math import prod
from typing import Callable, NamedTuple

from .additive import copair, injection, oplus, pairing, projection, zero_game
from .elements import Element, FiniteSet, atom, pair, tup
from .exponential import (
    all_msets, all_perms, all_words, bang, bang_sim, chat, comul_sim, counit_sim,
    dereliction_sim, deriving_sim, digging_sim, factor_through_power, orbit_span, perm_apply,
    perm_inverse, section_span, span_free_monoid_factor, symmetry_sim, tensor_power,
)
from .fixtures import COIN, ONEWAY, TRAP, UNIT, unit_game
from .games import Game, make_game, validate_game
from .limits import SizeRefused
from .monoidal import (
    _compose_iso, curry, dual, eval_sim, lollipop, structural_iso, tensor, tensor_sim, uncurry,
)
from .simulation import (
    Simulation, Span, _transport_sim, add, check_simulation, compose, equivalent, identity_sim,
    span_compose, span_equal, span_identity, zero_sim,
)
from .synthesis import (
    _relation_simulation, alfred_region, alfred_strategy, dominic_region, dominic_strategy,
    max_simulation,
)


def check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "details": details}


def failing(checks: list[dict]) -> list[dict]:
    """The checks of a report that fail: any one fails the verdict."""
    return [c for c in checks if not c["ok"]]


class Law(NamedTuple):
    """A law over one scope: ``holds(*case)`` decides one case of it, and
    ``details(cases)`` gives the report text for all of them."""

    name: str
    scope: str
    holds: Callable[..., bool]
    details: Callable[[list], str] = lambda cases: ""


def _eq(s: Simulation, t: Simulation, mode: str = "full") -> bool:
    """Morphism equality with a bound wide enough for the apexes at hand."""
    bound = max(16, len(s.apex), len(t.apex))
    return equivalent(s, t, mode, search_bound=bound) is not None


# -- generators -------------------------------------------------------------------


def random_game(
    rng: random.Random,
    max_states: int = 3,
    max_moves: int = 2,
    max_counters: int = 2,
) -> Game:
    n = rng.randint(1, max_states)
    states = [atom(f"s{j}") for j in range(n)]
    moves = {}
    counters = {}
    nxt = {}
    for i in states:
        ms = [atom(f"m{j}") for j in range(rng.randint(0, max_moves))]
        moves[i] = ms
        for a in ms:
            ds = [atom(f"c{j}") for j in range(rng.randint(0, max_counters))]
            counters[(i, a)] = ds
            for d in ds:
                nxt[(i, a, d)] = rng.choice(states)
    return make_game(states, moves, counters, nxt)


def random_simulation(
    rng: random.Random, src: Game, dst: Game, dup_chance: float = 0.3
) -> Simulation:
    """A random valid simulation src -> dst (the zero one when none exists).

    Every surviving pair of the largest relation appears at least once; some
    get a duplicate witness with independently chosen transports.
    """

    def copies(i1: Element, i2: Element) -> list[Element]:
        n = 1 + (1 if rng.random() < dup_chance else 0)
        return [pair(pair(i1, i2), atom(f"w{c}")) for c in range(n)]

    return _relation_simulation(src, dst, copies, rng.choice)


def fixture_pool() -> list[Game]:
    return [UNIT, COIN, TRAP, ONEWAY]


def _pick_game(rng: random.Random) -> Game:
    # fixtures dominate the draw: random tables frequently relate to nothing,
    # and a diet of empty composites would test very little
    if rng.random() < 0.7:
        return rng.choice(fixture_pool())
    return random_game(rng)


def perm_element(sigma: tuple) -> Element:
    return tup(*(atom(str(x)) for x in sigma))


def symmetrize_over_power(u: Simulation, p: Game, k: int) -> Simulation:
    """Spread a simulation into the ordered power over every reshuffle.

    The result's apex is (permutation, original witness) pairs; it always
    carries symmetry witnesses, which makes it raw material for
    :func:`~polygame.exponential.factor_through_power`.
    """
    of = {pair(perm_element(sigma), r): (sigma, r) for sigma in all_perms(k) for r in u.apex}
    apex = FiniteSet(of)

    def move(pt, b1):
        sigma, r = of[pt]
        return tup(*perm_apply(sigma, u.alpha[(r, b1)].items)), None

    def back(pt, b1, _, e):
        sigma, r = of[pt]
        key = (r, b1, tup(*perm_apply(perm_inverse(sigma), e.items)))
        return u.beta[key], pair(pt.fst, u.gamma[key])

    return _transport_sim(
        u.src,
        u.dst,
        apex,
        {pt: u.leg1[r] for pt, (_, r) in of.items()},
        {pt: tup(*perm_apply(sigma, u.leg2[r].items)) for pt, (sigma, r) in of.items()},
        move,
        back,
    )


def symmetrize_span(rng: random.Random, base: FiniteSet, k: int, size: int = 3):
    """A random reshuffle-coequalizing span of words, with its witnesses."""
    words = all_words(base, k)
    targets = FiniteSet(atom(f"j{n}") for n in range(rng.randint(1, 3)))
    seeds = [(atom(f"r{n}"), rng.choice(words.items), rng.choice(targets.items))
             for n in range(size)]
    perms = all_perms(k)
    # one apex point per (sigma, seed): the seed's word reshuffled by sigma
    pts = {(sigma, seed): pair(perm_element(sigma), seed[0]) for sigma in perms for seed in seeds}
    leg1 = {pt: tup(*perm_apply(sigma, w.items)) for (sigma, (_, w, _)), pt in pts.items()}
    leg2 = {pt: j for (_, (_, _, j)), pt in pts.items()}
    witnesses = {tau: {pt: pts[(tuple(tau[x] for x in sigma), seed)]
                       for (sigma, seed), pt in pts.items()} for tau in perms}
    return Span(words, targets, FiniteSet(pts.values()), leg1, leg2), witnesses


# -- suite: category ---------------------------------------------------------------


def _draw_category(rng: random.Random, rounds: int = 12) -> dict:
    chains = []
    for _ in range(rounds):
        games = [_pick_game(rng) for _ in range(4)]
        chains.append(tuple(random_simulation(rng, a, b) for a, b in zip(games, games[1:])))
    composites = [(compose(compose(s, t), u), compose(s, compose(t, u))) for s, t, u in chains]
    return {"chains": chains, "composites": composites}


def _unital(s: Simulation, *_) -> bool:
    return _eq(compose(identity_sim(s.src), s), s) and _eq(compose(s, identity_sim(s.dst)), s)


def _nontrivial(cases: list) -> str:
    return f"{sum(len(left.apex) > 0 for left, *_ in cases)}/{len(cases)} non-trivial composites"


CATEGORY = [
    Law("generated-simulations-valid", "chains",
        lambda *sims: not any(check_simulation(x) for x in sims)),
    Law("identity-left-right", "chains", _unital),
    Law("associativity", "composites", _eq, _nontrivial),
]


# -- suite: monoidal ----------------------------------------------------------------


def _draw_monoidal(rng: random.Random, rounds: int = 6) -> dict:
    def maps_out_of_tensors(pas, pbs, pcs):
        out = []
        for _ in range(rounds):
            pa, pb, pc = rng.choice(pas), rng.choice(pbs), rng.choice(pcs)
            out.append((pa, pb, pc, random_simulation(rng, tensor(pa, pb), pc)))
        return out

    curried = maps_out_of_tensors([UNIT, COIN], [UNIT, COIN, TRAP], [UNIT, COIN, TRAP])
    evaluated = maps_out_of_tensors([UNIT, COIN], [UNIT, COIN], [UNIT, COIN])
    return {
        "isos": [("assoc", COIN, UNIT, TRAP), ("unit_l", COIN), ("unit_r", TRAP),
                 ("symmetry", COIN, TRAP)],
        "quadruples": [(COIN, UNIT, COIN, UNIT)],
        "curried": curried,
        "evaluated": evaluated,
        "fixture-pairs": [(pa, pb) for pa in fixture_pool() for pb in fixture_pool()],
    }


def _invertible(kind: str, *games: Game) -> bool:
    inverse = (kind, *reversed(games)) if kind == "symmetry" else (kind + "_inv", *games)
    fwd, bwd = structural_iso(kind, *games), structural_iso(*inverse)
    return (
        not check_simulation(fwd)
        and not check_simulation(bwd)
        and _eq(compose(fwd, bwd), identity_sim(fwd.src))
        and _eq(compose(bwd, fwd), identity_sim(bwd.src))
    )


def _pentagon(p1: Game, p2: Game, p3: Game, p4: Game) -> bool:
    """The two routes (P1 P2)(P3 P4) -> P1(P2(P3 P4)) agree."""
    a_12_3 = structural_iso("assoc", p1, p2, p3)
    a_1_23_4 = structural_iso("assoc", p1, tensor(p2, p3), p4)
    a_12_3_4 = structural_iso("assoc", tensor(p1, p2), p3, p4)
    a_1_2_34 = structural_iso("assoc", p1, p2, tensor(p3, p4))
    a_2_3_4 = structural_iso("assoc", p2, p3, p4)
    route1 = compose(a_12_3_4, a_1_2_34)
    route2 = compose(
        compose(tensor_sim(a_12_3, identity_sim(p4)), a_1_23_4),
        tensor_sim(identity_sim(p1), a_2_3_4),
    )
    return _eq(route1, route2)


def _triangle(p1: Game, _p2: Game, p3: Game, _p4: Game) -> bool:
    """(P1 x 1) x P3 -> P1 x P3 both ways round."""
    u_r = structural_iso("unit_r", p1)
    u_l = structural_iso("unit_l", p3)
    a_mid = structural_iso("assoc", p1, unit_game(), p3)
    tri1 = compose(a_mid, tensor_sim(identity_sim(p1), u_l))
    tri2 = tensor_sim(u_r, identity_sim(p3))
    return _eq(tri1, tri2)


def _hexagon(p1: Game, p2: Game, p3: Game, _p4: Game) -> bool:
    """A triple product reshuffled two ways agrees."""
    b_1_23 = structural_iso("symmetry", p1, tensor(p2, p3))
    b_12 = structural_iso("symmetry", p1, p2)
    b_13 = structural_iso("symmetry", p1, p3)
    a_231 = structural_iso("assoc", p2, p3, p1)
    a_123 = structural_iso("assoc", p1, p2, p3)
    a_213 = structural_iso("assoc", p2, p1, p3)
    hex1 = compose(compose(a_123, b_1_23), a_231)
    hex2 = compose(
        compose(tensor_sim(b_12, identity_sim(p3)), a_213),
        tensor_sim(identity_sim(p2), b_13),
    )
    return _eq(hex1, hex2)


def _curry_roundtrip(pa: Game, pb: Game, pc: Game, s: Simulation) -> bool:
    """Currying round trips strictly."""
    cur = curry(s, pa, pb)
    back = uncurry(cur, pa, pb, pc)
    return not check_simulation(cur) and back == s and curry(back, pa, pb) == cur


def _eval_recovers(pa: Game, pb: Game, pc: Game, s: Simulation) -> bool:
    """Curry then apply recovers the map."""
    lhs = compose(tensor_sim(curry(s, pa, pb), identity_sim(pb)), eval_sim(pb, pc))
    return _eq(lhs, s)


def _hom_fiber_counts(pa: Game, pb: Game) -> bool:
    """Translation-game fibers against the closed-form product formula."""
    try:
        ell = lollipop(pa, pb)
    except SizeRefused:
        return True
    return all(
        len(ell.moves[pair(i2, i3)])
        == prod(
            sum(len(pa.counters[(i2, a2)]) ** len(pb.counters[(i3, a3)]) for a3 in pb.moves[i3])
            for a2 in pa.moves[i2]
        )
        for i2 in pa.states
        for i3 in pb.states
    )


MONOIDAL = [
    Law("structural-isos-invertible", "isos", _invertible),
    Law("pentagon", "quadruples", _pentagon),
    Law("triangle", "quadruples", _triangle),
    Law("hexagon", "quadruples", _hexagon),
    Law("curry-uncurry-strict-roundtrip", "curried", _curry_roundtrip),
    Law("eval-recovers-curried-map", "evaluated", _eval_recovers),
    Law("hom-fiber-count-formula", "fixture-pairs", _hom_fiber_counts),
]


# -- suite: biproduct ----------------------------------------------------------------


def _draw_biproduct(rng: random.Random, rounds: int = 6) -> dict:
    p1, p2 = COIN, TRAP
    canonical = (injection(p1, p2, 1), injection(p1, p2, 2),
                 projection(p1, p2, 1), projection(p1, p2, 2))
    recovered, distributed = [], []
    for _ in range(rounds):
        q = rng.choice([UNIT, COIN])
        s1, s2, t1, t2, u, v = (random_simulation(rng, a, b) for a, b in (
            (p1, q), (p2, q), (q, p1), (q, p2), (q, p1), (p1, q)))
        recovered.append((*canonical, s1, s2, t1, t2))
        distributed.append((t1, u, v))
    return {
        "canonical-maps": [canonical],
        "recovered": recovered,
        "distributed": distributed,
        "empty-sum": [(zero_game(),)],
    }


def _matrix(inj1, inj2, prj1, prj2) -> bool:
    p1, p2 = inj1.src, inj2.src
    return (
        _eq(compose(inj1, prj1), identity_sim(p1))
        and _eq(compose(inj2, prj2), identity_sim(p2))
        and _eq(compose(inj1, prj2), zero_sim(p1, p2))
        and _eq(compose(inj2, prj1), zero_sim(p2, p1))
    )


def _split(inj1, inj2, prj1, prj2) -> bool:
    both = oplus(inj1.src, inj2.src)
    return _eq(copair(inj1, inj2), identity_sim(both)) and _eq(
        pairing(prj1, prj2), identity_sim(both)
    )


def _recovers(inj1, inj2, prj1, prj2, s1, s2, t1, t2) -> bool:
    cp, pr = copair(s1, s2), pairing(t1, t2)
    return (
        _eq(compose(inj1, cp), s1)
        and _eq(compose(inj2, cp), s2)
        and _eq(compose(pr, prj1), t1)
        and _eq(compose(pr, prj2), t2)
    )


def _distributes(t: Simulation, u: Simulation, v: Simulation) -> bool:
    """Composition distributes over the sum, strictly, and zero absorbs."""
    q, p = t.src, t.dst
    return _eq(compose(add(t, u), v), add(compose(t, v), compose(u, v))) and _eq(
        compose(zero_sim(q, p), v), zero_sim(q, q)
    )


BIPRODUCT = [
    Law("injection-projection-matrix", "canonical-maps", _matrix),
    Law("copair-pairing-of-canonical-maps", "canonical-maps", _split),
    Law("copair-pairing-recover-components", "recovered", _recovers),
    Law("sum-distributes-over-composition", "distributed", _distributes),
    Law("zero-game-is-empty-sum", "empty-sum",
        lambda empty: not validate_game(empty) and len(empty.states) == 0),
]


# -- suite: exponential ---------------------------------------------------------------


def _draw_exponential(rng: random.Random, rounds: int = 4, kmax: int = 2, bound: int = 2) -> dict:
    maps = []
    for _ in range(rounds):
        k = rng.randint(1, kmax)
        q = rng.choice([UNIT, COIN])
        maps.append((COIN, k, random_simulation(rng, q, tensor_power(COIN, k))))
    base = FiniteSet([atom("u"), atom("v")])
    spans = []
    for _ in range(rounds):
        k = rng.randint(1, kmax)
        spans.append((base, k, *symmetrize_span(rng, base, k)))
    return {
        "contents": [(b, k) for b in (COIN.states, TRAP.states) for k in range(kmax + 1)],
        "powers": [(COIN, k) for k in range(kmax + 1)],
        "symmetric-maps": maps,
        "symmetric-spans": spans,
        "fixtures": [(p, bound) for p in (UNIT, COIN, TRAP)],
        "comonad": [(COIN, bound)],
    }


def _chat_equalizes(p: Game, k: int) -> bool:
    c = chat(p, k)
    return not check_simulation(c) and all(
        _eq(compose(c, symmetry_sim(p, k, sigma)), c, "span_only") for sigma in all_perms(k)
    )


def _factors_through_power(p: Game, k: int, u: Simulation) -> bool:
    s = symmetrize_over_power(u, p, k)
    if check_simulation(s):
        return False
    f = factor_through_power(s, p, k)
    return not check_simulation(f) and _eq(compose(f, chat(p, k)), s, "span_only")


def _span_factors(base: FiniteSet, k: int, phi: Span, witnesses: dict) -> bool:
    psi, eps = span_free_monoid_factor(phi, base, k, witnesses=witnesses)
    comp = span_compose(orbit_span(base, k), psi)
    return (
        span_equal(comp, phi)
        and sorted(eps, key=lambda e: e.key) == list(phi.apex)
        and len(set(eps.values())) == len(phi.apex) == len(comp.apex)
    )


def _comonoid(p: Game, bound: int) -> bool:
    """Counit laws, coassociativity and cocommutativity of the replay game."""
    bp = bang(p, bound)
    dup = comul_sim(p, bound)
    dis = counit_sim(p, bound)
    ident = identity_sim(bp)
    if check_simulation(dup) or check_simulation(dis):
        return False
    return (
        _eq(_compose_iso(compose(dup, tensor_sim(dis, ident)), "unit_l", bp), ident)
        and _eq(_compose_iso(compose(dup, tensor_sim(ident, dis)), "unit_r", bp), ident)
        and _eq(_compose_iso(compose(dup, tensor_sim(dup, ident)), "assoc", bp, bp, bp),
                compose(dup, tensor_sim(ident, dup)))
        and _eq(_compose_iso(dup, "symmetry", bp, bp), dup)
    )


def _iterate_counits(p: Game, bound: int) -> bool:
    """Both counit laws of iteration: after digging, extracting the replay
    game, or promoting the extraction of one copy, is the identity."""
    bp = bang(p, bound)
    dig = digging_sim(p, bound)
    ident = identity_sim(bp)
    return _eq(compose(dig, dereliction_sim(bp, bound)), ident) and _eq(
        compose(dig, bang_sim(dereliction_sim(p, bound), bound)), ident)


EXPONENTIAL = [
    Law("section-then-orbit-is-identity", "contents", lambda base, k: span_equal(
        span_compose(section_span(base, k), orbit_span(base, k)),
        span_identity(all_msets(base, k)))),
    Law("chat-equalizes-reshuffles", "powers", _chat_equalizes),
    Law("factor-through-power-recovers-map", "symmetric-maps", _factors_through_power),
    Law("reshuffle-invariant-spans-factor", "symmetric-spans", _span_factors),
    Law("replay-comonoid-laws", "fixtures", _comonoid),
    Law("extract-prepend-iterate-valid", "fixtures", lambda p, bound: not any(
        check_simulation(make(p, bound)) for make in (dereliction_sim, deriving_sim, digging_sim))),
    Law("iterate-counit-laws", "comonad", _iterate_counits),
]


# -- suite: comonad -----------------------------------------------------------------


def _dig_twice(p: Game, bound: int) -> tuple:
    """The two ways of digging twice out of the replay game of p, dig ; dig(!p)
    and dig ; !dig, or two Nones when a build is refused."""
    try:
        dig = digging_sim(p, bound)
        return compose(dig, digging_sim(bang(p, bound), bound)), compose(dig, bang_sim(dig, bound))
    except SizeRefused:
        return None, None


def _natural_squares(u: Simulation, bound: int) -> tuple:
    """Both sides of dereliction's and of digging's naturality at u,
    ``!u ; der = der ; u`` and ``!u ; dig = dig ; !!u``; digging's two are
    Nones when a build is refused."""
    bu = bang_sim(u, bound)
    der = compose(bu, dereliction_sim(u.dst, bound)), compose(dereliction_sim(u.src, bound), u)
    try:
        dig = compose(bu, digging_sim(u.dst, bound)), compose(digging_sim(u.src, bound),
                                                                bang_sim(bu, bound))
    except SizeRefused:
        dig = None, None
    return *der, *dig


# the tensor's coherence isomorphisms, with their numbers of games
_ISO_KINDS = (("assoc", 3), ("assoc_inv", 3), ("unit_l", 1), ("unit_l_inv", 1), ("unit_r", 1),
              ("unit_r_inv", 1), ("symmetry", 2))


def _draw_comonad(rng: random.Random, draws: int = 3, bound: int = 2) -> dict:
    # COIN is left out: at bound 2 the triple replay game is refused
    games = [UNIT, TRAP, ONEWAY] + [random_game(rng) for _ in range(draws)]
    replays = [_dig_twice(p, bound) for p in games]
    pool = fixture_pool() + [random_game(rng)]
    u = random_simulation(rng, rng.choice(pool), rng.choice(pool))
    relabelled = []
    for kind, arity in _ISO_KINDS:
        ps = [rng.choice([UNIT, COIN, TRAP]) for _ in range(arity)]
        iso = structural_iso(kind, *ps)
        s = random_simulation(rng, rng.choice([UNIT, COIN, TRAP]), iso.src)
        relabelled.append((_compose_iso(s, kind, *ps), compose(s, iso)))
    return {
        "replays": replays,
        "maps": [_natural_squares(u, n) for n in (1, 2)],
        "relabelled": relabelled,
    }


def _decided(cases: list) -> str:
    return f"{sum(lhs is not None for lhs, *_ in cases)}/{len(cases)} cases decided"


COMONAD = [
    Law("iterate-coassociative", "replays", lambda lhs, rhs: lhs is None or _eq(lhs, rhs),
        _decided),
    Law("dereliction-natural", "maps", lambda lhs, rhs, *_: _eq(lhs, rhs), _nontrivial),
    Law("digging-natural", "maps", lambda _l, _r, lhs, rhs: lhs is None or _eq(lhs, rhs),
        lambda cases: _decided([case[2:] for case in cases])),
    Law("relabelled-composite-matches-compose", "relabelled", _eq, _nontrivial),
]


# -- suite: synthesis ----------------------------------------------------------------


def _draw_synthesis(rng: random.Random, rounds: int = 10) -> dict:
    games = []
    for _ in range(rounds):
        g = _pick_game(rng)
        games.append((g, random_simulation(rng, unit_game(), g),
                      random_simulation(rng, g, unit_game())))
    pairs = []
    for _ in range(rounds):
        g1, g2 = _pick_game(rng), _pick_game(rng)
        pairs.append((g1, g2, random_simulation(rng, g1, g2)))
    return {"fixed": [()], "games": games, "pairs": pairs}


def _fixture_regions() -> bool:
    return (
        len(alfred_region(TRAP).states) == 0
        and set(alfred_region(ONEWAY).states) == {atom("ok")}
        and set(dominic_region(TRAP).states) == {atom("ok"), atom("dead")}
        and len(dominic_strategy(ONEWAY).apex) == 2
        and len(max_simulation(COIN, COIN).apex) == 4
    )


def _footprints_inside(g: Game, into: Simulation, out_of: Simulation) -> bool:
    """Any surviving simulation's footprint sits inside the region."""
    return {into.leg2[r] for r in into.apex} <= set(alfred_region(g).states) and {
        out_of.leg1[r] for r in out_of.apex
    } <= set(dominic_region(g).states)


def _negation_swaps(g: Game, *_) -> bool:
    try:
        flipped = dual(g)
    except SizeRefused:
        return True
    return set(alfred_region(flipped).states) == set(dominic_region(g).states)


def _dominates(g1: Game, g2: Game, fuzz: Simulation) -> bool:
    best = max_simulation(g1, g2)
    return not check_simulation(best) and {(fuzz.leg1[r], fuzz.leg2[r]) for r in fuzz.apex} <= {
        (best.leg1[r], best.leg2[r]) for r in best.apex
    }


SYNTHESIS = [
    Law("fixture-regions-and-strategies", "fixed", _fixture_regions),
    Law("strategies-are-valid-simulations", "games", lambda g, *_: not check_simulation(
        alfred_strategy(g)) and not check_simulation(dominic_strategy(g))),
    Law("surviving-footprints-inside-region", "games", _footprints_inside),
    Law("negation-swaps-the-regions", "games", _negation_swaps),
    Law("largest-relation-dominates-fuzz", "pairs", _dominates),
]


SUITES = {
    "category": (_draw_category, CATEGORY),
    "monoidal": (_draw_monoidal, MONOIDAL),
    "biproduct": (_draw_biproduct, BIPRODUCT),
    "exponential": (_draw_exponential, EXPONENTIAL),
    "comonad": (_draw_comonad, COMONAD),
    "synthesis": (_draw_synthesis, SYNTHESIS),
}


def run_suite(name: str, seed: int) -> list[dict]:
    try:
        draw, laws = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    scopes = draw(random.Random(seed))
    return [
        check(law.name, all(law.holds(*case) for case in scopes[law.scope]),
              law.details(scopes[law.scope]))
        for law in laws
    ]
