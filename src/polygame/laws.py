"""Seeded law batteries, shared by the command line and the test suite.

Each suite runs a deterministic sequence of checks driven by one RNG seed and
returns a list of ``{"name", "ok", "details"}`` records.  Checks whose name
starts with ``info:`` are advisory -- they report genuinely computed results
for properties the library does not promise (and the CLI does not gate its
exit code on them).

The random generators here produce *valid* objects by construction: games
with total tables, and simulations whose transports are chosen among the
witnesses of the largest relation-shaped simulation (so validity never needs
to be assumed, only confirmed).  Apex duplicates are injected on purpose:
spans carry multiplicities, and laws must survive them.
"""

from __future__ import annotations

import random

from .additive import copair, injection, oplus, pairing, projection, zero_game
from .elements import Element, FiniteSet, atom, pair, tup
from .exponential import (
    all_msets,
    all_perms,
    all_words,
    bang,
    chat,
    comul_sim,
    counit_sim,
    dereliction_sim,
    digging_sim,
    orbit_span,
    perm_apply,
    perm_inverse,
    section_span,
    span_free_monoid_factor,
    symmetry_sim,
    tensor_power,
)
from .fixtures import COIN, ONEWAY, TRAP, UNIT, unit_game
from .games import Game, make_game, validate_game
from .limits import SizeRefused
from .monoidal import (
    curry,
    dual,
    eval_sim,
    lollipop,
    structural_iso,
    tensor,
    tensor_sim,
    uncurry,
)
from .simulation import (
    Simulation,
    Span,
    _transport_sim,
    add,
    check_simulation,
    compose,
    equivalent,
    identity_sim,
    span_compose,
    span_equal,
    span_identity,
    zero_sim,
)
from .synthesis import (
    _relation_simulation,
    alfred_region,
    alfred_strategy,
    dominic_region,
    dominic_strategy,
    max_simulation,
)


def check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "details": details}


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

    return _relation_simulation(src, dst, copies, lambda it: rng.choice(list(it)), rng.choice)


def fixture_pool() -> list[Game]:
    return [UNIT, COIN, TRAP, ONEWAY]


def _pick_game(rng: random.Random) -> Game:
    # fixtures dominate the draw: random tables frequently relate to nothing,
    # and a diet of empty composites would test very little
    if rng.random() < 0.7:
        return rng.choice(fixture_pool())
    return random_game(rng)


# -- suite: category ---------------------------------------------------------------


def run_category(seed: int, rounds: int = 12) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    id_ok = True
    assoc_ok = True
    valid_ok = True
    nonempty = 0
    for n in range(rounds):
        g1, g2, g3, g4 = (_pick_game(rng) for _ in range(4))
        s = random_simulation(rng, g1, g2)
        t = random_simulation(rng, g2, g3)
        u = random_simulation(rng, g3, g4)
        for x in (s, t, u):
            if check_simulation(x):
                valid_ok = False
        left = compose(compose(s, t), u)
        right = compose(s, compose(t, u))
        if len(left.apex) > 0:
            nonempty += 1
        if not _eq(left, right):
            assoc_ok = False
        if not _eq(compose(identity_sim(g1), s), s) or not _eq(
            compose(s, identity_sim(g2)), s
        ):
            id_ok = False
    checks.append(check("generated-simulations-valid", valid_ok))
    checks.append(check("identity-left-right", id_ok))
    checks.append(
        check("associativity", assoc_ok, f"{nonempty}/{rounds} non-trivial composites")
    )
    return checks


# -- suite: monoidal ----------------------------------------------------------------


def _iso_roundtrip(fwd: Simulation, bwd: Simulation) -> bool:
    return _eq(compose(fwd, bwd), identity_sim(fwd.src)) and _eq(
        compose(bwd, fwd), identity_sim(bwd.src)
    )


def run_monoidal(seed: int, rounds: int = 6) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    ok = True
    for kind, games in (
        ("assoc", (COIN, UNIT, TRAP)),
        ("unit_l", (COIN,)),
        ("unit_r", (TRAP,)),
        ("symmetry", (COIN, TRAP)),
    ):
        fwd, bwd = structural_iso(kind, *games)
        if check_simulation(fwd) or check_simulation(bwd):
            ok = False
        if not _iso_roundtrip(fwd, bwd):
            ok = False
    checks.append(check("structural-isos-invertible", ok))

    # pentagon: the two routes (P1 P2)(P3 P4) -> P1(P2(P3 P4)) agree
    p1, p2, p3, p4 = COIN, UNIT, COIN, UNIT
    a_12_3, _ = structural_iso("assoc", p1, p2, p3)
    a_1_23_4, _ = structural_iso("assoc", p1, tensor(p2, p3), p4)
    a_12_3_4, _ = structural_iso("assoc", tensor(p1, p2), p3, p4)
    a_1_2_34, _ = structural_iso("assoc", p1, p2, tensor(p3, p4))
    a_2_3_4, _ = structural_iso("assoc", p2, p3, p4)
    route1 = compose(a_12_3_4, a_1_2_34)
    route2 = compose(
        compose(tensor_sim(a_12_3, identity_sim(p4)), a_1_23_4),
        tensor_sim(identity_sim(p1), a_2_3_4),
    )
    checks.append(check("pentagon", _eq(route1, route2)))

    # triangle: (P1 x 1) x P2 -> P1 x P2 both ways round
    u_r, _ = structural_iso("unit_r", p1)
    u_l, _ = structural_iso("unit_l", p3)
    a_mid, _ = structural_iso("assoc", p1, unit_game(), p3)
    tri1 = compose(a_mid, tensor_sim(identity_sim(p1), u_l))
    tri2 = tensor_sim(u_r, identity_sim(p3))
    checks.append(check("triangle", _eq(tri1, tri2)))

    # hexagon: reshuffle a triple product two ways
    b_1_23, _ = structural_iso("symmetry", p1, tensor(p2, p3))
    b_12, _ = structural_iso("symmetry", p1, p2)
    b_13, _ = structural_iso("symmetry", p1, p3)
    a_231, _ = structural_iso("assoc", p2, p3, p1)
    a_123, _ = structural_iso("assoc", p1, p2, p3)
    a_213, _ = structural_iso("assoc", p2, p1, p3)
    hex1 = compose(compose(a_123, b_1_23), a_231)
    hex2 = compose(
        compose(tensor_sim(b_12, identity_sim(p3)), a_213),
        tensor_sim(identity_sim(p2), b_13),
    )
    checks.append(check("hexagon", _eq(hex1, hex2)))

    # currying round trips, strictly, on random simulations out of a tensor
    strict = True
    for _ in range(rounds):
        pa = rng.choice([UNIT, COIN])
        pb = rng.choice([UNIT, COIN, TRAP])
        pc = rng.choice([UNIT, COIN, TRAP])
        s = random_simulation(rng, tensor(pa, pb), pc)
        cur = curry(s, pa, pb)
        if check_simulation(cur):
            strict = False
        back = uncurry(cur, pa, pb, pc)
        if back != s:
            strict = False
        again = curry(back, pa, pb)
        if again != cur:
            strict = False
    checks.append(check("curry-uncurry-strict-roundtrip", strict))

    # evaluation: curry then apply recovers the map
    ev_ok = True
    for _ in range(rounds):
        pa = rng.choice([UNIT, COIN])
        pb = rng.choice([UNIT, COIN])
        pc = rng.choice([UNIT, COIN])
        s = random_simulation(rng, tensor(pa, pb), pc)
        lhs = compose(
            tensor_sim(curry(s, pa, pb), identity_sim(pb)), eval_sim(pb, pc)
        )
        if not _eq(lhs, s):
            ev_ok = False
    checks.append(check("eval-recovers-curried-map", ev_ok))

    # translation-game fiber counts against the closed-form product formula
    cnt_ok = True
    for pa in fixture_pool():
        for pb in fixture_pool():
            try:
                ell = lollipop(pa, pb)
            except SizeRefused:
                continue
            for i2 in pa.states:
                for i3 in pb.states:
                    want = 1
                    for a2 in pa.moves[i2]:
                        tot = 0
                        for a3 in pb.moves[i3]:
                            tot += len(pa.counters[(i2, a2)]) ** len(
                                pb.counters[(i3, a3)]
                            )
                        want *= tot
                    if len(ell.moves[pair(i2, i3)]) != want:
                        cnt_ok = False
    checks.append(check("hom-fiber-count-formula", cnt_ok))
    return checks


# -- suite: biproduct ----------------------------------------------------------------


def run_biproduct(seed: int, rounds: int = 6) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    p1, p2 = COIN, TRAP
    inj1 = injection(p1, p2, 1)
    inj2 = injection(p1, p2, 2)
    prj1 = projection(p1, p2, 1)
    prj2 = projection(p1, p2, 2)
    matrix_ok = (
        _eq(compose(inj1, prj1), identity_sim(p1))
        and _eq(compose(inj2, prj2), identity_sim(p2))
        and _eq(compose(inj1, prj2), zero_sim(p1, p2))
        and _eq(compose(inj2, prj1), zero_sim(p2, p1))
    )
    checks.append(check("injection-projection-matrix", matrix_ok))

    both = oplus(p1, p2)
    split_ok = _eq(copair(inj1, inj2), identity_sim(both)) and _eq(
        pairing(prj1, prj2), identity_sim(both)
    )
    checks.append(check("copair-pairing-of-canonical-maps", split_ok))

    rec_ok = True
    zero_ok = True
    for _ in range(rounds):
        q = rng.choice([UNIT, COIN])
        s1 = random_simulation(rng, p1, q)
        s2 = random_simulation(rng, p2, q)
        cp = copair(s1, s2)
        if not _eq(compose(inj1, cp), s1) or not _eq(compose(inj2, cp), s2):
            rec_ok = False
        t1 = random_simulation(rng, q, p1)
        t2 = random_simulation(rng, q, p2)
        pr = pairing(t1, t2)
        if not _eq(compose(pr, prj1), t1) or not _eq(compose(pr, prj2), t2):
            rec_ok = False
        # the enrichment: composition distributes over the sum, strictly
        u = random_simulation(rng, q, p1)
        v = random_simulation(rng, p1, q)
        lhs = compose(add(t1, u), v)
        rhs = add(compose(t1, v), compose(u, v))
        if not _eq(lhs, rhs):
            zero_ok = False
        if not _eq(compose(zero_sim(q, p1), v), zero_sim(q, q)):
            zero_ok = False
    checks.append(check("copair-pairing-recover-components", rec_ok))
    checks.append(check("sum-distributes-over-composition", zero_ok))

    empty = zero_game()
    checks.append(
        check(
            "zero-game-is-empty-sum",
            not validate_game(empty) and len(empty.states) == 0,
        )
    )
    return checks


# -- suite: exponential ---------------------------------------------------------------


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
    seeds = []
    for n in range(size):
        seeds.append((atom(f"r{n}"), rng.choice(words.items), rng.choice(targets.items)))
    pts = {}
    for sigma in all_perms(k):
        for name, w, j in seeds:
            pts[(sigma, name)] = pair(perm_element(sigma), name)
    apex = FiniteSet(pts.values())
    leg1 = {}
    leg2 = {}
    for (sigma, name), pt in pts.items():
        w = next(w0 for n0, w0, _ in seeds if n0 == name)
        j = next(j0 for n0, _, j0 in seeds if n0 == name)
        leg1[pt] = tup(*perm_apply(sigma, w.items))
        leg2[pt] = j
    phi = Span(words, targets, apex, leg1, leg2)
    witnesses = {}
    for tau in all_perms(k):
        h = {}
        for (sigma, name), pt in pts.items():
            composed = tuple(tau[sigma[j]] for j in range(k))
            h[pt] = pts[(composed, name)]
        witnesses[tau] = h
    return phi, witnesses


def run_exponential(seed: int, rounds: int = 4, kmax: int = 2, bound: int = 2) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    # contents-then-arrangement is the identity span, exactly
    sec_ok = True
    for base in (COIN.states, TRAP.states):
        for k in range(kmax + 1):
            comp = span_compose(section_span(base, k), orbit_span(base, k))
            if not span_equal(comp, span_identity(all_msets(base, k))):
                sec_ok = False
    checks.append(check("section-then-orbit-is-identity", sec_ok))

    # the power-vs-ordered-power comparison equalizes every reshuffle
    eq_ok = True
    for k in range(kmax + 1):
        c = chat(COIN, k)
        if check_simulation(c):
            eq_ok = False
        for sigma in all_perms(k):
            reshuffled = compose(c, symmetry_sim(COIN, k, sigma))
            if not _eq(reshuffled, c, "span_only"):
                eq_ok = False
    checks.append(check("chat-equalizes-reshuffles", eq_ok))

    # factoring a symmetric map through the power
    fac_ok = True
    from .exponential import factor_through_power

    for _ in range(rounds):
        k = rng.randint(1, kmax)
        q = rng.choice([UNIT, COIN])
        u = random_simulation(rng, q, tensor_power(COIN, k))
        s = symmetrize_over_power(u, COIN, k)
        if check_simulation(s):
            fac_ok = False
            continue
        f = factor_through_power(s, COIN, k)
        if check_simulation(f):
            fac_ok = False
        back = compose(f, chat(COIN, k))
        if not _eq(back, s, "span_only"):
            fac_ok = False
    checks.append(check("factor-through-power-recovers-map", fac_ok))

    # pushing coequalizing spans of words down to contents
    span_ok = True
    for _ in range(rounds):
        k = rng.randint(1, kmax)
        base = FiniteSet([atom("u"), atom("v")])
        phi, wit = symmetrize_span(rng, base, k)
        psi, eps = span_free_monoid_factor(phi, base, k, witnesses=wit)
        comp = span_compose(orbit_span(base, k), psi)
        if not span_equal(comp, phi):
            span_ok = False
        if sorted(eps.keys(), key=lambda e: e.key) != list(phi.apex):
            span_ok = False
        if len(set(eps.values())) != len(phi.apex) or len(comp.apex) != len(phi.apex):
            span_ok = False
    checks.append(check("reshuffle-invariant-spans-factor", span_ok))

    # comonoid laws for the replay game, on the stock fixtures
    cm_ok = True
    for p in (UNIT, COIN, TRAP):
        bp = bang(p, bound)
        dup = comul_sim(p, bound)
        dis = counit_sim(p, bound)
        ident = identity_sim(bp)
        if check_simulation(dup) or check_simulation(dis):
            cm_ok = False
        u_l, _ = structural_iso("unit_l", bp)
        u_r, _ = structural_iso("unit_r", bp)
        left_counit = compose(compose(dup, tensor_sim(dis, ident)), u_l)
        right_counit = compose(compose(dup, tensor_sim(ident, dis)), u_r)
        if not _eq(left_counit, ident) or not _eq(right_counit, ident):
            cm_ok = False
        a_fwd, _ = structural_iso("assoc", bp, bp, bp)
        coassoc_l = compose(compose(dup, tensor_sim(dup, ident)), a_fwd)
        coassoc_r = compose(dup, tensor_sim(ident, dup))
        if not _eq(coassoc_l, coassoc_r):
            cm_ok = False
        swap, _ = structural_iso("symmetry", bp, bp)
        if not _eq(compose(dup, swap), dup):
            cm_ok = False
    checks.append(check("replay-comonoid-laws", cm_ok))

    # extraction, prepending, and iteration are valid simulations
    from .exponential import deriving_sim

    v_ok = True
    for p in (UNIT, COIN, TRAP):
        if check_simulation(dereliction_sim(p, bound)):
            v_ok = False
        if check_simulation(deriving_sim(p, bound)):
            v_ok = False
        if check_simulation(digging_sim(p, bound)):
            v_ok = False
    checks.append(check("extract-prepend-iterate-valid", v_ok))

    # advisory: iteration's comonad laws at this scale (an open corner of the
    # bounded construction -- reported, not promised)
    from .exponential import bang_sim

    info = []
    for p in (COIN,):
        bp = bang(p, bound)
        dig = digging_sim(p, bound)
        der = dereliction_sim(p, bound)
        ident = identity_sim(bp)
        law2 = compose(dig, dereliction_sim(bp, bound))
        law2_ok = _eq(law2, ident)
        law1 = compose(dig, bang_sim(der, bound))
        law1_full = _eq(law1, ident)
        law1_span = _eq(law1, ident, "span_only")
        info.append(f"extract-after-iterate full={law2_ok}")
        info.append(f"promote-extract-after-iterate full={law1_full} span={law1_span}")
    checks.append(check("info:iterate-comonad-laws", True, "; ".join(info)))
    return checks


# -- suite: synthesis ----------------------------------------------------------------


def run_synthesis(seed: int, rounds: int = 10) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    ok_fix = (
        len(alfred_region(TRAP).states) == 0
        and set(alfred_region(ONEWAY).states) == {atom("ok")}
        and set(dominic_region(TRAP).states) == {atom("ok"), atom("dead")}
        and len(dominic_strategy(ONEWAY).apex) == 2
        and len(max_simulation(COIN, COIN).apex) == 4
    )
    checks.append(check("fixture-regions-and-strategies", ok_fix))

    sound = True
    complete = True
    bridge = True
    for _ in range(rounds):
        g = _pick_game(rng)
        st_a = alfred_strategy(g)
        st_d = dominic_strategy(g)
        if check_simulation(st_a) or check_simulation(st_d):
            sound = False
        # any surviving simulation's footprint sits inside the region
        fuzz_a = random_simulation(rng, unit_game(), g)
        if not {fuzz_a.leg2[r] for r in fuzz_a.apex} <= set(alfred_region(g).states):
            complete = False
        fuzz_d = random_simulation(rng, g, unit_game())
        if not {fuzz_d.leg1[r] for r in fuzz_d.apex} <= set(dominic_region(g).states):
            complete = False
        try:
            flipped = dual(g)
        except SizeRefused:
            continue
        if set(alfred_region(flipped).states) != set(dominic_region(g).states):
            bridge = False
    checks.append(check("strategies-are-valid-simulations", sound))
    checks.append(check("surviving-footprints-inside-region", complete))
    checks.append(check("negation-swaps-the-regions", bridge))

    m_ok = True
    for _ in range(rounds):
        g1 = _pick_game(rng)
        g2 = _pick_game(rng)
        best = max_simulation(g1, g2)
        if check_simulation(best):
            m_ok = False
        fuzz = random_simulation(rng, g1, g2)
        best_pairs = {(best.leg1[r], best.leg2[r]) for r in best.apex}
        fuzz_pairs = {(fuzz.leg1[r], fuzz.leg2[r]) for r in fuzz.apex}
        if not fuzz_pairs <= best_pairs:
            m_ok = False
    checks.append(check("largest-relation-dominates-fuzz", m_ok))
    return checks


SUITES = {
    "category": run_category,
    "monoidal": run_monoidal,
    "biproduct": run_biproduct,
    "exponential": run_exponential,
    "synthesis": run_synthesis,
}


def run_suite(name: str, seed: int) -> list[dict]:
    try:
        runner = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    return runner(seed)
