"""The acceptance gate: ten criteria, one line each, all at desk scale.

Every criterion prints ``CRITERION nn PASS/FAIL -- summary`` (visible under
``pytest -s``; the per-test verdict in ``pytest -v`` carries the same
information).  Expected values are either derived by hand in the comments or
checked against an independent oracle computed inside the test, never read
back from the implementation.
"""

import itertools
import json
import random
from collections import Counter

import pytest

from polygame.additive import copair, injection, oplus, pairing, projection
from polygame.documents import dump_document, load_document
from polygame.elements import FiniteSet, atom, star
from polygame.exponential import (
    all_msets,
    all_perms,
    all_words,
    bang,
    bang_sim,
    chat,
    deriving_sim,
    factor_through_power,
    find_symmetry_witnesses,
    orbit,
    orbit_span,
    section,
    section_span,
    span_free_monoid_factor,
    symmetry_sim,
    tensor_power,
)
from polygame.fixtures import ALL_FIXTURES, COIN, ONEWAY, TRAP, UNIT, unit_game
from polygame.games import FamilySet, extend, validate_game
from polygame.laws import (
    random_game,
    random_simulation,
    run_suite,
    symmetrize_over_power,
    symmetrize_span,
)
from polygame.monoidal import curry, dual, eval_sim, lollipop, tensor, tensor_sim, uncurry
from polygame.simulation import (
    Simulation,
    Span,
    add,
    check_simulation,
    compose,
    equivalent,
    identity_sim,
    span_compose,
    span_equal,
    span_identity,
    span_iso,
    span_embedding,
    underlying_span,
    zero_sim,
)
from polygame.synthesis import (
    alfred_region,
    alfred_strategy,
    dominic_region,
    dominic_strategy,
    max_simulation,
)

from conftest import FIXTURE_GAMES, eq, run_cli, tampered, valid_by_definition

FIXTURE_POOL = [UNIT, COIN, TRAP, ONEWAY]


def verdict(num: int, ok: bool, summary: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} {word} -- {summary}")
    assert ok, f"criterion {num}: {summary}"


# --- 1. checker agrees with the written-out condition -------------------------------


def test_criterion_01_checker_matches_raw_definition():
    rng = random.Random(101)
    agree = 0
    total = 500
    for n in range(total):
        src = rng.choice(FIXTURE_POOL)
        dst = rng.choice(FIXTURE_POOL)
        s = random_simulation(rng, src, dst)
        if n % 2 and len(s.apex):
            s = tampered(s, rng)
        if (check_simulation(s) == []) == valid_by_definition(s):
            agree += 1
    verdict(1, agree == total, f"checker/oracle agreement on {agree}/{total} candidates")


# --- 2. category laws ----------------------------------------------------------------


def test_criterion_02_category_laws():
    rng = random.Random(102)
    failures = 0
    for _ in range(200):
        a, b, c, d = (rng.choice(FIXTURE_POOL) for _ in range(4))
        s = random_simulation(rng, a, b)
        t = random_simulation(rng, b, c)
        u = random_simulation(rng, c, d)
        if not eq(compose(compose(s, t), u), compose(s, compose(t, u))):
            failures += 1
        if not eq(compose(identity_sim(a), s), s):
            failures += 1
        if not eq(compose(s, identity_sim(b)), s):
            failures += 1
    verdict(2, failures == 0,
            f"associativity and identities on 200 random triples ({failures} counterexamples)")


# --- 3. closed structure -------------------------------------------------------------


def test_criterion_03_curry_eval_and_hom_counts():
    rng = random.Random(103)
    bad = 0
    for _ in range(200):
        p1, p2, p3 = (rng.choice(FIXTURE_POOL) for _ in range(3))
        s = random_simulation(rng, tensor(p1, p2), p3)
        if uncurry(curry(s, p1, p2), p1, p2, p3) != s:
            bad += 1
        t = random_simulation(rng, p1, lollipop(p2, p3))
        if curry(uncurry(t, p1, p2, p3), p1, p2) != t:
            bad += 1
    for _ in range(50):
        p1 = rng.choice([UNIT, COIN])
        p2 = rng.choice([UNIT, COIN])
        p3 = rng.choice([UNIT, COIN, TRAP])
        s = random_simulation(rng, tensor(p1, p2), p3)
        route = compose(tensor_sim(curry(s, p1, p2), identity_sim(p2)), eval_sim(p2, p3))
        if not eq(route, s):
            bad += 1
    # |moves at (i2,i3)| = Sigma_f Pi_{a2} |D2(i2,a2)|^{|D3(i3,f(a2))|}
    for p2, p3 in itertools.product(FIXTURE_POOL + [ALL_FIXTURES["empty"]], repeat=2):
        ell = lollipop(p2, p3)
        for st in ell.states:
            i2, i3 = st.fst, st.snd
            a2s = sorted(p2.moves[i2])
            want = 0
            for f in itertools.product(sorted(p3.moves[i3]), repeat=len(a2s)):
                prod = 1
                for a2, a3 in zip(a2s, f):
                    prod *= len(p2.counters[(i2, a2)]) ** len(p3.counters[(i3, a3)])
                want += prod
            if len(ell.moves[st]) != want:
                bad += 1
    verdict(3, bad == 0,
            f"200 strict curry round trips, 50 eval laws, hom move counts ({bad} failures)")


# --- 4. the extension of the hom -----------------------------------------------------


def test_criterion_04_extension_of_hom_cardinality():
    rng = random.Random(104)
    bad = 0
    cases = list(itertools.product(FIXTURE_POOL, repeat=2))
    cases += [(rng.choice(FIXTURE_POOL), rng.choice(FIXTURE_POOL)) for _ in range(20)]
    for p2, p3 in cases:
        ell = lollipop(p2, p3)
        fibers = {}
        for n, st in enumerate(ell.states):
            fibers[st] = FiniteSet(atom(f"x{n}_{j}") for j in range(rng.randint(0, 2)))
        x = FamilySet(ell.states, fibers)
        ext = extend(ell, x)
        for st in ell.states:
            i2, i3 = st.fst, st.snd
            # Pi_{a2} Sigma_{a3} Pi_{d3} Sigma_{d2} |X(next2, next3)|
            want = 1
            for a2 in p2.moves[i2]:
                s_a3 = 0
                for a3 in p3.moves[i3]:
                    prod_d3 = 1
                    for d3 in p3.counters[(i3, a3)]:
                        s_d2 = 0
                        for d2 in p2.counters[(i2, a2)]:
                            key = None
                            n2 = p2.next[(i2, a2, d2)]
                            n3 = p3.next[(i3, a3, d3)]
                            for cand in ell.states:
                                if cand.fst == n2 and cand.snd == n3:
                                    key = cand
                                    break
                            s_d2 += len(x.fibers[key])
                        prod_d3 *= s_d2
                    s_a3 += prod_d3
                want *= s_a3
            if len(ext.fibers[st]) != want:
                bad += 1
    verdict(4, bad == 0,
            f"hom extension equals the product-sum oracle on {len(cases)} families ({bad} off)")


# --- 5. biproduct --------------------------------------------------------------------


def test_criterion_05_biproduct_equations():
    rng = random.Random(105)
    bad = 0
    pairs = [(COIN, TRAP), (UNIT, COIN), (TRAP, ONEWAY), (UNIT, UNIT)]
    for p, q in pairs:
        i1, i2 = injection(p, q, 1), injection(p, q, 2)
        pr1, pr2 = projection(p, q, 1), projection(p, q, 2)
        if not eq(compose(i1, pr1), identity_sim(p)):
            bad += 1
        if not eq(compose(i2, pr2), identity_sim(q)):
            bad += 1
        if not eq(compose(i1, pr2), zero_sim(p, q)):
            bad += 1
        if not eq(compose(i2, pr1), zero_sim(q, p)):
            bad += 1
        resolved = add(compose(pr1, i1), compose(pr2, i2))
        if not eq(resolved, identity_sim(oplus(p, q))):
            bad += 1
        # split a random map out of the sum and merge it back
        c = rng.choice(FIXTURE_POOL)
        s = random_simulation(rng, oplus(p, q), c)
        if not eq(copair(compose(i1, s), compose(i2, s)), s):
            bad += 1
        f = random_simulation(rng, c, p)
        g = random_simulation(rng, c, q)
        both = pairing(f, g)
        if not (eq(compose(both, pr1), f) and eq(compose(both, pr2), g)):
            bad += 1
    verdict(5, bad == 0, f"biproduct equations and split/merge on {len(pairs)} pairs ({bad} off)")


# --- 6. symmetric powers and the replay comonoid -------------------------------------


def test_criterion_06_powers_and_comonoid():
    rng = random.Random(106)
    bad = []
    base = FiniteSet([atom("a"), atom("b")])
    # section then orbit is the identity on contents, exactly
    for k in (1, 2, 3):
        comp = span_compose(section_span(base, k), orbit_span(base, k))
        if not span_equal(comp, span_identity(FiniteSet(all_msets(base, k)))):
            bad.append(f"section/orbit k={k}")
    # the orbit map equalizes every reshuffle
    for p, k in [(COIN, 2), (COIN, 3), (UNIT, 3)]:
        c = chat(p, k)
        for sigma in all_perms(k):
            if not eq(compose(c, symmetry_sim(p, k, sigma)), c, "span_only"):
                bad.append(f"chat sigma={sigma}")
    # thirty symmetrized inputs factor through the power
    for n in range(30):
        u = random_simulation(rng, rng.choice([UNIT, COIN]), tensor_power(COIN, 2))
        phi = symmetrize_over_power(u, COIN, 2)
        wits = find_symmetry_witnesses(phi, 2)
        if wits is None:
            bad.append(f"witnesses {n}")
            continue
        f = factor_through_power(phi, COIN, 2, wits)
        if check_simulation(f) or not eq(compose(f, chat(COIN, 2)), phi, "span_only"):
            bad.append(f"factor {n}")
    # comonoid laws at full equivalence, bound 2, on all three fixtures
    checks = {c["name"]: c for c in run_suite("exponential", 0)}
    if not checks["replay-comonoid-laws"]["ok"]:
        bad.append("comonoid: " + checks["replay-comonoid-laws"]["details"])
    verdict(6, bad == [], f"powers, factoring, comonoid laws ({'; '.join(bad) or 'all hold'})")


# --- 7. the span-level free commutative monoid ---------------------------------------


def _composite_length(point_counts, word_sizes):
    return sum(word_sizes[m] * n for m, n in point_counts.items())


def test_criterion_07_span_factoring_and_uniqueness():
    bad = []
    base = FiniteSet([atom("a"), atom("b")])
    k = 2
    msets = sorted(all_msets(base, k))
    words_of = {m: sum(1 for w in all_words(base, k) if orbit(w) == m) for m in msets}
    rng = random.Random(107)
    for n in range(30):
        phi, wits = symmetrize_span(rng, base, k, size=rng.randint(1, 3))
        psi, eps = span_free_monoid_factor(phi, base, k, wits)
        route = span_compose(orbit_span(base, k), psi)
        if not span_equal(route, phi):
            bad.append(f"factor {n}")
        if set(eps) != set(phi.apex):
            bad.append(f"eps domain {n}")
    # uniqueness, exhaustively: every span into J whose composite with the
    # orbit span matches phi is a relabelling of the returned one; covered
    # for every target size up to three
    checked = 0
    needed = {1, 2, 3}
    while needed:
        phi, wits = symmetrize_span(rng, base, k, size=2)
        if len(phi.dst) not in needed:
            continue
        needed.remove(len(phi.dst))
        psi, _ = span_free_monoid_factor(phi, base, k, wits)
        targets = sorted(phi.dst)
        legpairs = [(m, j) for m in msets for j in targets]
        total = len(phi.apex)
        survivors = 0
        mismatched = 0
        for size in range(total + 1):
            for combo in itertools.combinations_with_replacement(legpairs, size):
                counts = Counter(combo)
                if sum(words_of[m] * c for (m, _j), c in counts.items()) != total:
                    continue
                apex = FiniteSet(atom(f"q{i}") for i in range(size))
                leg1 = {}
                leg2 = {}
                flat = [lp for lp, c in sorted(counts.items()) for _ in range(c)]
                for pt, (m, j) in zip(sorted(apex), flat):
                    leg1[pt] = m
                    leg2[pt] = j
                cand = Span(FiniteSet(msets), phi.dst, apex, leg1, leg2)
                if span_iso(span_compose(orbit_span(base, k), cand), phi) is None:
                    continue
                survivors += 1
                if span_iso(cand, psi) is None:
                    mismatched += 1
        if survivors == 0:
            bad.append(f"no factoring found by exhaustion at |J|={len(phi.dst)}")
        if mismatched:
            bad.append(f"{mismatched} non-isomorphic factorings at |J|={len(phi.dst)}")
        checked += survivors
    verdict(7, bad == [],
            f"30 factorings verified; uniqueness by exhaustion at target sizes 1-3 "
            f"over {checked} surviving candidates ({'; '.join(bad) or 'unique'})")


# --- 8. synthesis --------------------------------------------------------------------


def test_criterion_08_synthesis():
    rng = random.Random(108)
    bad = []

    def region_oracle(g, side):
        good = set(g.states)
        while True:
            if side == "alfred":
                keep = {i for i in good
                        if any(all(g.next[(i, a, d)] in good
                                   for d in g.counters[(i, a)])
                               for a in g.moves[i])}
            else:
                keep = {i for i in good
                        if all(any(g.next[(i, a, d)] in good
                                   for d in g.counters[(i, a)])
                               for a in g.moves[i])}
            if keep == good:
                return good
            good = keep

    # the four fixture values, against the plain iteration written above
    if set(alfred_region(TRAP).states) != region_oracle(TRAP, "alfred") != set():
        bad.append("alfred TRAP")
    if set(alfred_region(TRAP).states) != set():
        bad.append("alfred TRAP nonempty")
    if set(alfred_region(ONEWAY).states) != {atom("ok")}:
        bad.append("alfred ONEWAY")
    if set(dominic_region(TRAP).states) != {atom("ok"), atom("dead")}:
        bad.append("dominic TRAP")
    best = max_simulation(COIN, COIN)
    if {(best.leg1[r], best.leg2[r]) for r in best.apex} != set(
            itertools.product(COIN.states, COIN.states)):
        bad.append("max sim COIN")
    for g in FIXTURE_POOL + [random_game(rng) for _ in range(20)]:
        if set(alfred_region(g).states) != region_oracle(g, "alfred"):
            bad.append("alfred oracle")
        if set(dominic_region(g).states) != region_oracle(g, "dominic"):
            bad.append("dominic oracle")
        if check_simulation(alfred_strategy(g)) or check_simulation(dominic_strategy(g)):
            bad.append("unsound strategy")
        if check_simulation(max_simulation(g, rng.choice(FIXTURE_POOL))):
            bad.append("unsound max sim")
    # completeness: 200 fuzzed valid strategies live inside the regions
    for _ in range(200):
        g = rng.choice(FIXTURE_POOL + [random_game(rng)])
        fa = random_simulation(rng, unit_game(), g)
        if not {fa.leg2[r] for r in fa.apex} <= set(alfred_region(g).states):
            bad.append("incomplete alfred")
        fd = random_simulation(rng, g, unit_game())
        if not {fd.leg1[r] for r in fd.apex} <= set(dominic_region(g).states):
            bad.append("incomplete dominic")
    verdict(8, bad == [], f"regions, strategies, largest simulation ({'; '.join(sorted(set(bad))) or 'all agree'})")


# --- 9. negative witnesses -----------------------------------------------------------


def test_criterion_09_negative_witnesses():
    bad = []
    # double dual changes the move carrier: TRAP's atom move becomes a
    # function element (the game is carrier-isomorphic, not carrier-equal)
    dd = dual(dual(TRAP))
    ok_state = [s for s in TRAP.states if s.key[1] == "ok"][0]
    if set(dd.moves[ok_state]) == set(TRAP.moves[ok_state]):
        bad.append("double dual did not change the move elements")
    # and on a two-move game even the move counts differ: 2 vs 2^(2*2)
    from polygame.games import make_game
    s0 = atom("s")
    two = FiniteSet([atom("a1"), atom("a2")])
    ds = FiniteSet([atom("d1"), atom("d2")])
    g2 = make_game(FiniteSet([s0]), {s0: two},
                   {(s0, a): ds for a in two},
                   {(s0, a, d): s0 for a in two for d in ds})
    if len(dual(dual(g2)).moves[s0]) == len(g2.moves[s0]):
        bad.append("double dual preserved move counts on the two-move game")

    # prepending is natural only up to a one-way span embedding: with a
    # duplicated-apex morphism the two routes around the square differ
    h = [s for s in COIN.states if s.key[1] == "h"][0]
    (flip,) = COIN.moves[h]
    land_h = [d for d in COIN.counters[(h, flip)] if d.key[1] == "land_h"][0]
    pt1, pt2 = atom("r1"), atom("r2")
    u = Simulation(
        src=COIN, dst=unit_game(),
        apex=FiniteSet([pt1, pt2]),
        leg1={pt1: h, pt2: h},
        leg2={pt1: star(), pt2: star()},
        alpha={(pt1, flip): star(), (pt2, flip): star()},
        beta={(pt1, flip, star()): land_h, (pt2, flip, star()): land_h},
        gamma={(pt1, flip, star()): pt1, (pt2, flip, star()): pt2},
    )
    if check_simulation(u):
        bad.append("witness morphism invalid")
    route_a = compose(tensor_sim(u, bang_sim(u, 1)), deriving_sim(unit_game(), 2))
    route_b = compose(deriving_sim(COIN, 2), bang_sim(u, 2))
    if len(route_a.apex) != 6 or len(route_b.apex) != 5:
        bad.append(f"route sizes {len(route_a.apex)}/{len(route_b.apex)} not 6/5")
    if equivalent(route_a, route_b, "full", search_bound=16) is not None:
        bad.append("routes unexpectedly equivalent")
    if span_embedding(underlying_span(route_b), underlying_span(route_a)) is None:
        bad.append("no embedding of the short route into the long one")
    if span_embedding(underlying_span(route_a), underlying_span(route_b)) is not None:
        bad.append("embedding unexpectedly reversible")
    # with the single-point version of the same morphism the square closes
    u0 = Simulation(
        src=COIN, dst=unit_game(),
        apex=FiniteSet([pt1]), leg1={pt1: h}, leg2={pt1: star()},
        alpha={(pt1, flip): star()}, beta={(pt1, flip, star()): land_h},
        gamma={(pt1, flip, star()): pt1},
    )
    ra = compose(tensor_sim(u0, bang_sim(u0, 1)), deriving_sim(unit_game(), 2))
    rb = compose(deriving_sim(COIN, 2), bang_sim(u0, 2))
    if equivalent(ra, rb, "full", search_bound=16) is None:
        bad.append("relation-shaped square should commute")
    verdict(9, bad == [], f"double dual and one-way naturality ({'; '.join(bad) or 'both witnessed'})")


# --- 10. the command line ------------------------------------------------------------


def test_criterion_10_cli_determinism_and_soak(tmp_path):
    bad = []
    fixtures = ["unit", "coin", "trap", "oneway"]
    commands = []
    for i in range(100):
        g1 = fixtures[i % 4]
        g2 = fixtures[(i // 4) % 4]
        commands.append({
            0: ["tensor", g1, g2],
            1: ["oplus", g1, g2],
            2: ["lollipop", g1, g2],
            3: ["dual", g1],
            4: ["power", g1, str(1 + i % 2)],
            5: ["bang", g1, str(1 + i % 2)],
            6: ["max-sim", g1, g2],
            7: ["synth", g1, "--side", ["alfred", "dominic"][i % 2]],
            8: ["laws", "--suite", ["category", "biproduct", "synthesis"][i % 3],
                "--seed", str(i)],
            9: ["synth", g1, "--side", "dominic", "--region"],
        }[i % 10])
    reparsed = 0
    for n, argv in enumerate(commands):
        first = run_cli(*argv)
        second = run_cli(*argv)
        if first.exit_code != 0 or second.exit_code != 0:
            bad.append(f"exit {argv}")
            continue
        if first.stdout != second.stdout:
            bad.append(f"nondeterministic {argv}")
            continue
        kind, value = load_document(first.stdout)
        if kind == "game" and validate_game(value):
            bad.append(f"invalid game from {argv}")
        elif kind == "simulation" and check_simulation(value):
            bad.append(f"invalid simulation from {argv}")
        # the document survives a validate round trip byte for byte
        if kind in ("game", "simulation"):
            path = tmp_path / f"doc{n}.json"
            path.write_text(first.stdout)
            third = run_cli("validate", str(path))
            if third.exit_code != 0 or third.stdout != first.stdout:
                bad.append(f"validate round trip {argv}")
        reparsed += 1
    verdict(10, bad == [] and reparsed == 100,
            f"{reparsed}/100 runs byte-stable and re-validated ({'; '.join(bad) or 'clean'})")
