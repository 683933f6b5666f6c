"""Multisets and words, symmetric powers, the bounded replay construction."""

import itertools
import math
import random
from collections import Counter

import pytest

from polygame import exponential
from polygame.elements import FiniteSet, atom, tup
from polygame.exponential import (
    all_msets,
    all_msets_upto,
    all_perms,
    all_words,
    bang,
    bang_sim,
    chat,
    comul_sim,
    counit_sim,
    dereliction_sim,
    deriving_sim,
    digging_sim,
    factor_through_power,
    find_symmetry_witnesses,
    orbit,
    orbit_span,
    permutation_transport,
    power_game,
    section,
    section_span,
    span_free_monoid_factor,
    symmetry_sim,
    tensor_power,
    transport_square_is_pullback,
)
from polygame.fixtures import COIN, TRAP, UNIT, unit_game
from polygame.games import validate_game
from polygame.laws import random_simulation, symmetrize_over_power, symmetrize_span
from polygame.limits import SizeRefused
from polygame.monoidal import tensor
from polygame.simulation import (
    add,
    check_simulation,
    compose,
    identity_sim,
    span_compose,
    span_equal,
    span_identity,
    span_iso,
)

from conftest import eq

BASE = FiniteSet([atom("a"), atom("b")])


def multiset_count(n_points: int, bound: int) -> int:
    # multisets of size <= bound over n_points items
    return sum(math.comb(n_points + j - 1, j) for j in range(bound + 1))


def test_word_and_mset_counts():
    assert len(all_words(BASE, 3)) == 8
    assert len(all_msets(BASE, 3)) == 4
    assert len(all_msets_upto(BASE, 2)) == 6
    assert len(all_perms(3)) == 6
    assert len(all_msets(BASE, 0)) == 1


# orbit(section(m)) = m for every multiset; section(orbit(w)) sorts w
def test_orbit_section_round_trip():
    for m in all_msets_upto(BASE, 3):
        assert orbit(section(m)) == m
    for w in all_words(BASE, 3):
        assert orbit(section(orbit(w))) == orbit(w)


def test_section_orbit_spans_compose_to_identity():
    for k in (1, 2, 3):
        comp = span_compose(section_span(BASE, k), orbit_span(BASE, k))
        assert span_equal(comp, span_identity(FiniteSet(all_msets(BASE, k))))


def test_power_game_frozen_counts():
    pw = power_game(COIN, 2)
    assert validate_game(pw) == []
    assert len(pw.states) == 3
    for st in pw.states:
        support = set(st.items)
        if len(support) == 2:
            assert len(pw.moves_at(st)) == 2
        else:
            assert len(pw.moves_at(st)) == 1


def test_tensor_power_matches_iterated_tensor_counts():
    tp = tensor_power(COIN, 3)
    tt = tensor(COIN, tensor(COIN, COIN))
    assert len(tp.states) == len(tt.states) == 8
    assert sorted(len(tp.moves_at(s)) for s in tp.states) == \
        sorted(len(tt.moves_at(s)) for s in tt.states)


# chat equalizes every reshuffle: chat ; sigma-hat ~ chat (span mode)
def test_chat_equalizes_symmetries():
    for p, k in [(COIN, 2), (COIN, 3), (UNIT, 3)]:
        c = chat(p, k)
        assert check_simulation(c) == []
        for sigma in all_perms(k):
            route = compose(c, symmetry_sim(p, k, sigma))
            assert eq(route, c, "span_only"), (k, sigma)


def test_symmetry_sims_compose_like_permutations():
    s01 = symmetry_sim(COIN, 2, (1, 0))
    both = compose(s01, s01)
    assert eq(both, identity_sim(tensor_power(COIN, 2)))


def test_factor_through_power_round_trip(rng):
    for _ in range(10):
        u = random_simulation(rng, rng.choice([UNIT, COIN]), tensor_power(COIN, 2))
        phi = symmetrize_over_power(u, COIN, 2)
        wits = find_symmetry_witnesses(phi, 2)
        assert wits is not None
        f = factor_through_power(phi, COIN, 2, wits)
        assert check_simulation(f) == []
        assert eq(compose(f, chat(COIN, 2)), phi, "span_only")


def test_factor_through_power_rejects_non_equalizing(rng):
    u = random_simulation(rng, UNIT, tensor_power(COIN, 2), dup_chance=0.0)
    # a plain unsymmetrized input generally fails to equalize the swap
    if find_symmetry_witnesses(u, 2) is None:
        with pytest.raises(ValueError):
            factor_through_power(u, COIN, 2)


def test_span_level_factoring_and_epsilon(rng):
    for seed in range(6):
        local = random.Random(seed)
        phi, wits = symmetrize_span(local, BASE, 2, size=2)
        psi, eps = span_free_monoid_factor(phi, BASE, 2, wits)
        route = span_compose(orbit_span(BASE, 2), psi)
        assert span_equal(route, phi)
        assert set(eps) == set(phi.apex)


def test_span_factoring_checks_supplied_witnesses():
    base = FiniteSet([atom("u"), atom("v")])
    # seed 2 draws the mixed words [u, v] and [v, u]; where every word is a
    # palindrome (seed 1) the identities are genuine witnesses
    phi, wits = symmetrize_span(random.Random(2), base, 2)
    span_free_monoid_factor(phi, base, 2, wits)
    identities = {sigma: {r: r for r in phi.apex} for sigma in all_perms(2)}
    with pytest.raises(ValueError, match="breaks the legs"):
        span_free_monoid_factor(phi, base, 2, identities)
    with pytest.raises(ValueError, match="missing witness"):
        span_free_monoid_factor(phi, base, 2, {(1, 0): wits[(1, 0)]})
    half = {sigma: dict(list(h.items())[:1]) for sigma, h in wits.items()}
    with pytest.raises(ValueError, match="not an apex bijection"):
        span_free_monoid_factor(phi, base, 2, half)


def test_span_factoring_is_unique_up_to_iso():
    # the multiplicity of each (multiset, j) pair in any factoring is forced,
    # so two factorings can only differ by renaming apex points
    local = random.Random(11)
    phi, wits = symmetrize_span(local, BASE, 2, size=2)
    psi, _ = span_free_monoid_factor(phi, BASE, 2, wits)
    counts = Counter((psi.leg1[r], psi.leg2[r]) for r in psi.apex)
    want = Counter()
    for r in phi.apex:
        w, j = phi.leg1[r], phi.leg2[r]
        if w == section(orbit(w)):
            want[(orbit(w), j)] += 1
    assert counts == want


def test_bang_carrier_is_bounded_multisets():
    for p, k in [(COIN, 2), (TRAP, 2), (UNIT, 3), (COIN, 1)]:
        b = bang(p, k)
        assert validate_game(b) == []
        assert len(b.states) == multiset_count(len(p.states), k)
    assert len(bang(COIN, 2).states) == 6


def test_replay_morphisms_validate_with_frozen_apex_sizes():
    # counit forgets everything: only the empty multiset relates to the point
    cu = counit_sim(COIN, 2)
    assert check_simulation(cu) == [] and len(cu.apex) == 1
    # dereliction: singletons against their state
    de = dereliction_sim(COIN, 2)
    assert check_simulation(de) == [] and len(de.apex) == 2
    # prepending: pairs (state, multiset with room for one more)
    dv = deriving_sim(COIN, 2)
    assert check_simulation(dv) == [] and len(dv.apex) == 6


def test_comul_apex_matches_binomial_oracle():
    # each fiber over (m1, m2) has Pi_x C(mult_m(x), mult_m1(x)) points;
    # summed over all splits of m that is 2^|m|
    for p in (COIN, TRAP):
        cm = comul_sim(p, 2)
        assert check_simulation(cm) == []
        fib = Counter((cm.leg1[r], cm.leg2[r]) for r in cm.apex)
        for (m, m12), got in fib.items():
            whole = Counter(m.items)
            left = Counter(m12.fst.items)
            expect = 1
            for x, mult in whole.items():
                expect *= math.comb(mult, left.get(x, 0))
            assert got == expect, (m, m12)
        total = sum(2 ** len(m.items) for m in cm.src.states)
        assert len(cm.apex) == total == 17


# counit laws, coassociativity, cocommutativity -- all strict here
def test_comonoid_laws_at_full_equivalence():
    from polygame.laws import run_exponential

    checks = {c["name"]: c for c in run_exponential(0)}
    assert checks["replay-comonoid-laws"]["ok"], checks["replay-comonoid-laws"]["details"]


def test_digging_validates_with_frozen_apex_sizes():
    # regroupings of m into at most K parts of size <= K, parts may be empty:
    # K=1 over {h,t}: 2 (for the empty multiset) + 1 + 1           = 4
    # K=2 over {h,t}: 3 + 2 + 2 + 3 + 3 + 3                        = 16
    d1 = digging_sim(COIN, 1)
    d2 = digging_sim(COIN, 2)
    assert check_simulation(d1) == [] and len(d1.apex) == 4
    assert check_simulation(d2) == [] and len(d2.apex) == 16
    assert len(d2.dst.states) == multiset_count(len(bang(COIN, 2).states), 2)


def test_digging_comonad_facts_at_desk_scale():
    # what actually holds for the bounded construction: composing with
    # dereliction of the replay game is the identity outright; promoting
    # dereliction first only recovers the identity up to the span
    bp = bang(COIN, 2)
    dig = digging_sim(COIN, 2)
    ident = identity_sim(bp)
    assert eq(compose(dig, dereliction_sim(bp, 2)), ident)
    promoted = compose(dig, bang_sim(dereliction_sim(COIN, 2), 2))
    assert eq(promoted, ident, "span_only")
    assert not eq(promoted, ident, "full")


def test_bang_sim_preserves_identities_and_validity(rng):
    assert eq(bang_sim(identity_sim(COIN), 2), identity_sim(bang(COIN, 2)))
    for _ in range(5):
        u = random_simulation(rng, COIN, TRAP)
        bu = bang_sim(u, 2)
        assert check_simulation(bu) == []


def test_bang_sim_refuses_before_enumerating(monkeypatch):
    def unreachable(base, bound):
        raise AssertionError("bang_sim enumerated an apex it refuses")

    monkeypatch.setattr(exponential, "all_msets_upto", unreachable)
    u = identity_sim(UNIT)
    for _ in range(3):
        u = add(u, u)  # 8 parallel witnesses, so 165 multisets of at most 3
    with pytest.raises(SizeRefused) as refused:
        bang_sim(u, 3, max_enum=100)
    assert (refused.value.what, refused.value.count) == ("bang_sim apex", 165)


def test_enumeration_budget_is_cumulative():
    # many small fibers must not slip under a per-fiber ceiling
    with pytest.raises(SizeRefused):
        power_game(COIN, 9)
    with pytest.raises(SizeRefused):
        tensor_power(COIN, 12)
    # and an explicit ceiling is honored
    with pytest.raises(SizeRefused):
        bang(COIN, 2, max_enum=5)


def test_bang_charges_one_budget_across_its_powers():
    # the powers 0..3 of COIN charge 3 + 8 + 23 + 76 = 110 rows in all
    with pytest.raises(SizeRefused):
        bang(COIN, 3, max_enum=76)
    assert bang(COIN, 3, max_enum=110) == bang(COIN, 3)


def test_transport_square_is_pullback():
    x, y = atom("x"), atom("y")
    a, b, c = atom("a"), atom("b"), atom("c")

    def on_words(k, f):
        return {w: tup(*f(w.items)) for w in all_words(FiniteSet([x, y]), k)}

    cases = [
        (on_words(2, lambda w: w[::-1]), {a: x, b: y, c: x}, 2, ("ab", "ba")),
        (on_words(3, lambda w: w[1:] + w[:1]), {a: x, b: y}, 3, ("aab", "aba")),
    ]
    for h, g, k, (w1, w2) in cases:
        rho = permutation_transport(h, g, k)
        assert transport_square_is_pullback(h, g, k, rho)
        v1, v2 = (tup(*(atom(ch) for ch in w)) for w in (w1, w2))
        swapped = dict(rho)
        swapped[v1], swapped[v2] = rho[v2], rho[v1]
        assert not transport_square_is_pullback(h, g, k, swapped)
    # h need not be injective: xy and yx both going to xy keeps the pullback
    h = on_words(2, lambda w: w)
    h[tup(y, x)] = tup(x, y)
    g = {a: x, b: y}
    assert transport_square_is_pullback(h, g, 2, permutation_transport(h, g, 2))
    # h must preserve content even on words no V-word maps to
    z = atom("z")
    words = all_words(FiniteSet([x, y, z]), 2)
    g = {a: x, b: y}
    rho = permutation_transport({w: w for w in words}, g, 2)
    h = {w: w for w in words}
    zz, zy = tup(z, z), tup(z, y)
    h[zz], h[zy] = zy, zz
    assert not transport_square_is_pullback(h, g, 2, rho)
