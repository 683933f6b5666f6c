"""Games as finite tables: validation, the extension functor, symmetric input."""

import itertools
import random
import time

import pytest

from polygame import games
from polygame.elements import FiniteSet, atom, pair
from polygame.fixtures import ALL_FIXTURES, COIN, EMPTY, ONEWAY, TRAP, UNIT
from polygame.games import (
    FamilySet,
    StateSpan,
    carrier_iso,
    extend,
    from_symmetric_game,
    make_game,
    validate_game,
)
from polygame.laws import random_game
from polygame.limits import SearchRefused, SizeRefused

from conftest import FIXTURE_GAMES


def family(base, sizes):
    """Family over `base` with `sizes[i]` fresh points in the fiber at state i."""
    fibers = {}
    for n, st in enumerate(base):
        fibers[st] = FiniteSet(atom(f"x{n}_{j}") for j in range(sizes[n]))
    return FamilySet(base, fibers)


def test_fixtures_validate():
    for name, g in sorted(ALL_FIXTURES.items()):
        assert validate_game(g) == [], name


def test_validate_flags_missing_next_row():
    h, t = sorted(COIN.states)
    flip = next(iter(COIN.moves[h]))
    land = sorted(COIN.counters[(h, flip)])[0]
    nxt = {k: v for k, v in COIN.next.items() if k != (h, flip, land)}
    broken = make_game(COIN.states, COIN.moves, COIN.counters, nxt)
    problems = validate_game(broken)
    assert len(problems) == 1
    assert "successor" in problems[0]


def test_validate_flags_foreign_successor():
    h, t = sorted(COIN.states)
    flip = next(iter(COIN.moves[h]))
    land = sorted(COIN.counters[(h, flip)])[0]
    nxt = dict(COIN.next)
    nxt[(h, flip, land)] = atom("nowhere")
    broken = make_game(COIN.states, COIN.moves, COIN.counters, nxt)
    assert validate_game(broken) != []


def test_random_games_validate(rng):
    for _ in range(50):
        assert validate_game(random_game(rng)) == []


# |extend(g, x).fibers[i]| = Sigma_a Pi_d |x.fibers[next(i,a,d)]|
def test_extension_cardinality_law(rng):
    for g in FIXTURE_GAMES + [random_game(rng) for _ in range(20)]:
        sizes = [rng.randint(0, 3) for _ in g.states]
        x = family(g.states, sizes)
        ext = extend(g, x)
        assert ext.base == g.states
        for i in g.states:
            total = 0
            for a in g.moves[i]:
                prod = 1
                for d in g.counters[(i, a)]:
                    prod *= len(x.fibers[g.next[(i, a, d)]])
                total += prod
            assert len(ext.fibers[i]) == total


def test_extension_on_unit_is_identity_up_to_tagging():
    s = next(iter(UNIT.states))
    x = family(UNIT.states, [2])
    ext = extend(UNIT, x)
    assert len(ext.fibers[s]) == 2


def test_extension_empty_fiber_propagates():
    # COIN always risks landing on the empty side: no full choice function exists
    h, t = sorted(COIN.states)
    x = FamilySet(COIN.states, {h: FiniteSet([atom("x")]), t: FiniteSet([])})
    ext = extend(COIN, x)
    assert len(ext.fibers[h]) == 0
    assert len(ext.fibers[t]) == 0


def test_extension_refuses_past_the_default_ceiling():
    # each COIN state has one move with two counters: 70**2 + 70**2 = 9800
    # sections fit under the ceiling of 10000, 71**2 + 71**2 = 10082 do not
    assert len(extend(COIN, family(COIN.states, [70, 70])).fibers[COIN.states.items[0]]) == 4900
    with pytest.raises(SizeRefused) as refused:
        extend(COIN, family(COIN.states, [71, 71]))
    assert str(refused.value) == "extend (cumulative): would enumerate 10082 objects (ceiling 10000)"


def test_extension_base_mismatch_rejected():
    x = family(COIN.states, [1, 1])
    with pytest.raises(ValueError):
        extend(TRAP, x)


def test_from_symmetric_game_single_loop_matches_unit_shape():
    s = atom("s")
    m = atom("m")
    states = FiniteSet([s])
    loop = StateSpan(states, {s: FiniteSet([m])}, {(s, m): s})
    g = from_symmetric_game(loop, loop)
    assert validate_game(g) == []
    assert len(g.states) == 1
    (i,) = g.states
    (a,) = g.moves[i]
    (d,) = g.counters[(i, a)]
    assert g.next[(i, a, d)] == i


def test_from_symmetric_game_two_state_swap():
    # one move p->q and q->p; responses are self-loops taken at the
    # post-move state, so the composite next lands at the other state
    p, q = atom("p"), atom("q")
    a, d = atom("a"), atom("d")
    states = FiniteSet([p, q])
    a_span = StateSpan(states, {p: FiniteSet([a]), q: FiniteSet([a])},
                       {(p, a): q, (q, a): p})
    d_span = StateSpan(states, {p: FiniteSet([d]), q: FiniteSet([d])},
                       {(p, d): p, (q, d): q})
    g = from_symmetric_game(a_span, d_span)
    assert validate_game(g) == []
    other = {p: q, q: p}
    for i in g.states:
        for mv in g.moves[i]:
            for c in g.counters[(i, mv)]:
                assert g.next[(i, mv, c)] == other[i]


def test_from_symmetric_game_missing_moves_give_empty_fiber():
    p, q = atom("p"), atom("q")
    a, d = atom("a"), atom("d")
    states = FiniteSet([p, q])
    a_span = StateSpan(states, {p: FiniteSet([]), q: FiniteSet([a])},
                       {(q, a): p})
    d_span = StateSpan(states, {p: FiniteSet([d]), q: FiniteSet([d])},
                       {(p, d): p, (q, d): q})
    g = from_symmetric_game(a_span, d_span)
    assert validate_game(g) == []
    assert list(g.moves[p]) == []
    assert len(g.moves[q]) == 1


def test_rows_with_unsorted_or_duplicate_counters_get_canonical_fibers():
    p, q, a, b, c, d, e = map(atom, "pqabcde")
    rows = {
        p: [(a, (e, d), (q, p)), (b, (d, e), (p, q)), (c, (d, d), (q, q))],
        q: [(a, (d, e), (p, q))],
    }
    g = games._build_game([q, p], rows.__getitem__)
    assert validate_game(g) == []
    assert g.states.items == (p, q)
    assert g.counters[(p, a)].items == (d, e) == g.counters[(p, b)].items
    assert g.counters[(p, c)].items == (d,)
    assert g.next[(p, a, d)] == p and g.next[(p, a, e)] == q
    # moves yielding one counter tuple share its fiber; other tuples do not
    assert g.counters[(p, b)] is g.counters[(q, a)]
    assert g.counters[(p, a)] is not g.counters[(p, b)]


def test_empty_game_has_no_states():
    assert len(EMPTY.states) == 0
    assert validate_game(EMPTY) == []


def test_fixture_shapes():
    # the shapes the rest of the suite relies on, pinned once
    assert len(UNIT.states) == 1
    assert sorted(s.key[1] for s in COIN.states) == ["h", "t"]
    assert sorted(s.key[1] for s in TRAP.states) == ["dead", "ok"]
    ok = [s for s in TRAP.states if s.key[1] == "ok"][0]
    dead = [s for s in TRAP.states if s.key[1] == "dead"][0]
    assert len(TRAP.moves[ok]) == 1 and len(TRAP.moves[dead]) == 0
    (go,) = TRAP.moves[ok]
    assert len(TRAP.counters[(ok, go)]) == 2
    (go2,) = ONEWAY.moves[[s for s in ONEWAY.states if s.key[1] == "ok"][0]]


# -- carrier isomorphism ------------------------------------------------------


def iso_oracle(g1, g2):
    """The first relabelling over all state and move permutations, written
    plainly: moves match when their counters reach each relabelled successor
    equally often."""
    if len(g1.states) != len(g2.states):
        return None

    def tally(g, i, a, relabel):
        out = {}
        for d in g.counters[(i, a)]:
            t = relabel(g.next[(i, a, d)])
            out[t] = out.get(t, 0) + 1
        return out

    for perm in itertools.permutations(g2.states.items):
        state_map = dict(zip(g1.states.items, perm))
        move_map = {}
        for i in g1.states:
            j = state_map[i]
            a1s, a2s = g1.moves[i].items, g2.moves[j].items
            found = next(
                (
                    p
                    for p in itertools.permutations(a2s)
                    if len(a1s) == len(a2s)
                    and all(
                        tally(g1, i, a1, state_map.get) == tally(g2, j, a2, lambda x: x)
                        for a1, a2 in zip(a1s, p)
                    )
                ),
                None,
            )
            if found is None:
                break
            move_map.update({(i, a1): a2 for a1, a2 in zip(a1s, found)})
        else:
            return state_map, move_map
    return None


def relabelled(g, rng):
    """g with its states and, state by state, its moves renamed at random."""
    names = [atom(f"t{n}") for n in range(len(g.states))]
    rng.shuffle(names)
    st = dict(zip(g.states, names))
    moves, counters, nxt = {}, {}, {}
    for i in g.states:
        new = [atom(f"n{n}") for n in range(len(g.moves[i]))]
        rng.shuffle(new)
        mv = dict(zip(g.moves[i], new))
        moves[st[i]] = new
        for a in g.moves[i]:
            counters[(st[i], mv[a])] = g.counters[(i, a)]
            for d in g.counters[(i, a)]:
                nxt[(st[i], mv[a], d)] = st[g.next[(i, a, d)]]
    return make_game(names, moves, counters, nxt)


def test_carrier_iso_matches_permutation_oracle(rng):
    pool = []
    for _ in range(40):
        g = random_game(rng, 3, 3, 2)
        pool += [(g, relabelled(g, rng)), (g, random_game(rng, 3, 3, 2))]
    found = 0
    for g1, g2 in pool:
        got = carrier_iso(g1, g2)
        assert got == iso_oracle(g1, g2)
        found += got is not None
    assert found >= 40  # every relabelled copy, at least


def one_state_fan(sizes):
    """One state with a move of ``n`` looping counters for each n in sizes."""
    s = atom("s")
    moves = [atom(f"m{k}") for k in range(len(sizes))]
    counters = {(s, a): [atom(f"c{j}") for j in range(n)] for a, n in zip(moves, sizes)}
    nxt = {(s, a, d): s for (_, a), ds in counters.items() for d in ds}
    return make_game([s], {s: moves}, counters, nxt)


def test_carrier_iso_wide_fibers_need_no_permutation_search():
    # ten moves: the old search tried all 10! orders before answering "no"
    g1 = one_state_fan([1] * 9 + [2])
    g2 = one_state_fan([1] * 9 + [3])
    start = time.perf_counter()
    assert carrier_iso(g1, g2) is None
    assert time.perf_counter() - start < 1.0
    # the same fan in reverse order matches move k to move 9 - k's twin
    g3 = one_state_fan([2] + [1] * 9)
    state_map, move_map = carrier_iso(g1, g3)
    s = atom("s")
    assert state_map == {s: s}
    assert move_map[(s, atom("m9"))] == atom("m0")
    assert move_map[(s, atom("m0"))] == atom("m1")



def test_carrier_iso_matches_permutation_oracle_on_eight_states():
    # eight states: more than the old all-orders search accepted
    rng = random.Random(8)
    pairs = []
    while len(pairs) < 3:
        g = random_game(rng, 8, 2, 2)
        if len(g.states) == 8:
            pairs.append((g, relabelled(g, rng)))
    for g, h in pairs[:3]:
        key = next(iter(h.next))
        other = next(j for j in h.states if j is not h.next[key])
        pairs.append((g, make_game(h.states, h.moves, h.counters, {**h.next, key: other})))
    for g1, g2 in pairs:
        assert carrier_iso(g1, g2) == iso_oracle(g1, g2)
    assert all(carrier_iso(g1, g2) is not None for g1, g2 in pairs[:3])


def ring(sizes, tag="r"):
    """Disjoint directed rings of the given sizes: one move, one counter each."""
    go, c = atom("go"), atom("c")
    states, moves, counters, nxt = [], {}, {}, {}
    for n in sizes:
        names = [atom(f"{tag}{len(states) + k:03d}") for k in range(n)]
        for k, i in enumerate(names):
            moves[i], counters[(i, go)] = [go], [c]
            nxt[(i, go, c)] = names[(k + 1) % n]
        states += names
    return make_game(states, moves, counters, nxt)


def test_carrier_iso_decides_two_hundred_state_rings():
    g = ring([200])
    start = time.perf_counter()
    state_map, _ = carrier_iso(g, relabelled(g, random.Random(1)))
    assert time.perf_counter() - start < 1.0
    assert len(set(state_map.values())) == 200
    # regular on both sides, so refinement splits nothing; the search ends anyway
    start = time.perf_counter()
    try:
        assert carrier_iso(g, ring([100, 100], "q")) is None
    except SearchRefused:
        pass
    assert time.perf_counter() - start < 1.0


def test_carrier_iso_refinement_answers_no_without_searching(monkeypatch):
    # one state of the second ring has a second counter: the colour counts differ
    g = ring([200])
    i, go, c2 = atom("r100"), atom("go"), atom("c2")
    h = make_game(g.states, g.moves, {**g.counters, (i, go): [atom("c"), c2]},
                  {**g.next, (i, go, c2): atom("r101")})

    def unreachable(*args):
        raise AssertionError("carrier_iso searched a pair its refinement tells apart")

    monkeypatch.setattr(games, "_match_moves", unreachable)
    assert carrier_iso(g, h) is None


def test_carrier_iso_refuses_past_its_test_bound(monkeypatch):
    monkeypatch.setattr(games, "_ISO_TEST_BOUND", 3)
    g = ring([8])
    with pytest.raises(SearchRefused) as refused:
        carrier_iso(g, relabelled(g, random.Random(0)))
    assert str(refused.value) == "carrier_iso: 4 candidate tests exceed bound 3"
