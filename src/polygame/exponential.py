"""Symmetric powers, the bounded replay construction, and its comonoid.

The k-th power of a game plays k copies *up to reshuffling*: a position is a
multiset of k positions, a move is a word spelling out one move in each copy
(the word remembers an arrangement; the position does not), a counter answers
every copy, and play advances copy-wise before forgetting the arrangement
again.  ``tensor_power`` is the same thing without the forgetting, and
``chat`` is the canonical simulation from the shuffled power to the ordered
one, with the arrangement carried by the apex.

``bang`` stacks the powers 0..K into one game: up to K replays of the same
game, opponent's choice of how many.  It carries the usual comonoid
structure (discard, duplicate) plus extraction, iteration, and the
prepend-one-more-copy simulation, each materialised as an explicit span.

Everything involving permutations fixes one convention: a permutation sigma
is a one-line tuple (sigma(0), ..., sigma(k-1)); acting on a word puts letter
j at slot sigma(j); the *canonical* permutation matching word u to word v
(when v rearranges u) is the lexicographically least one, found greedily.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from typing import Mapping, Optional

from .elements import Element, FiniteSet, atom, mset, pair, star, tup
from .fixtures import unit_game
from .games import Game
from .limits import DEFAULT_MAX_ENUM, EnumBudget, SizeRefused
from .monoidal import tensor
from .simulation import Simulation, Span, _fibers, _pair_fibers, _relabel_sim


# -- permutations --------------------------------------------------------------


def perm_apply(sigma: tuple, items: tuple) -> tuple:
    """Place items[j] at slot sigma[j] (a left action on words)."""
    out = [None] * len(items)
    for j, x in enumerate(items):
        out[sigma[j]] = x
    return tuple(out)


def perm_inverse(sigma: tuple) -> tuple:
    out = [0] * len(sigma)
    for j, t in enumerate(sigma):
        out[t] = j
    return tuple(out)


def canonical_match(u_items: tuple, v_items: tuple) -> Optional[tuple]:
    """The least permutation sigma with perm_apply(sigma, u) == v, if any.

    Greedy: slot u[j] at the earliest unused position of v holding the same
    letter.  Returns None when v is not a rearrangement of u.
    """
    k = len(u_items)
    if len(v_items) != k:
        return None
    used = [False] * k
    sigma = []
    for j in range(k):
        for t in range(k):
            if not used[t] and v_items[t] == u_items[j]:
                used[t] = True
                sigma.append(t)
                break
        else:
            return None
    return tuple(sigma)


def all_perms(k: int) -> list[tuple]:
    return sorted(itertools.permutations(range(k)))


# -- words and multisets -------------------------------------------------------


def orbit(word: Element) -> Element:
    """Forget the arrangement of a word."""
    return mset(word.items)


def section(m: Element) -> Element:
    """The canonical (sorted) arrangement of a multiset."""
    return tup(*m.items)


def all_words(base: FiniteSet, k: int) -> FiniteSet:
    return FiniteSet(tup(*w) for w in itertools.product(base.items, repeat=k))


def all_msets(base: FiniteSet, k: int) -> FiniteSet:
    return FiniteSet(
        mset(c) for c in itertools.combinations_with_replacement(base.items, k)
    )


def all_msets_upto(base: FiniteSet, bound: int) -> FiniteSet:
    out = []
    for k in range(bound + 1):
        out.extend(all_msets(base, k))
    return FiniteSet(out)


def _counts(m: Element) -> dict[Element, int]:
    out: dict[Element, int] = {}
    for x in m.items:
        out[x] = out.get(x, 0) + 1
    return out


def _distinct_arrangements(m: Element) -> list[tuple]:
    return sorted(set(itertools.permutations(m.items)))


# -- the two powers -------------------------------------------------------------


def tensor_power(p: Game, k: int, max_enum: int = DEFAULT_MAX_ENUM) -> Game:
    """k ordered copies played in lockstep."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    budget = EnumBudget("tensor_power", max_enum)
    states = all_words(p.states, k)
    budget.charge(len(states))
    moves = {}
    counters = {}
    nxt = {}
    for i in states:
        us = i.items
        budget.charge(prod(len(p.moves_at(u)) for u in us))
        ms = []
        for choice in itertools.product(*(p.moves_at(u).items for u in us)):
            w = tup(*choice)
            ms.append(w)
            cpools = [p.counters_at(u, a).items for u, a in zip(us, choice)]
            budget.charge(prod(len(c) for c in cpools))
            ds = []
            for dchoice in itertools.product(*cpools):
                d = tup(*dchoice)
                ds.append(d)
                nxt[(i, w, d)] = tup(
                    *(p.next_state(u, a, dd) for u, a, dd in zip(us, choice, dchoice))
                )
            counters[(i, w)] = FiniteSet(ds)
        moves[i] = FiniteSet(ms)
    return Game(states, moves, counters, nxt)


def power_game(p: Game, k: int, max_enum: int = DEFAULT_MAX_ENUM) -> Game:
    """k copies up to reshuffling.

    A move at a multiset position is a *word* of (position, move) pairs whose
    position components spell some arrangement of the multiset -- the word
    is the arrangement.  Counters answer position-wise; the successor forgets
    the arrangement again.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    budget = EnumBudget("power", max_enum)
    states = all_msets(p.states, k)
    budget.charge(len(states))
    moves = {}
    counters = {}
    nxt = {}
    for m in states:
        arrangements = _distinct_arrangements(m)
        per_arr = prod(len(p.moves_at(u)) for u in m.items)
        budget.charge(len(arrangements) * per_arr)
        ms = []
        for arr in arrangements:
            for choice in itertools.product(*(p.moves_at(u).items for u in arr)):
                w = tup(*(pair(u, a) for u, a in zip(arr, choice)))
                ms.append(w)
                cpools = [p.counters_at(u, a).items for u, a in zip(arr, choice)]
                budget.charge(prod(len(c) for c in cpools))
                ds = []
                for dchoice in itertools.product(*cpools):
                    d = tup(*dchoice)
                    ds.append(d)
                    nxt[(m, w, d)] = mset(
                        p.next_state(u, a, dd)
                        for u, a, dd in zip(arr, choice, dchoice)
                    )
                counters[(m, w)] = FiniteSet(ds)
        moves[m] = FiniteSet(ms)
    return Game(states, moves, counters, nxt)


def _word_states(word: Element) -> tuple:
    return tuple(x.fst for x in word.items)


def _word_moves(word: Element) -> tuple:
    return tuple(x.snd for x in word.items)


# -- the canonical comparison simulations ---------------------------------------


def symmetry_sim(p: Game, k: int, sigma: tuple, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Reshuffling k ordered copies along a fixed permutation."""
    if sorted(sigma) != list(range(k)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{k - 1}")
    g = tensor_power(p, k, max_enum=max_enum)
    inv = perm_inverse(sigma)
    return _relabel_sim(
        g,
        g,
        lambda i: tup(*perm_apply(sigma, i.items)),
        lambda i, a: tup(*perm_apply(sigma, a.items)),
        lambda i, a, e: tup(*perm_apply(inv, e.items)),
    )


def chat(p: Game, k: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """The power compared against the ordered power.

    Apex = ordered positions; the left leg forgets the arrangement.  A power
    move arrives spelled along *some* arrangement; the canonical permutation
    re-spells it along the apex's arrangement, counters travel back the same
    way, and play advances pointwise.
    """
    src = power_game(p, k, max_enum=max_enum)
    dst = tensor_power(p, k, max_enum=max_enum)
    apex = dst.states
    leg1 = {i: orbit(i) for i in apex}
    leg2 = {i: i for i in apex}
    alpha = {}
    beta = {}
    gamma = {}
    for i in apex:
        for a in src.moves_at(leg1[i]):
            us = _word_states(a)
            sigma = canonical_match(us, i.items)
            raw = tup(*perm_apply(sigma, _word_moves(a)))
            alpha[(i, a)] = raw
            for e in dst.counters_at(i, raw):
                beta[(i, a, e)] = tup(*(e.items[sigma[j]] for j in range(k)))
                gamma[(i, a, e)] = tup(
                    *(
                        p.next_state(i.items[t], raw.items[t], e.items[t])
                        for t in range(k)
                    )
                )
    return Simulation(src, dst, apex, leg1, leg2, alpha, beta, gamma)


# -- transporting permutation actions -------------------------------------------


def permutation_transport(h: Mapping[Element, Element], g: Mapping[Element, Element], k: int):
    """Lift an arrangement-preserving map along a relabelling of letters.

    ``h`` maps words over an alphabet U to words over U without changing the
    underlying multiset; ``g`` maps a second alphabet V into U.  The result
    maps words over V to words over V by applying, at each word, the
    canonical permutation that h performs on its image word.  The lifted map
    commutes with g letter-wise, preserves multisets, and the commuting
    square is a pullback (see :func:`transport_square_is_pullback`).
    """
    letters = set()
    for w in h:
        letters.update(w.items)
    alphabet = FiniteSet(letters)
    words = all_words(alphabet, k)
    if set(h.keys()) != set(words):
        raise ValueError("h is not total on the words over its own alphabet")
    for w, hw in h.items():
        if orbit(hw) != orbit(w):
            raise ValueError(f"h does not preserve arrangement content at {w.text()}")
    for v, img in g.items():
        if img not in alphabet:
            raise ValueError(f"g({v.text()}) is not a letter of h's alphabet")

    v_set = FiniteSet(g.keys())
    rho = {}
    for vw in all_words(v_set, k):
        uw = tup(*(g[v] for v in vw.items))
        sigma = canonical_match(uw.items, h[uw].items)
        rho[vw] = tup(*perm_apply(sigma, vw.items))
    return rho


def transport_square_is_pullback(
    h: Mapping[Element, Element], g: Mapping[Element, Element], k: int, rho: Mapping[Element, Element]
) -> bool:
    """Check commutation, content preservation, and the pullback property."""
    v_set = FiniteSet(g.keys())

    def g_word(vw: Element) -> Element:
        return tup(*(g[v] for v in vw.items))

    for vw in all_words(v_set, k):
        if orbit(rho[vw]) != orbit(vw):
            return False
        if g_word(rho[vw]) != h[g_word(vw)]:
            return False
    # the canonical map into the pullback must be a bijection
    image = {}
    for vw in all_words(v_set, k):
        key = (rho[vw], g_word(vw))
        if key in image:
            return False
        image[key] = vw
    want = set()
    for vw2 in all_words(v_set, k):
        for uw in h.keys():
            if g_word(vw2) == h[uw]:
                want.add((vw2, uw))
    return set(image.keys()) == want


# -- factoring through the power -------------------------------------------------


def _reshuffle(sigma: tuple, leg: int):
    """The map of (leg1, leg2) pairs that reshuffles the word on leg 1 or 2."""
    if leg == 1:
        return lambda k: (tup(*perm_apply(sigma, k[0].items)), k[1])
    return lambda k: (k[0], tup(*perm_apply(sigma, k[1].items)))


def _reshuffle_witnesses(x, k: int, leg: int) -> Optional[dict]:
    """Per-permutation apex bijections of x (a span or a simulation) that
    reshuffle the word on ``leg`` and keep the other leg; None if none exist."""
    fibers = _fibers(x)
    out = {}
    for sigma in all_perms(k):
        h = _pair_fibers(fibers, fibers, _reshuffle(sigma, leg))
        if h is None:
            return None
        out[sigma] = h
    return out


def _check_witnesses(x, k: int, witnesses: dict, leg: int) -> None:
    """Raise ValueError unless, for every permutation, ``witnesses`` holds an
    apex bijection of x that reshuffles the word on ``leg`` and keeps the other leg."""
    for sigma in all_perms(k):
        if sigma not in witnesses:
            raise ValueError(f"missing witness for permutation {sigma!r}")
        h = witnesses[sigma]
        if set(h.keys()) != set(x.apex) or set(h.values()) != set(x.apex):
            raise ValueError(f"witness for {sigma!r} is not an apex bijection")
        over = _reshuffle(sigma, leg)
        for r, r2 in h.items():
            if (x.leg1[r2], x.leg2[r2]) != over((x.leg1[r], x.leg2[r])):
                raise ValueError(f"witness for {sigma!r} breaks the legs at {r.text()}")


def find_symmetry_witnesses(s: Simulation, k: int) -> Optional[dict]:
    """Per-permutation apex bijections H with leg2 o H = sigma o leg2, leg1 o H = leg1.

    Exists exactly when the apex is symmetric over the ordered power: the
    fiber over (q, word) always matches the fiber over (q, reshuffled word)
    in size.  The canonical witness pairs sorted fibers.  Returns None when
    some fiber counts disagree.
    """
    return _reshuffle_witnesses(s, k, 2)


def factor_through_power(
    s: Simulation,
    p: Game,
    k: int,
    witnesses: Optional[dict] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Simulation:
    """Factor a symmetric simulation into the ordered power through the power.

    Given s: Q -> k ordered copies of p whose apex carries symmetry
    witnesses, produce s': Q -> k-th power with s recovered (as a span) by
    following s' with :func:`chat`.  Witnesses are searched for when not
    supplied; supplied ones are checked.
    """
    if s.dst != tensor_power(p, k, max_enum=max_enum):
        raise ValueError("factor_through_power: target is not the ordered power")
    if witnesses is None:
        witnesses = find_symmetry_witnesses(s, k)
        if witnesses is None:
            raise ValueError("apex is not symmetric: no witnesses exist")
    else:
        _check_witnesses(s, k, witnesses, 2)

    dst = power_game(p, k, max_enum=max_enum)
    pts = {}
    for r in s.apex:
        w = s.leg2[r]
        if w.items == tuple(sorted(w.items)):
            pts[r] = pair(orbit(w), r)
    apex = FiniteSet(pts.values())
    leg1 = {pts[r]: s.leg1[r] for r in pts}
    leg2 = {pts[r]: orbit(s.leg2[r]) for r in pts}
    alpha = {}
    beta = {}
    gamma = {}
    for r in pts:
        pt = pts[r]
        i_items = s.leg2[r].items
        for b1 in s.src.moves_at(s.leg1[r]):
            raw = s.alpha[(r, b1)]
            word = tup(*(pair(u, a) for u, a in zip(i_items, raw.items)))
            alpha[(pt, b1)] = word
            for dbar in s.dst.counters_at(s.leg2[r], raw):
                beta[(pt, b1, dbar)] = s.beta[(r, b1, dbar)]
                r2 = s.gamma[(r, b1, dbar)]
                w2 = s.leg2[r2].items
                sigma = canonical_match(w2, tuple(sorted(w2)))
                gamma[(pt, b1, dbar)] = pts[witnesses[sigma][r2]]
    return Simulation(s.src, dst, apex, leg1, leg2, alpha, beta, gamma)


# -- span-level: arrangements versus contents ------------------------------------


def orbit_span(base: FiniteSet, k: int) -> Span:
    """Words related to their contents (apex = words)."""
    words = all_words(base, k)
    return Span(
        words,
        all_msets(base, k),
        words,
        {w: w for w in words},
        {w: orbit(w) for w in words},
    )


def section_span(base: FiniteSet, k: int) -> Span:
    """Contents related to their canonical arrangement (apex = multisets)."""
    msets = all_msets(base, k)
    return Span(
        msets,
        all_words(base, k),
        msets,
        {m: m for m in msets},
        {m: section(m) for m in msets},
    )


def span_free_monoid_factor(
    phi: Span, base: FiniteSet, k: int, witnesses: Optional[dict] = None
):
    """Push a reshuffle-invariant span of words down to contents.

    ``phi`` relates words over ``base`` to some set J and coequalizes the
    reshuffles: for every permutation there is an apex bijection H with
    leg1 o H = sigma o leg1 and leg2 o H = leg2 (searched for when not
    given, checked when given).  Returns ``(psi, eps)``: the span from
    multisets to J obtained by keeping the sorted-word part of the apex, and
    the explicit apex bijection showing phi = psi after the orbit span.
    """
    if phi.src != all_words(base, k):
        raise ValueError("span_free_monoid_factor: source is not the words over base")
    if witnesses is None:
        witnesses = _reshuffle_witnesses(phi, k, 1)
        if witnesses is None:
            raise ValueError("span does not coequalize the reshuffles: no witnesses exist")
    else:
        _check_witnesses(phi, k, witnesses, 1)

    kept = [r for r in phi.apex if phi.leg1[r].items == tuple(sorted(phi.leg1[r].items))]
    psi = Span(
        all_msets(base, k),
        phi.dst,
        FiniteSet(kept),
        {r: orbit(phi.leg1[r]) for r in kept},
        {r: phi.leg2[r] for r in kept},
    )
    eps = {}
    for r in phi.apex:
        w = phi.leg1[r].items
        sigma = canonical_match(w, tuple(sorted(w)))
        eps[r] = pair(phi.leg1[r], witnesses[sigma][r])
    return psi, eps


# -- bounded replay ---------------------------------------------------------------


def bang(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Game:
    """Up to ``bound`` simultaneous replays: the powers 0..bound side by side."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    states = []
    moves = {}
    counters = {}
    nxt = {}
    for k in range(bound + 1):
        g = power_game(p, k, max_enum=max_enum)
        states.extend(g.states)
        moves.update(g.moves)
        counters.update(g.counters)
        nxt.update(g.next)
    return Game(FiniteSet(states), moves, counters, nxt)


def counit_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Discard all copies: replay game -> unit, anchored at the empty position."""
    src = bang(p, bound, max_enum=max_enum)
    dst = unit_game()
    r0 = pair(mset([]), star())
    empty_word = tup()
    return Simulation(
        src,
        dst,
        FiniteSet([r0]),
        {r0: mset([])},
        {r0: star()},
        {(r0, empty_word): star()},
        {(r0, empty_word, star()): empty_word},
        {(r0, empty_word, star()): r0},
    )


def comul_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Duplicate: deal the copies into two pools, every deal witnessed.

    A witness point is a position, plus a tag vector saying for each slot of
    the canonical arrangement which pool that copy goes to.  Deals that
    produce the same pair of pools still count separately -- the fiber over
    a split (m1, m2) has one point per way of choosing m1's copies inside m,
    a product of binomials.  Collapsing them (one point per split) would
    break cocommutativity: at a deal into two *equal* pools nothing else
    could absorb the swap.

    Moves split along the tags (the move word is matched to the canonical
    arrangement first), counters merge back along the same positions, and
    the successor deal tags the successor copies the way their originators
    were tagged.
    """
    src = bang(p, bound, max_enum=max_enum)
    dst = tensor(src, src)
    tag1, tag2 = atom("1"), atom("2")
    pts = {}
    for m in src.states:
        sec = section(m).items
        for tags in itertools.product((1, 2), repeat=len(sec)):
            pt = pair(m, tup(*(tag1 if v == 1 else tag2 for v in tags)))
            pts[(m, tags)] = pt
    apex = FiniteSet(pts.values())
    leg1 = {}
    leg2 = {}
    alpha = {}
    beta = {}
    gamma = {}
    for (m, tags), r in pts.items():
        sec = section(m).items
        m1 = mset(sec[j] for j in range(len(sec)) if tags[j] == 1)
        m2 = mset(sec[j] for j in range(len(sec)) if tags[j] == 2)
        leg1[r] = m
        leg2[r] = pair(m1, m2)
        for a in src.moves_at(m):
            match = canonical_match(_word_states(a), tuple(sec))
            pos_tag = [tags[match[j]] for j in range(len(a.items))]
            pos1 = [j for j, v in enumerate(pos_tag) if v == 1]
            pos2 = [j for j, v in enumerate(pos_tag) if v == 2]
            w1 = tup(*(a.items[j] for j in pos1))
            w2 = tup(*(a.items[j] for j in pos2))
            b = pair(w1, w2)
            alpha[(r, a)] = b
            for e in dst.counters_at(leg2[r], b):
                full: list = [None] * len(a.items)
                for idx, j in enumerate(pos1):
                    full[j] = e.fst.items[idx]
                for idx, j in enumerate(pos2):
                    full[j] = e.snd.items[idx]
                d = tup(*full)
                beta[(r, a, e)] = d
                nexts = [
                    p.next_state(x.fst, x.snd, dd) for x, dd in zip(a.items, full)
                ]
                n_full = mset(nexts)
                n_match = canonical_match(tuple(nexts), section(n_full).items)
                n_tags = [0] * len(nexts)
                for j in range(len(nexts)):
                    n_tags[n_match[j]] = pos_tag[j]
                gamma[(r, a, e)] = pts[(n_full, tuple(n_tags))]
    return Simulation(src, dst, apex, leg1, leg2, alpha, beta, gamma)


def dereliction_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Extract a single copy: replay game -> p over the singleton positions."""
    if bound < 1:
        raise ValueError("dereliction needs at least one copy")
    src = bang(p, bound, max_enum=max_enum)
    pts = {i: pair(mset([i]), i) for i in p.states}
    apex = FiniteSet(pts.values())
    leg1 = {pts[i]: mset([i]) for i in p.states}
    leg2 = {pts[i]: i for i in p.states}
    alpha = {}
    beta = {}
    gamma = {}
    for i in p.states:
        r = pts[i]
        for a in src.moves_at(mset([i])):
            raw = a.items[0].snd
            alpha[(r, a)] = raw
            for d in p.counters_at(i, raw):
                beta[(r, a, d)] = tup(d)
                gamma[(r, a, d)] = pts[p.next_state(i, raw, d)]
    return Simulation(src, p, apex, leg1, leg2, alpha, beta, gamma)


def _flatten(m_of_msets: Element) -> Element:
    out = []
    for part in m_of_msets.items:
        out.extend(part.items)
    return mset(out)


def _split_into_parts(word_items: tuple, parts: tuple) -> list[list[int]]:
    """Greedy successive split of word positions along a tuple of multisets."""
    remaining = list(range(len(word_items)))
    out = []
    for part in parts:
        need = _counts(part)
        got = []
        rest = []
        for j in remaining:
            u = word_items[j].fst
            if need.get(u, 0) > 0:
                need[u] -= 1
                got.append(j)
            else:
                rest.append(j)
        out.append(got)
        remaining = rest
    return out


def digging_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Iterate: replay game -> replay of the replay game.

    A witness holds a pool of copies together with a way to parcel it into at
    most ``bound`` groups (empty groups allowed); moves are parcelled out
    greedily along the canonical arrangement of the grouping.
    """
    src = bang(p, bound, max_enum=max_enum)
    dst = bang(src, bound, max_enum=max_enum)
    pts = {}
    for big in dst.states:
        pts_m = _flatten(big)
        if pts_m in src.states:
            pts[(pts_m, big)] = pair(pts_m, big)
    apex = FiniteSet(pts.values())
    leg1 = {}
    leg2 = {}
    alpha = {}
    beta = {}
    gamma = {}
    for (m, big), r in pts.items():
        leg1[r] = m
        leg2[r] = big
        parts = big.items  # sorted arrangement of the grouping
        for a in src.moves_at(m):
            split = _split_into_parts(a.items, parts)
            part_words = [tup(*(a.items[j] for j in grp)) for grp in split]
            b = tup(*(pair(part, w) for part, w in zip(parts, part_words)))
            alpha[(r, a)] = b
            for e in dst.counters_at(big, b):
                full: list = [None] * len(a.items)
                for t, grp in enumerate(split):
                    for idx, j in enumerate(grp):
                        full[j] = e.items[t].items[idx]
                d = tup(*full)
                beta[(r, a, e)] = d
                nexts = [
                    p.next_state(x.fst, x.snd, dd) for x, dd in zip(a.items, full)
                ]
                n_m = mset(nexts)
                n_big = mset(mset(nexts[j] for j in grp) for grp in split)
                gamma[(r, a, e)] = pts[(n_m, n_big)]
    return Simulation(src, dst, apex, leg1, leg2, alpha, beta, gamma)


def deriving_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Prepend a fresh copy: p (x) (bound-1 replays) -> bound replays."""
    if bound < 1:
        raise ValueError("deriving needs at least one copy")
    small = bang(p, bound - 1, max_enum=max_enum)
    src = tensor(p, small)
    dst = bang(p, bound, max_enum=max_enum)
    pts = {}
    for i in p.states:
        for m in small.states:
            pts[(i, m)] = pair(pair(i, m), mset((i,) + m.items))
    apex = FiniteSet(pts.values())
    leg1 = {}
    leg2 = {}
    alpha = {}
    beta = {}
    gamma = {}
    for (i, m), r in pts.items():
        leg1[r] = pair(i, m)
        leg2[r] = mset((i,) + m.items)
        for a in p.moves_at(i):
            for abar in small.moves_at(m):
                move = pair(a, abar)
                b = tup(pair(i, a), *abar.items)
                alpha[(r, move)] = b
                for e in dst.counters_at(leg2[r], b):
                    d0 = e.items[0]
                    rest = tup(*e.items[1:])
                    beta[(r, move, e)] = pair(d0, rest)
                    i2 = p.next_state(i, a, d0)
                    m2 = mset(
                        p.next_state(x.fst, x.snd, dd)
                        for x, dd in zip(abar.items, e.items[1:])
                    )
                    gamma[(r, move, e)] = pts[(i2, m2)]
    return Simulation(src, dst, apex, leg1, leg2, alpha, beta, gamma)


def bang_sim(u: Simulation, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Promote a simulation to pools of copies (the replay action on maps).

    The apex holds multisets of u's witnesses; a move word is matched to the
    witnesses by the canonical permutation aligning the source positions,
    then u translates copy-wise.
    """
    src = bang(u.src, bound, max_enum=max_enum)
    dst = bang(u.dst, bound, max_enum=max_enum)
    count = comb(len(u.apex) + bound, bound)  # multisets of size <= bound
    if count > max_enum:
        raise SizeRefused("bang_sim apex", count, max_enum)
    apexes = all_msets_upto(FiniteSet(u.apex), bound)
    leg1 = {rho: mset(u.leg1[r] for r in rho.items) for rho in apexes}
    leg2 = {rho: mset(u.leg2[r] for r in rho.items) for rho in apexes}
    alpha = {}
    beta = {}
    gamma = {}
    for rho in apexes:
        rbar = rho.items
        vbar = tuple(u.leg1[r] for r in rbar)
        for a in src.moves_at(leg1[rho]):
            ubar = _word_states(a)
            sigma = canonical_match(vbar, ubar)
            wbar = perm_apply(sigma, rbar)
            raws = _word_moves(a)
            b = tup(*(pair(u.leg2[w], u.alpha[(w, x)]) for w, x in zip(wbar, raws)))
            alpha[(rho, a)] = b
            for e in dst.counters_at(leg2[rho], b):
                beta[(rho, a, e)] = tup(
                    *(
                        u.beta[(w, x, dd)]
                        for w, x, dd in zip(wbar, raws, e.items)
                    )
                )
                gamma[(rho, a, e)] = mset(
                    u.gamma[(w, x, dd)] for w, x, dd in zip(wbar, raws, e.items)
                )
    return Simulation(src, dst, apexes, leg1, leg2, alpha, beta, gamma)
