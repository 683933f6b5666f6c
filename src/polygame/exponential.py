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
from collections import Counter
from math import comb, prod
from typing import Mapping, Optional

from .elements import Element, FiniteSet, atom, mset, pair, star, tup
from .fixtures import unit_game
from .games import Game
from .limits import DEFAULT_MAX_ENUM, EnumBudget, SizeRefused
from .monoidal import tensor
from .simulation import (
    Simulation, Span, _fibers, _pair_fibers, _relabel_sim, _transport_sim
)


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
    moves = {}
    counters = {}
    nxt = {}
    states = _power_rows(p, k, EnumBudget("power", max_enum), moves, counters, nxt)
    return Game(states, moves, counters, nxt)


def _power_rows(p: Game, k: int, budget: EnumBudget, moves, counters, nxt) -> FiniteSet:
    """Write the rows of the k-th power into the given tables and return its
    states, charging each fiber to ``budget`` before it is built."""
    states = all_msets(p.states, k)
    budget.charge(len(states))
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
    return states


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

    def move(i, a):
        sigma = canonical_match(_word_states(a), i.items)
        raw = tup(*perm_apply(sigma, _word_moves(a)))
        return raw, (sigma, raw)

    def back(i, a, ctx, e):
        sigma, raw = ctx
        return tup(*(e.items[t] for t in sigma)), dst.next[(i, raw, e)]

    apex = dst.states
    return _transport_sim(
        src, dst, apex, {i: orbit(i) for i in apex}, {i: i for i in apex}, move, back
    )


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
    if any(orbit(huw) != orbit(uw) for uw, huw in h.items()):
        return False
    words = all_words(FiniteSet(g.keys()), k)

    def g_word(vw: Element) -> Element:
        return tup(*(g[v] for v in vw.items))

    for vw in words:
        if orbit(rho[vw]) != orbit(vw):
            return False
        if g_word(rho[vw]) != h[g_word(vw)]:
            return False
    # The canonical map vw -> (rho vw, g vw) lands in the pullback (the
    # square commutes), so it is a bijection onto it exactly when it is
    # injective: the pullback has sum over uw of |g^-1(h uw)| points, and
    # |g^-1(w)| depends only on the letters of w, which h keeps, so that sum
    # is sum over uw of |g^-1(uw)| = |V^k|, the size of the image.
    return len({(rho[vw], g_word(vw)) for vw in words}) == len(words)


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

    def move(pt, b1):
        raw = s.alpha[(pt.snd, b1)]
        return tup(*(pair(u, a) for u, a in zip(s.leg2[pt.snd].items, raw.items))), None

    def back(pt, b1, _, dbar):
        key = (pt.snd, b1, dbar)
        r2 = s.gamma[key]
        w2 = s.leg2[r2].items
        return s.beta[key], pts[witnesses[canonical_match(w2, tuple(sorted(w2)))][r2]]

    return _transport_sim(
        s.src,
        dst,
        apex,
        {pt: s.leg1[pt.snd] for pt in apex},
        {pt: pt.fst for pt in apex},
        move,
        back,
    )


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
    """Up to ``bound`` simultaneous replays: the powers 0..bound side by side.

    All the powers are charged to one budget, so ``max_enum`` caps what the
    whole game enumerates.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    budget = EnumBudget("bang", max_enum)
    states = []
    moves = {}
    counters = {}
    nxt = {}
    for k in range(bound + 1):
        states.extend(_power_rows(p, k, budget, moves, counters, nxt))
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
    tag1, tag2 = atom("1"), atom("2")
    apex = FiniteSet(
        pair(m, tup(*tags))
        for m in src.states
        for tags in itertools.product((tag1, tag2), repeat=len(m.items))
    )

    def pools(r):
        dealt = tuple(zip(section(r.fst).items, r.snd.items))
        return pair(mset(x for x, t in dealt if t is tag1), mset(x for x, t in dealt if t is tag2))

    def move(r, a):
        match = canonical_match(_word_states(a), section(r.fst).items)
        pos_tag = [r.snd.items[t] for t in match]
        pos1 = [j for j, v in enumerate(pos_tag) if v is tag1]
        pos2 = [j for j, v in enumerate(pos_tag) if v is tag2]
        b = pair(tup(*(a.items[j] for j in pos1)), tup(*(a.items[j] for j in pos2)))
        return b, (pos1 + pos2, pos_tag)

    def back(r, a, ctx, e):
        slots, pos_tag = ctx
        full: list = [None] * len(a.items)
        for j, d in zip(slots, e.fst.items + e.snd.items):
            full[j] = d
        nexts = [p.next[(x.fst, x.snd, d)] for x, d in zip(a.items, full)]
        n_full = mset(nexts)
        n_tags: list = [None] * len(nexts)
        for j, t in enumerate(canonical_match(tuple(nexts), section(n_full).items)):
            n_tags[t] = pos_tag[j]
        return tup(*full), pair(n_full, tup(*n_tags))

    return _transport_sim(
        src,
        tensor(src, src),
        apex,
        {r: r.fst for r in apex},
        {r: pools(r) for r in apex},
        move,
        back,
    )


def dereliction_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Extract a single copy: replay game -> p over the singleton positions."""
    if bound < 1:
        raise ValueError("dereliction needs at least one copy")
    src = bang(p, bound, max_enum=max_enum)
    apex = FiniteSet(pair(mset([i]), i) for i in p.states)

    def move(r, a):
        raw = a.items[0].snd
        return raw, raw

    def back(r, a, raw, d):
        i2 = p.next[(r.snd, raw, d)]
        return tup(d), pair(mset([i2]), i2)

    return _transport_sim(
        src, p, apex, {r: r.fst for r in apex}, {r: r.snd for r in apex}, move, back
    )


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
        need = Counter(part.items)
        got = []
        rest = []
        for j in remaining:
            u = word_items[j].fst
            if need[u] > 0:
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
    apex = FiniteSet(
        pair(m, big) for big in dst.states if (m := _flatten(big)) in src.states
    )

    def move(r, a):
        parts = r.snd.items  # sorted arrangement of the grouping
        split = _split_into_parts(a.items, parts)
        b = tup(*(pair(part, tup(*(a.items[j] for j in grp))) for part, grp in zip(parts, split)))
        return b, split

    def back(r, a, split, e):
        full: list = [None] * len(a.items)
        for grp, sub in zip(split, e.items):
            for j, d in zip(grp, sub.items):
                full[j] = d
        nexts = [p.next[(x.fst, x.snd, d)] for x, d in zip(a.items, full)]
        return tup(*full), pair(mset(nexts), mset(mset(nexts[j] for j in grp) for grp in split))

    return _transport_sim(
        src, dst, apex, {r: r.fst for r in apex}, {r: r.snd for r in apex}, move, back
    )


def deriving_sim(p: Game, bound: int, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Prepend a fresh copy: p (x) (bound-1 replays) -> bound replays."""
    if bound < 1:
        raise ValueError("deriving needs at least one copy")
    src = tensor(p, bang(p, bound - 1, max_enum=max_enum))
    dst = bang(p, bound, max_enum=max_enum)

    def point(i):  # the witness over a state pair(copy, pool) of src
        return pair(i, mset((i.fst,) + i.snd.items))

    apex = FiniteSet(point(i) for i in src.states)

    def move(r, a):
        return tup(pair(r.fst.fst, a.fst), *a.snd.items), None

    def back(r, a, _, e):
        d = pair(e.items[0], tup(*e.items[1:]))
        return d, point(src.next[(r.fst, a, d)])

    return _transport_sim(
        src, dst, apex, {r: r.fst for r in apex}, {r: r.snd for r in apex}, move, back
    )


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

    def move(rho, a):
        sigma = canonical_match(tuple(u.leg1[r] for r in rho.items), _word_states(a))
        copies = tuple(zip(perm_apply(sigma, rho.items), _word_moves(a)))
        return tup(*(pair(u.leg2[w], u.alpha[(w, x)]) for w, x in copies)), copies

    def back(rho, a, copies, e):
        keys = [(w, x, d) for (w, x), d in zip(copies, e.items)]
        return tup(*(u.beta[k] for k in keys)), mset(u.gamma[k] for k in keys)

    return _transport_sim(
        src,
        dst,
        apexes,
        {rho: mset(u.leg1[r] for r in rho.items) for rho in apexes},
        {rho: mset(u.leg2[r] for r in rho.items) for rho in apexes},
        move,
        back,
    )
