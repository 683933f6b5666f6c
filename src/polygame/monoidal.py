"""Tensor, its unit, the internal hom, and negation.

Tensor is synchronous interleaving: a move of P1 (x) P2 is a move in both
components at once, a counter counters both, play advances pointwise.  The
internal hom P2 -o P3 is the game of *translations*: a move at (i2, i3) is a
way to turn P2-moves into P3-moves together with a way to pull P3-counters
back to P2-counters; the opponent then picks a P2-move and a P3-counter.
Negation is the hom into the unit, materialised directly as the game of
counter-choices.

Both the hom and negation enumerate genuinely large fibers, so both take an
enumeration ceiling and refuse (:class:`~polygame.limits.SizeRefused`) rather
than truncate -- the exact fiber size is computed arithmetically first:

    |moves of P2 -o P3 at (i2, i3)|
        = prod over a2 of (sum over a3 of |D2(i2,a2)| ** |D3(i3,a3)|)
"""

from __future__ import annotations

import itertools

from .elements import Element, FiniteSet, enumerate_functions, fun, pair, star
from .games import Game
from .limits import DEFAULT_MAX_ENUM, EnumBudget
from .simulation import Simulation, _relabel_sim, _transport_sim, identity_sim
from .fixtures import unit_game


def tensor(p1: Game, p2: Game) -> Game:
    """Pointwise product game."""
    states = FiniteSet(pair(i1, i2) for i1 in p1.states for i2 in p2.states)
    moves = {}
    counters = {}
    nxt = {}
    for i1 in p1.states:
        for i2 in p2.states:
            i = pair(i1, i2)
            ms = []
            for a1 in p1.moves[i1]:
                for a2 in p2.moves[i2]:
                    a = pair(a1, a2)
                    ms.append(a)
                    ds = []
                    for d1 in p1.counters[(i1, a1)]:
                        j1 = p1.next[(i1, a1, d1)]
                        for d2 in p2.counters[(i2, a2)]:
                            d = pair(d1, d2)
                            ds.append(d)
                            nxt[(i, a, d)] = pair(j1, p2.next[(i2, a2, d2)])
                    counters[(i, a)] = FiniteSet(ds)
            moves[i] = FiniteSet(ms)
    return Game(states, moves, counters, nxt)


def tensor_sim(s1: Simulation, s2: Simulation) -> Simulation:
    """The tensor of two simulations, componentwise on every layer."""
    apex = FiniteSet(pair(r1, r2) for r1 in s1.apex for r2 in s2.apex)

    def move(r, a):
        return pair(s1.alpha[(r.fst, a.fst)], s2.alpha[(r.snd, a.snd)]), None

    def back(r, a, _, e):
        k1 = (r.fst, a.fst, e.fst)
        k2 = (r.snd, a.snd, e.snd)
        return pair(s1.beta[k1], s2.beta[k2]), pair(s1.gamma[k1], s2.gamma[k2])

    return _transport_sim(
        tensor(s1.src, s2.src),
        tensor(s1.dst, s2.dst),
        apex,
        {r: pair(s1.leg1[r.fst], s2.leg1[r.snd]) for r in apex},
        {r: pair(s1.leg2[r.fst], s2.leg2[r.snd]) for r in apex},
        move,
        back,
    )


# -- structural isomorphisms --------------------------------------------------


def structural_iso(kind: str, *games: Game) -> tuple[Simulation, Simulation]:
    """The coherence isomorphisms of the tensor, as a (forward, back) pair.

    kinds: ``assoc`` (P1,P2,P3): (P1xP2)xP3 -> P1x(P2xP3);
    ``unit_l`` (P): 1xP -> P;  ``unit_r`` (P): Px1 -> P;
    ``symmetry`` (P1,P2): P1xP2 -> P2xP1.
    """
    if kind == "assoc":
        p1, p2, p3 = games
        src = tensor(tensor(p1, p2), p3)
        dst = tensor(p1, tensor(p2, p3))
        fwd = _relabel_sim(
            src,
            dst,
            lambda i: pair(i.fst.fst, pair(i.fst.snd, i.snd)),
            lambda i, a: pair(a.fst.fst, pair(a.fst.snd, a.snd)),
            lambda i, a, e: pair(pair(e.fst, e.snd.fst), e.snd.snd),
        )
        bwd = _relabel_sim(
            dst,
            src,
            lambda i: pair(pair(i.fst, i.snd.fst), i.snd.snd),
            lambda i, a: pair(pair(a.fst, a.snd.fst), a.snd.snd),
            lambda i, a, e: pair(e.fst.fst, pair(e.fst.snd, e.snd)),
        )
        return fwd, bwd
    if kind == "unit_l":
        (p,) = games
        unit = unit_game()
        src = tensor(unit, p)
        fwd = _relabel_sim(
            src,
            p,
            lambda i: i.snd,
            lambda i, a: a.snd,
            lambda i, a, e: pair(star(), e),
        )
        bwd = _relabel_sim(
            p,
            src,
            lambda i: pair(star(), i),
            lambda i, a: pair(star(), a),
            lambda i, a, e: e.snd,
        )
        return fwd, bwd
    if kind == "unit_r":
        (p,) = games
        unit = unit_game()
        src = tensor(p, unit)
        fwd = _relabel_sim(
            src,
            p,
            lambda i: i.fst,
            lambda i, a: a.fst,
            lambda i, a, e: pair(e, star()),
        )
        bwd = _relabel_sim(
            p,
            src,
            lambda i: pair(i, star()),
            lambda i, a: pair(a, star()),
            lambda i, a, e: e.fst,
        )
        return fwd, bwd
    if kind == "symmetry":
        p1, p2 = games
        src = tensor(p1, p2)
        dst = tensor(p2, p1)
        swap = lambda x: pair(x.snd, x.fst)  # noqa: E731 - local one-liner
        fwd = _relabel_sim(src, dst, swap, lambda i, a: swap(a), lambda i, a, e: swap(e))
        bwd = _relabel_sim(dst, src, swap, lambda i, a: swap(a), lambda i, a, e: swap(e))
        return fwd, bwd
    raise ValueError(f"unknown structural iso kind {kind!r}")


# -- internal hom --------------------------------------------------------------


def lollipop(p2: Game, p3: Game, max_enum: int = DEFAULT_MAX_ENUM) -> Game:
    """The game of translations of P2 into P3.

    A state is a pair of states.  A move at (i2, i3) is pair(f, phi): f sends
    each P2-move at i2 to a P3-move at i3, and phi pulls each P3-counter to
    f(a2) back to a P2-counter to a2.  The opponent answers with pair(a2, d3)
    -- a P2-move plus a P3-counter -- and both components advance.
    """
    budget = EnumBudget("lollipop", max_enum)
    states = FiniteSet(pair(i2, i3) for i2 in p2.states for i3 in p3.states)
    budget.charge(len(states))
    moves = {}
    counters = {}
    nxt = {}
    for i2 in p2.states:
        a2s = p2.moves_at(i2)
        for i3 in p3.states:
            i = pair(i2, i3)
            a3s = p3.moves_at(i3)

            # arithmetic precount of the move fiber: product over a2 of
            # (sum over a3 of |D2|^|D3|) -- charged before anything is built
            count = 1
            for a2 in a2s:
                per_a2 = 0
                nd2 = len(p2.counters_at(i2, a2))
                for a3 in a3s:
                    per_a2 += nd2 ** len(p3.counters_at(i3, a3))
                count *= per_a2
            budget.charge(count)

            ms = []
            for f in enumerate_functions(a2s, a3s):
                pools = []
                for a2 in a2s.items:
                    d3s = p3.counters_at(i3, f.apply(a2))
                    d2s = p2.counters_at(i2, a2)
                    pools.append(enumerate_functions(d3s, d2s))
                for phis in itertools.product(*pools):
                    phi = fun(zip(a2s.items, phis))
                    m = pair(f, phi)
                    ms.append(m)
                    budget.charge(
                        sum(len(p3.counters_at(i3, f.apply(a2))) for a2 in a2s.items)
                    )
                    ds = []
                    for a2 in a2s.items:
                        for d3 in p3.counters_at(i3, f.apply(a2)):
                            d = pair(a2, d3)
                            ds.append(d)
                            d2 = phi.apply(a2).apply(d3)
                            nxt[(i, m, d)] = pair(
                                p2.next_state(i2, a2, d2),
                                p3.next_state(i3, f.apply(a2), d3),
                            )
                    counters[(i, m)] = FiniteSet(ds)
            moves[i] = FiniteSet(ms)
    return Game(states, moves, counters, nxt)


def curry(s: Simulation, p1: Game, p2: Game, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Transpose s: P1 (x) P2 -> P3 into P1 -> (P2 -o P3).

    The apex is untouched; the two factor games must be supplied because the
    product does not remember its factors.
    """
    if s.src != tensor(p1, p2):
        raise ValueError("curry: src is not the tensor of the given factors")
    p3 = s.dst
    ell = lollipop(p2, p3, max_enum=max_enum)

    def move(r, a1):
        f_graph = []
        phi_graph = []
        for a2 in p2.moves[s.leg1[r].snd]:
            a = pair(a1, a2)
            a3 = s.alpha[(r, a)]
            f_graph.append((a2, a3))
            phi_graph.append(
                (a2, fun((d3, s.beta[(r, a, d3)].snd) for d3 in p3.counters[(s.leg2[r], a3)]))
            )
        return pair(fun(f_graph), fun(phi_graph)), None

    def back(r, a1, _, d):
        k = (r, pair(a1, d.fst), d.snd)
        return s.beta[k].fst, s.gamma[k]

    return _transport_sim(
        p1,
        ell,
        s.apex,
        {r: s.leg1[r].fst for r in s.apex},
        {r: pair(s.leg1[r].snd, s.leg2[r]) for r in s.apex},
        move,
        back,
    )


def uncurry(s: Simulation, p1: Game, p2: Game, p3: Game) -> Simulation:
    """Transpose s: P1 -> (P2 -o P3) back into P1 (x) P2 -> P3.

    Exact inverse of :func:`curry` on the nose (same apex, same raw tables).
    Refuses a source that is not P1, or a target not over P2's and P3's states.
    """
    if s.src != p1:
        raise ValueError("uncurry: src is not the given first factor")
    if s.dst.states != FiniteSet(pair(i2, i3) for i2 in p2.states for i3 in p3.states):
        raise ValueError("uncurry: dst is not over the states of the given factors")

    def move(r, a):
        f_phi = s.alpha[(r, a.fst)]
        return f_phi.fst.apply(a.snd), f_phi.snd.apply(a.snd)

    def back(r, a, inner, d3):
        k = (r, a.fst, pair(a.snd, d3))
        return pair(s.beta[k], inner.apply(d3)), s.gamma[k]

    return _transport_sim(
        tensor(p1, p2),
        p3,
        s.apex,
        {r: pair(s.leg1[r], s.leg2[r].fst) for r in s.apex},
        {r: s.leg2[r].snd for r in s.apex},
        move,
        back,
    )


def eval_sim(p2: Game, p3: Game, max_enum: int = DEFAULT_MAX_ENUM) -> Simulation:
    """Application: (P2 -o P3) (x) P2 -> P3, the uncurried identity."""
    ell = lollipop(p2, p3, max_enum=max_enum)
    return uncurry(identity_sim(ell), ell, p2, p3)


# -- negation ------------------------------------------------------------------


def dual(p: Game, max_enum: int = DEFAULT_MAX_ENUM) -> Game:
    """The negation of a game: players swap roles.

    A move at i is a *choice function* picking one counter for every original
    move; the opponent then reveals which original move was played and the
    play advances along the chosen counter.  This is the hom into the unit,
    materialised with lighter element encoding -- and it is deliberately not
    involutive: negating twice yields choice-functions-over-choice-functions,
    a different (and generally bigger) carrier.
    """
    budget = EnumBudget("dual", max_enum)
    moves = {}
    counters = {}
    nxt = {}
    for i in p.states:
        a_s = p.moves_at(i)
        count = 1
        for a in a_s:
            count *= len(p.counters_at(i, a))
        budget.charge(count * max(1, len(a_s)))
        ms = []
        pools = [p.counters_at(i, a).items for a in a_s.items]
        for choice in itertools.product(*pools):
            f = fun(zip(a_s.items, choice))
            ms.append(f)
            counters[(i, f)] = a_s
            for a, d in zip(a_s.items, choice):
                nxt[(i, f, a)] = p.next_state(i, a, d)
        moves[i] = FiniteSet(ms)
    return Game(p.states, moves, counters, nxt)
