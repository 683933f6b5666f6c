"""Winning regions, strategies and the largest simulation, by greatest fixpoint.

Alfred survives at a position when some move of his keeps every possible
counter inside the surviving positions; his winning region is the largest
such set.  Dominic's region is the mirror image: every move must admit some
counter that stays inside.  ``max_simulation`` is the same kind of fixpoint
on state pairs: the largest relation-shaped simulation between two games.

One worklist engine computes all three (the attractor algorithm): each
candidate is checked once in canonical order, then again only when one of its
successors is removed, found through a predecessor index built once per call.
A region costs one check per state plus one per removed successor, each
reading that state's rows: linear in the successor rows for bounded fan-out.
``max_simulation`` re-checks, per removed pair, the pairs of its predecessors.

A winning region is the footprint of a simulation touching the unit game: an
Alfred strategy is a simulation unit -> P, a Dominic strategy one P -> unit.
Every extracted witness is the first in canonical order, so reruns are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import FiniteSet, pair, star
from .fixtures import unit_game
from .games import Game, validate_game
from .simulation import Simulation


@dataclass(frozen=True)
class Region:
    """A set of positions where one of the players can keep play alive."""

    side: str  # "alfred" | "dominic"
    states: FiniteSet


def _index(p: Game):
    """``p``'s tables by state position: the states in canonical order, per
    state its moves as (move, counters, successor positions), and per state
    the positions of its predecessors, each once.  A table read that misses
    means ``p`` is invalid, and is refused with ``validate_game``'s
    diagnostics."""
    states = p.states.items
    pos = {i: n for n, i in enumerate(states)}
    rows, preds = [], [[] for _ in states]
    try:
        for n, i in enumerate(states):
            fiber = []
            for a in p.moves[i]:
                ds = p.counters[(i, a)].items
                js = tuple([pos[p.next[(i, a, d)]] for d in ds])
                for j in js:
                    if not preds[j] or preds[j][-1] != n:
                        preds[j].append(n)
                fiber.append((a, ds, js))
            rows.append(fiber)
    except KeyError:
        raise ValueError("invalid game: " + "; ".join(validate_game(p))) from None
    return states, rows, preds


def _greatest_fixpoint(items, holds, dependents) -> set:
    """The largest subset S of ``items`` with ``holds(k, S)`` for every k in S.

    ``holds`` must be monotone in S, and ``dependents(k)`` must name every
    item whose check reads k.  Items are checked in the given order; a
    removal re-queues its live dependents, each at most once while pending.
    """
    alive, pending = set(items), set(items)
    work = list(reversed(items))
    while work:
        k = work.pop()
        pending.discard(k)
        if holds(k, alive):
            continue
        alive.discard(k)
        for j in dependents(k):
            if j in alive and j not in pending:
                pending.add(j)
                work.append(j)
    return alive


# The witness searches, one per shape of the survival predicate; each yields
# its witnesses in canonical order, and a position survives when one exists.


def _safe_moves(fiber, inside):
    """The moves of ``fiber`` all of whose counters land inside."""
    return (m for m in fiber if inside.issuperset(m[2]))


def _safe_counters(move, inside):
    """The counters to ``move`` landing inside, with where they land."""
    return ((d, j) for d, j in zip(move[1], move[2]) if j in inside)


def _answers(fiber2, succ1, inside):
    """The moves of ``fiber2`` each of whose counters pulls back: its position
    j2 plus some j1 in ``succ1`` (p1-successors times |p2|) is a pair inside."""
    for m in fiber2:
        for j2 in m[2]:
            for j1 in succ1:
                if j1 + j2 in inside:
                    break
            else:
                break
        else:
            yield m


def _pullbacks(move1, j2, inside):
    """The counters to ``move1`` landing, with ``j2``, on a pair inside."""
    return ((d, j1) for d, j1 in zip(move1[1], move1[2]) if j1 + j2 in inside)


def _exists(witnesses) -> bool:
    return next(witnesses, None) is not None


_SURVIVES = {
    "alfred": lambda fiber, s: _exists(_safe_moves(fiber, s)),
    "dominic": lambda fiber, s: all(_exists(_safe_counters(m, s)) for m in fiber),
}


def _region(p: Game, side: str):
    """The region with the index it was computed on: (states, rows, alive
    positions, region)."""
    states, rows, preds = _index(p)
    survives = _SURVIVES[side]
    alive = _greatest_fixpoint(
        range(len(states)), lambda n, s: survives(rows[n], s), preds.__getitem__
    )
    return states, rows, alive, Region(side, FiniteSet(states[n] for n in alive))


def alfred_region(p: Game) -> Region:
    """Largest H with: every i in H has a move whose counters all stay in H."""
    return _region(p, "alfred")[3]


def dominic_region(p: Game) -> Region:
    """Largest H with: every move from i in H has a counter staying in H."""
    return _region(p, "dominic")[3]


def alfred_strategy(p: Game) -> Simulation:
    """A simulation unit -> p surviving forever on the Alfred region.

    The apex is the region itself (empty region = the zero simulation); the
    chosen move at each position is the first one, in canonical order, whose
    counters all stay inside the region.
    """
    states, rows, alive, region = _region(p, "alfred")
    s, alpha, beta, gamma = star(), {}, {}, {}
    for n in alive:
        i = states[n]
        alpha[(i, s)], ds, js = next(_safe_moves(rows[n], alive))
        for d, j in zip(ds, js):
            beta[(i, s, d)], gamma[(i, s, d)] = s, states[j]
    legs = {i: s for i in region.states}, {i: i for i in region.states}
    return Simulation(unit_game(), p, region.states, *legs, alpha, beta, gamma)


def dominic_strategy(p: Game) -> Simulation:
    """A simulation p -> unit surviving forever on the Dominic region."""
    states, rows, alive, region = _region(p, "dominic")
    s, alpha, beta, gamma = star(), {}, {}, {}
    for n in alive:
        i = states[n]
        for m in rows[n]:
            alpha[(i, m[0])] = s
            beta[(i, m[0], s)], j = next(_safe_counters(m, alive))
            gamma[(i, m[0], s)] = states[j]
    legs = {i: i for i in region.states}, {i: s for i in region.states}
    return Simulation(p, unit_game(), region.states, *legs, alpha, beta, gamma)


def sim_exists(p: Game, side: str) -> bool:
    """Whether the named player has anywhere to survive at all."""
    if side not in _SURVIVES:
        raise ValueError(f"unknown side {side!r}")
    return len(_region(p, side)[2]) > 0


def _relation_simulation(p1: Game, p2: Game, copies, pick, land) -> Simulation:
    """A simulation p1 -> p2 over the largest relation, whose pairs (i1, i2)
    sit at n1 * |p2| + n2.  ``copies(i1, i2)`` gives the apex points over each
    pair, all pairs first and in canonical order; then, point by point,
    ``pick`` chooses each answering move and pulled-back counter among its
    witnesses, and ``land`` a point over the pair landed on."""
    states1, rows1, preds1 = _index(p1)
    states2, rows2, preds2 = _index(p2)
    w = len(states2)
    rows1 = [[(a, ds, tuple(j * w for j in js)) for a, ds, js in fiber] for fiber in rows1]

    def holds(k, s):
        fiber2 = rows2[k % w]
        return all(_exists(_answers(fiber2, m1[2], s)) for m1 in rows1[k // w])

    def dependents(k):
        return [i1 * w + i2 for i1 in preds1[k // w] for i2 in preds2[k % w]]

    rel = _greatest_fixpoint(range(len(states1) * w), holds, dependents)
    over = {k: copies(states1[k // w], states2[k % w]) for k in sorted(rel)}
    leg1, leg2, alpha, beta, gamma = {}, {}, {}, {}, {}
    for k, points in over.items():
        i1, i2, fiber1, fiber2 = states1[k // w], states2[k % w], rows1[k // w], rows2[k % w]
        for r in points:
            leg1[r], leg2[r] = i1, i2
            for m1 in fiber1:
                a1 = m1[0]
                a2, ds2, js2 = pick(_answers(fiber2, m1[2], rel))
                alpha[(r, a1)] = a2
                for d2, j2 in zip(ds2, js2):
                    d1, j1 = pick(_pullbacks(m1, j2, rel))
                    beta[(r, a1, d2)] = d1
                    gamma[(r, a1, d2)] = land(over[j1 + j2])
    apex = FiniteSet(r for points in over.values() for r in points)
    return Simulation(p1, p2, apex, leg1, leg2, alpha, beta, gamma)


def max_simulation(p1: Game, p2: Game) -> Simulation:
    """The largest relation-shaped simulation p1 -> p2.

    Witnesses are first-in-canonical-order; the apex is the relation itself
    (one point per surviving pair).
    """
    return _relation_simulation(
        p1, p2, lambda i1, i2: (pair(i1, i2),), next, lambda points: points[0]
    )
