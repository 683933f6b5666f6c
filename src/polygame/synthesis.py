"""Winning regions, strategies and the largest simulation, by one greatest
fixpoint on state pairs.

``max_simulation(p1, p2)`` is the largest relation-shaped simulation: the
largest set of pairs (i1, i2) where every move of p1 at i1 has an answering
move of p2 at i2, each of whose counters pulls back to a counter of p1's move
that lands, with it, on a pair of the set.  Everything else here is that
relation with the unit game on one side.  An Alfred strategy is a simulation
unit -> P and a Dominic strategy one P -> unit; a winning region is the
footprint of the largest one.  Against the unit, "some answer all of whose
counters pull back" reads "some move all of whose counters stay inside"
(Alfred), and the mirror reads "every move has a counter staying inside"
(Dominic).

One worklist engine computes the relation (the attractor algorithm): each
pair is checked once in canonical order, then again only when one of its
successors is removed, found through predecessor indexes built once per
call.  With the unit on one side the pairs are the states of P and their
dependents its predecessors, so a region costs one check per state plus one
per removed successor, each reading that state's rows: linear in the
successor rows for bounded fan-out.

One extraction turns the relation into a simulation.  Every synthesised
witness is the first in canonical order, so reruns are reproducible; the
strategies' apex is the winning region itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .elements import FiniteSet, pair
from .fixtures import unit_game
from .games import Game, validate_game
from .simulation import Simulation


@dataclass(frozen=True)
class Region:
    """A set of positions where one of the players can keep play alive."""

    side: str  # "alfred" | "dominic"
    states: FiniteSet


def _index(p: Game, scale: int):
    """``p``'s tables by state position: the states in canonical order, per
    state its moves as (move, counters, successor positions times ``scale``),
    and per state the positions of its predecessors, each once.  A table
    read that misses means ``p`` is invalid, and is refused with
    ``validate_game``'s diagnostics."""
    states = p.states.items
    pos = {i: n for n, i in enumerate(states)}
    rows, preds = [], [[] for _ in states]
    try:
        for n, i in enumerate(states):
            fiber = []
            for a in p.moves[i]:
                ds = p.counters[(i, a)].items
                js = []
                for d in ds:
                    j = pos[p.next[(i, a, d)]]
                    if not preds[j] or preds[j][-1] != n:
                        preds[j].append(n)
                    js.append(j * scale)
                fiber.append((a, ds, tuple(js)))
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


def _answers(fiber2, succ1, inside, every) -> list:
    """The moves of ``fiber2``, in order, each of whose counters pulls back:
    its position j2 plus some j1 in ``succ1`` (p1-successors times |p2|) is
    a pair inside.  Unless ``every``, the list stops at the first."""
    out = []
    for m in fiber2:
        for j2 in m[2]:
            for j1 in succ1:
                if j1 + j2 in inside:
                    break
            else:
                break
        else:
            if not every:
                return [m]
            out.append(m)
    return out


def _relation(p1: Game, p2: Game):
    """The largest relation p1 -> p2 with the tables it was computed on:
    (states1, rows1, states2, rows2, pairs), each pair (i1, i2) kept as
    n1 * |p2| + n2 and p1's successor positions already times |p2|."""
    w = len(p2.states)
    states1, rows1, preds1 = _index(p1, w)
    states2, rows2, preds2 = _index(p2, 1)

    def holds(k, s):
        fiber2 = rows2[k % w]
        for m1 in rows1[k // w]:
            if not _answers(fiber2, m1[2], s, False):
                return False
        return True

    def dependents(k):
        return [i1 * w + i2 for i1 in preds1[k // w] for i2 in preds2[k % w]]

    rel = _greatest_fixpoint(range(len(states1) * w), holds, dependents)
    return states1, rows1, states2, rows2, rel


def alfred_region(p: Game) -> Region:
    """Largest H with: every i in H has a move whose counters all stay in H;
    the targets of the largest relation unit -> p."""
    _, _, states, _, rel = _relation(unit_game(), p)
    return Region("alfred", FiniteSet(states[k] for k in rel))


def dominic_region(p: Game) -> Region:
    """Largest H with: every move from i in H has a counter staying in H;
    the sources of the largest relation p -> unit."""
    states, _, _, _, rel = _relation(p, unit_game())
    return Region("dominic", FiniteSet(states[k] for k in rel))


def sim_exists(p: Game, side: str) -> bool:
    """Whether the named player has anywhere to survive at all."""
    region = {"alfred": alfred_region, "dominic": dominic_region}.get(side)
    if region is None:
        raise ValueError(f"unknown side {side!r}")
    return len(region(p).states) > 0


def _relation_simulation(p1: Game, p2: Game, copies, pick=None) -> Simulation:
    """A simulation p1 -> p2 over the largest relation.  ``copies(i1, i2)``
    gives the apex points over each pair, all pairs first, in canonical order;
    then, per point and move, ``pick`` (by default the first, where each list
    stops) chooses from a list in canonical order the answering move, and per
    counter of it the pulled-back counter and the point over the pair landed on."""
    every = pick is not None
    pick = pick or itemgetter(0)
    states1, rows1, states2, rows2, rel = _relation(p1, p2)
    w = len(states2)
    over = {k: copies(states1[k // w], states2[k % w]) for k in sorted(rel)}
    leg1, leg2, alpha, beta, gamma = {}, {}, {}, {}, {}
    for k, points in over.items():
        n1, n2 = divmod(k, w)
        fiber1, fiber2 = rows1[n1], rows2[n2]
        for r in points:
            leg1[r], leg2[r] = states1[n1], states2[n2]
            for a1, ds1, js1 in fiber1:
                a2, ds2, js2 = pick(_answers(fiber2, js1, rel, every))
                alpha[(r, a1)] = a2
                pulls = list(zip(ds1, js1))
                for d2, j2 in zip(ds2, js2):
                    back = []
                    for dj in pulls:
                        if dj[1] + j2 in rel:
                            back.append(dj)
                            if not every:
                                break
                    key = (r, a1, d2)
                    beta[key], j1 = pick(back)
                    gamma[key] = pick(over[j1 + j2])
    apex = FiniteSet(r for points in over.values() for r in points)
    return Simulation(p1, p2, apex, leg1, leg2, alpha, beta, gamma)


def alfred_strategy(p: Game) -> Simulation:
    """A simulation unit -> p surviving forever on the Alfred region, whose
    states are its apex (empty region = the zero simulation)."""
    return _relation_simulation(unit_game(), p, lambda _, i: (i,))


def dominic_strategy(p: Game) -> Simulation:
    """A simulation p -> unit surviving forever on the Dominic region, whose
    states are its apex."""
    return _relation_simulation(p, unit_game(), lambda i, _: (i,))


def max_simulation(p1: Game, p2: Game) -> Simulation:
    """The largest relation-shaped simulation p1 -> p2.

    Witnesses are first-in-canonical-order; the apex is the relation itself
    (one point per surviving pair).
    """
    return _relation_simulation(p1, p2, lambda i1, i2: (pair(i1, i2),))
