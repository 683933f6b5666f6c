"""Sums of games, projections and injections, and the two trivial layers.

The sum of two games is their tagged disjoint union: play happens on the left
or on the right and never crosses.  It is simultaneously a product and a
coproduct (a biproduct).  Only ``injection`` (a relabelling) and ``copair``
(the one map out of a sum) are written by hand: a ``projection`` is the copair
of an identity and a zero map, and ``pairing`` the sum of its components
composed with the injections.

Two degenerate constructions bracket every game: ``free_game`` puts no moves
on a set of positions (maps *out* of it are trivial to come by) and
``cofree_game`` puts exactly one committed move on each position (maps *into*
it are).  ``adjoint_transpose`` converts between simulations touching these
games and bare spans of positions, in both directions, losslessly.  Both
layers are built row by row through ``games._build_game``, both transposes to
a simulation through ``simulation._transport_sim``, and ``zero_game()`` is the
one ``EMPTY``.
"""

from __future__ import annotations

from typing import Iterable

from .elements import Element, FiniteSet, atom, pair
from .fixtures import EMPTY
from .games import Game, _build_game, _shared
from .simulation import (
    Simulation, Span, _relabel_sim, _transport_sim, add, compose, identity_sim, validate_span,
    zero_sim,
)

_L = atom("L")
_R = atom("R")


def zero_game() -> Game:
    """No positions at all: the unit of the sum.  Always the one ``EMPTY``."""
    return EMPTY


@_shared
def oplus(p1: Game, p2: Game) -> Game:
    """Tagged disjoint union; every layer is tagged, nothing is shared."""
    summands = {pair(tag, i): (tag, p, i) for tag, p in ((_L, p1), (_R, p2)) for i in p.states}

    def row(ti):
        tag, p, i = summands[ti]
        for a in p.moves[i]:
            ds = p.counters[(i, a)].items
            yield pair(tag, a), tuple([pair(tag, d) for d in ds]), [
                pair(tag, p.next[(i, a, d)]) for d in ds
            ]

    return _build_game(summands, row)


def bigoplus(games: Iterable[Game]) -> Game:
    """Right-to-left fold of the binary sum; the empty sum is the zero game."""
    gs = list(games)
    if not gs:
        return zero_game()
    out = gs[-1]
    for g in reversed(gs[:-1]):
        out = oplus(g, out)
    return out


def _summand(p1: Game, p2: Game, side: int) -> tuple[Element, Game]:
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, not {side!r}")
    return (_L, p1) if side == 1 else (_R, p2)


def injection(p1: Game, p2: Game, side: int) -> Simulation:
    """The coprojection of one summand into the sum (side 1 or 2)."""
    tag, p = _summand(p1, p2, side)
    return _relabel_sim(p, oplus(p1, p2), lambda x: pair(tag, x), lambda e: e.snd)


def projection(p1: Game, p2: Game, side: int) -> Simulation:
    """The projection of the sum onto one summand (side 1 or 2): the copair
    of that summand's identity and the zero map out of the other."""
    _summand(p1, p2, side)  # refuses a side other than 1 or 2
    if side == 1:
        return copair(identity_sim(p1), zero_sim(p2, p1))
    return copair(zero_sim(p1, p2), identity_sim(p2))


def copair(s1: Simulation, s2: Simulation) -> Simulation:
    """[s1, s2]: P1 (+) P2 -> Q from s1: P1 -> Q and s2: P2 -> Q."""
    if s1.dst != s2.dst:
        raise ValueError("copair: simulations do not share a target")
    of = {_L: s1, _R: s2}
    apex = FiniteSet(pair(tag, r) for tag, s in of.items() for r in s.apex)

    def move(tr, ta1):
        s = of[tr.fst]
        return s.alpha[(tr.snd, ta1.snd)], s

    def back(tr, ta1, s, d2):
        k = (tr.snd, ta1.snd, d2)
        return pair(tr.fst, s.beta[k]), pair(tr.fst, s.gamma[k])

    return _transport_sim(
        oplus(s1.src, s2.src),
        s1.dst,
        apex,
        {tr: pair(tr.fst, of[tr.fst].leg1[tr.snd]) for tr in apex},
        {tr: of[tr.fst].leg2[tr.snd] for tr in apex},
        move,
        back,
    )


def pairing(t1: Simulation, t2: Simulation) -> Simulation:
    """<t1, t2>: Q -> P1 (+) P2, as the sum of the injected components."""
    if t1.src != t2.src:
        raise ValueError("pairing: simulations do not share a source")
    into1 = injection(t1.dst, t2.dst, 1)
    into2 = injection(t1.dst, t2.dst, 2)
    return add(compose(t1, into1), compose(t2, into2))


def free_game(base: FiniteSet) -> Game:
    """Positions with no moves at all."""
    return _build_game(base, lambda i: ())


def cofree_game(base: FiniteSet) -> Game:
    """Positions with exactly one committed move each (and no counters)."""
    return _build_game(base, lambda i: ((i, (), ()),))


def adjoint_transpose(side: str, direction: str, datum, base: FiniteSet, game: Game):
    """Convert between simulations touching a trivial layer and bare spans.

    ``side="left"``: simulations free_game(base) -> game correspond to spans
    base -> game.states.  ``side="right"``: simulations game -> cofree_game(base)
    correspond to spans game.states -> base.  ``direction`` is ``"to_span"``
    or ``"to_sim"``.  Both round trips are exact on raw data.  A datum off the
    sides (a span) or ends (a simulation) asked for raises ValueError.
    """
    if side not in ("left", "right") or direction not in ("to_span", "to_sim"):
        raise ValueError(f"unknown transpose {side!r}/{direction!r}")
    if side == "left":
        sides, ends, run = (base, game.states), (free_game(base), game), "free_game(base) -> game"
    else:
        sides, ends = (game.states, base), (game, cofree_game(base))
        run = "game -> cofree_game(base)"

    if direction == "to_span":
        s = datum
        if not isinstance(s, Simulation):
            raise TypeError("to_span expects a Simulation")
        if (s.src, s.dst) != ends:
            raise ValueError(f"invalid simulation: it does not run {run}")
        return Span(*sides, s.apex, dict(s.leg1), dict(s.leg2))

    sp = datum
    if not isinstance(sp, Span):
        raise TypeError("to_sim expects a Span")
    bad = validate_span(Span(*sides, sp.apex, sp.leg1, sp.leg2))
    if bad:
        raise ValueError("invalid span: " + "; ".join(bad))
    # the free side has no moves, so there is nothing to transport; on the
    # cofree side every move is answered by the committed move at leg2, which
    # has no counters
    move = None if side == "left" else lambda r, a1: (sp.leg2[r], None)
    return _transport_sim(*ends, sp.apex, dict(sp.leg1), dict(sp.leg2), move, None)
