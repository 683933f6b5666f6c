"""The stock desk-scale games every test suite leans on.

UNIT    one position, one move, one counter, a fixed point of play.
COIN    two positions (heads up, tails up); the only move flips the coin
        into the air and the opponent decides which side it lands on.
EMPTY   no positions at all.
TRAP    a hazard: from `ok` the move `go` can be countered safely (stay at
        `ok`) or fatally (drop to `dead`, where no move exists).
ONEWAY  the same hazard with the fatal counter removed -- `go` is always
        safe, so the proponent can keep playing forever.
"""

from __future__ import annotations

from .elements import atom, star
from .games import Game, make_game


def unit_game() -> Game:
    """The monoidal unit: a single position where play idles.  Always the one
    ``UNIT``, so that builders can share what they make from it."""
    return UNIT


def _unit() -> Game:
    s = star()
    return make_game([s], {s: [s]}, {(s, s): [s]}, {(s, s, s): s})


def _coin() -> Game:
    h, t = atom("h"), atom("t")
    flip = atom("flip")
    lh, lt = atom("land_h"), atom("land_t")
    return make_game(
        [h, t],
        {h: [flip], t: [flip]},
        {(h, flip): [lh, lt], (t, flip): [lh, lt]},
        {
            (h, flip, lh): h,
            (h, flip, lt): t,
            (t, flip, lh): h,
            (t, flip, lt): t,
        },
    )


def _trap() -> Game:
    ok, dead = atom("ok"), atom("dead")
    go = atom("go")
    safe, trap = atom("safe"), atom("trap")
    return make_game(
        [ok, dead],
        {ok: [go], dead: []},
        {(ok, go): [safe, trap]},
        {(ok, go, safe): ok, (ok, go, trap): dead},
    )


def _oneway() -> Game:
    ok, dead = atom("ok"), atom("dead")
    go = atom("go")
    safe = atom("safe")
    return make_game(
        [ok, dead],
        {ok: [go], dead: []},
        {(ok, go): [safe]},
        {(ok, go, safe): ok},
    )


UNIT = _unit()
COIN = _coin()
TRAP = _trap()
ONEWAY = _oneway()
EMPTY = make_game([], {}, {}, {})

ALL_FIXTURES = {"unit": UNIT, "coin": COIN, "trap": TRAP, "oneway": ONEWAY, "empty": EMPTY}
