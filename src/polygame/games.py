"""Finite two-player games.

A game is a complete, finite description of a turn:

* a set of *positions* (states),
* at each position, the moves available to the proponent (we call the two
  players Alfred and Dominic throughout),
* for each move, the counter-moves available to the opponent,
* for every position/move/counter triple, the position the play lands in.

Formally this is a diagram of finite sets over the positions -- the polynomial
reading -- but the code works with plain tables.  All tables are keyed by
:class:`~polygame.elements.Element` values and are treated as immutable once a
game is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .elements import Element, FiniteSet, fun, pair
from .limits import SearchRefused


@dataclass(frozen=True)
class Game:
    """A finite game.

    ``moves`` maps each state to its move fiber; ``counters`` maps each
    (state, move) pair to its counter fiber; ``next`` maps each
    (state, move, counter) triple to the successor state.  Use
    :func:`validate_game` to check a hand-built table; everything this
    library constructs is valid by construction.
    """

    states: FiniteSet
    moves: Mapping[Element, FiniteSet]
    counters: Mapping[tuple[Element, Element], FiniteSet]
    next: Mapping[tuple[Element, Element, Element], Element]

    def moves_at(self, i: Element) -> FiniteSet:
        try:
            return self.moves[i]
        except KeyError:
            raise KeyError(f"no move fiber at state {i!r}") from None

    def counters_at(self, i: Element, a: Element) -> FiniteSet:
        try:
            return self.counters[(i, a)]
        except KeyError:
            raise KeyError(f"no counter fiber at ({i!r}, {a!r})") from None

    def next_state(self, i: Element, a: Element, d: Element) -> Element:
        try:
            return self.next[(i, a, d)]
        except KeyError:
            raise KeyError(f"no successor at ({i!r}, {a!r}, {d!r})") from None


def make_game(states, moves, counters, next_table) -> Game:
    """Normalise loose inputs (iterables, dicts of iterables) into a Game."""
    st = states if isinstance(states, FiniteSet) else FiniteSet(states)
    mv = {i: (f if isinstance(f, FiniteSet) else FiniteSet(f)) for i, f in moves.items()}
    ct = {k: (f if isinstance(f, FiniteSet) else FiniteSet(f)) for k, f in counters.items()}
    return Game(states=st, moves=mv, counters=ct, next=dict(next_table))


def _show(k) -> str:
    """A table key as diagnostics print it: ``h``, ``(h, flip)``, ``(h, flip, x)``."""
    return "(" + ", ".join(map(repr, k)) + ")" if isinstance(k, tuple) else repr(k)


def check_keys(problems: list[str], expected: list, table: Mapping, missing: str, unexpected: str):
    """Compare a table's keys with the keys a walk expects; return those present.

    ``expected`` lists the keys in walk order (states, then fibers, all in
    canonical order).  Each absent key appends ``missing`` with the key in
    place of ``{}``, in walk order; then each key of ``table`` the walk did
    not expect appends ``unexpected``, sorted by its printed form.  The
    sorting happens only when such keys exist, so a valid table costs one
    membership test per key.  Returns the present expected keys in walk
    order, for the checks on their values.
    """
    present = [k for k in expected if k in table]
    if len(present) < len(expected):
        problems.extend(missing.format(_show(k)) for k in expected if k not in table)
    if len(present) < len(table):
        want = set(expected)
        stray = sorted(_show(k) for k in table if k not in want)
        problems.extend(unexpected.format(k) for k in stray)
    return present


def validate_game(g: Game) -> list[str]:
    """Return diagnostics (empty list = valid).

    Checks that the move table is indexed exactly by the states, the counter
    table exactly by the (state, move) pairs, the successor table exactly by
    the (state, move, counter) triples, and that every successor is a state.
    Problems come in canonical order (see :func:`check_keys`), so the list is
    the same in every run.
    """
    problems = []
    states = check_keys(
        problems, list(g.states), g.moves,
        "state {} has no move fiber", "move fiber at non-state {}",
    )
    pairs = check_keys(
        problems, [(i, a) for i in states for a in g.moves[i]], g.counters,
        "missing counter fiber at {}", "counter fiber at unknown pair {}",
    )
    triples = check_keys(
        problems, [(i, a, d) for (i, a) in pairs for d in g.counters[(i, a)]], g.next,
        "missing successor at {}", "successor at unknown triple {}",
    )
    state_set = set(g.states)
    for k in triples:
        if g.next[k] not in state_set:
            problems.append(f"successor {g.next[k]!r} of {_show(k)} is not a state")
    return problems


@dataclass(frozen=True)
class FamilySet:
    """A finite set attached to every point of a base set (an indexed family)."""

    base: FiniteSet
    fibers: Mapping[Element, FiniteSet]

    def fiber(self, i: Element) -> FiniteSet:
        try:
            return self.fibers[i]
        except KeyError:
            raise KeyError(f"no fiber at {i!r}") from None


def validate_family(x: FamilySet) -> list[str]:
    problems = []
    check_keys(
        problems, list(x.base), x.fibers, "missing fiber at {}", "fiber at non-base point {}",
    )
    return problems


def extend(g: Game, x: FamilySet) -> FamilySet:
    """The one-step extension of a family along a game.

    Over each state the new fiber collects every way to pick a move together
    with a choice, for each counter to that move, of a point of ``x`` at the
    resulting state.  Encoded as pair(move, fun{counter -> chosen point}).
    Its size therefore obeys

        |extend(g, x)(i)|  =  sum over moves a of
                              prod over counters d of |x(i[a/d])|

    which is the invariant the tests pin against an independent count.
    """
    if x.base != g.states:
        raise ValueError("family base must be the game's states")
    fibers = {}
    for i in g.states:
        entries = []
        for a in g.moves_at(i):
            ds = g.counters_at(i, a).items
            pools = [x.fiber(g.next_state(i, a, d)).items for d in ds]
            for choice in itertools.product(*pools):
                entries.append(pair(a, fun(zip(ds, choice))))
        fibers[i] = FiniteSet(entries)
    return FamilySet(base=g.states, fibers=fibers)


@dataclass(frozen=True)
class StateSpan:
    """Moves-with-successors over a state set, but no counter layer.

    The raw material :func:`from_symmetric_game` consumes: at every state a
    set of edges, each with one successor state.
    """

    states: FiniteSet
    moves: Mapping[Element, FiniteSet]
    next: Mapping[tuple[Element, Element], Element]


def validate_state_span(s: StateSpan) -> list[str]:
    problems = []
    states = check_keys(
        problems, list(s.states), s.moves,
        "state {} has no edge fiber", "edge fiber at non-state {}",
    )
    edges = check_keys(
        problems, [(i, a) for i in states for a in s.moves[i]], s.next,
        "missing successor at {}", "successor at unknown edge {}",
    )
    for k in edges:
        if s.next[k] not in s.states:
            problems.append(f"successor {s.next[k]!r} is not a state")
    return problems


def from_symmetric_game(move_edges: StateSpan, counter_edges: StateSpan) -> Game:
    """Interleave two edge systems over one state set into a game.

    The proponent plays an edge of ``move_edges`` from the current state; the
    opponent then plays an edge of ``counter_edges`` *from the state that move
    reached*; the play lands where the counter-edge points.  So

        counters(i, a) = counter_edges.moves[ move_edges.next[(i, a)] ]
        next(i, a, d)  = counter_edges.next[ (move_edges.next[(i, a)], d) ]
    """
    if move_edges.states != counter_edges.states:
        raise ValueError("both edge systems must share one state set")
    for name, span in (("move", move_edges), ("counter", counter_edges)):
        bad = validate_state_span(span)
        if bad:
            raise ValueError(f"invalid {name} edge system: " + "; ".join(bad))
    moves = {i: move_edges.moves[i] for i in move_edges.states}
    counters = {}
    next_table = {}
    for i in move_edges.states:
        for a in moves[i]:
            mid = move_edges.next[(i, a)]
            counters[(i, a)] = counter_edges.moves[mid]
            for d in counters[(i, a)]:
                next_table[(i, a, d)] = counter_edges.next[(mid, d)]
    return Game(states=move_edges.states, moves=moves, counters=counters, next=next_table)


# -- carrier isomorphism ----------------------------------------------------

_ISO_STATE_BOUND = 7


def carrier_iso(g1: Game, g2: Game):
    """Search for a structure-preserving relabelling between two games.

    Returns ``(state_map, move_map)`` -- dictionaries sending states to
    states and (state, move) pairs to moves -- such that fibers correspond
    and, for every (i, a), the counter fibers admit a bijection commuting
    with the successor tables (counts per successor state agree; counters
    carry no structure beyond where they lead).  Returns ``None`` when no
    such relabelling exists.  Refuses above a small state-count bound.
    """
    n = len(g1.states)
    if n != len(g2.states):
        return None
    if n > _ISO_STATE_BOUND:
        raise SearchRefused("carrier_iso", n, _ISO_STATE_BOUND)

    s1 = g1.states.items
    for perm in itertools.permutations(g2.states.items):
        state_map = dict(zip(s1, perm))
        move_map = _match_moves(g1, g2, state_map)
        if move_map is not None:
            return state_map, move_map
    return None


def _match_moves(g1: Game, g2: Game, state_map):
    """Pair the moves at every state by their successor tallies, or None.

    Equal tallies (under ``state_map``) are an equivalence, so the fibers at
    i and j match exactly when their tallies agree as multisets; taking, for
    each move of g1 in canonical order, the first unused move of g2 with an
    equal tally gives the lexicographically first matching.
    """
    move_map = {}
    for i in g1.states:
        j = state_map[i]
        unused = [
            (a2, Counter(g2.next_state(j, a2, d) for d in g2.counters_at(j, a2)))
            for a2 in g2.moves_at(j)
        ]
        if len(unused) != len(g1.moves_at(i)):
            return None
        for a1 in g1.moves_at(i):
            want = Counter(state_map[g1.next_state(i, a1, d)] for d in g1.counters_at(i, a1))
            n = next((n for n, (_, tally) in enumerate(unused) if tally == want), None)
            if n is None:
                return None
            move_map[(i, a1)] = unused.pop(n)[0]
    return move_map
