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

A game is read only through its tables: ``g.moves[i]``, ``g.counters[(i, a)]``
and ``g.next[(i, a, d)]``.  Every builder writes them through one constructor,
``_build_game``: a row is a move, its counter tuple and their successors, and
moves with equal counter tuples share one fiber.  Only it, :func:`make_game`
(loose tables) and the document decoder key the counter and successor tables.

The pure builders (``tensor``, ``oplus``, ``lollipop``, ``dual``,
``tensor_power``, ``power_game`` and ``bang``) share their results: while a
result and the games it was built from are alive, an equal call returns that
same object (see :func:`_shared`).  A game's tables must therefore never be
mutated, since a shared result may be in use elsewhere.  Nothing switches the
sharing off; equality of games stays structural.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .elements import Element, FiniteSet, fun, pair
from .limits import SearchRefused, _budget, _charged


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


def make_game(states, moves, counters, next_table) -> Game:
    """Normalise loose inputs (iterables, dicts of iterables) into a Game."""
    st = states if isinstance(states, FiniteSet) else FiniteSet(states)
    mv = {i: (f if isinstance(f, FiniteSet) else FiniteSet(f)) for i, f in moves.items()}
    ct = {k: (f if isinstance(f, FiniteSet) else FiniteSet(f)) for k, f in counters.items()}
    return Game(states=st, moves=mv, counters=ct, next=dict(next_table))


def _build_game(states, row) -> Game:
    """The game over ``states`` whose rows ``row`` writes.

    ``states`` is any iterable of states, read once, in order.  For each state
    i, ``row(i)`` yields ``(a, counters, successors)`` per move a: its counter
    tuple and, in that order, where each lands.  Moves yielding one counter
    tuple share one fiber (a FiniteSet is immutable).  States and rows are
    pulled in turn, so a builder's enumeration charges keep their order.  This
    is the one builder that keys counters by (i, a) and successors by (i, a, d).
    """
    seen, moves, counters, nxt, fibers = [], {}, {}, {}, {}  # fibers: counter tuple -> fiber
    for i in states:
        seen.append(i)
        ms = []
        for a, ds, js in row(i):
            ms.append(a)
            fiber = fibers.get(ds)
            counters[(i, a)] = fiber if fiber is not None else fibers.setdefault(ds, FiniteSet(ds))
            for d, j in zip(ds, js):
                nxt[(i, a, d)] = j
        moves[i] = FiniteSet(ms)
    return Game(FiniteSet(seen), moves, counters, nxt)


# call key -> (weak refs to the call's game arguments, weak ref to its result,
# what its build charged)
_SHARED: dict = {}


def _shared(build):
    """Share the result of the pure game builder ``build`` while it is held.

    A call is keyed on the builder, the identity of each game argument and the
    value of every other parameter, so ``bang(p, 2)`` and ``bang(p, bound=2)``
    are one entry.  An entry holds only weak references to its games, and the
    first of them (argument or result) to die drops it.  So the table keeps no
    game alive, a refused build stores nothing (a repeat refuses the same way),
    and a fresh process costs what a warm one does.  A call charges the budget
    of the construction running, or opens one (:func:`~polygame.limits._charged`);
    a hit charges what its build did, and rebuilds if that would not fit, so a
    held result refuses as a fresh build does.
    """
    names = build.__code__.co_varnames[:build.__code__.co_argcount]

    def shared(*args, **kwargs):
        if kwargs:  # they must name every parameter left; else Python says what is wrong
            if kwargs.keys() != set(names[len(args):]):
                return build(*args, **kwargs)
            args += tuple(kwargs[n] for n in names[len(args):])
        budget = _budget()
        games = [a for a in args if isinstance(a, Game)]
        key = (build, *(id(a) if isinstance(a, Game) else a for a in args))
        try:
            refs, out, cost = _SHARED[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable argument
            return build(*args)
        else:
            g = out()
            if (g is not None and all(r() is a for r, a in zip(refs, games))
                    and budget.used + cost <= budget.ceiling):
                budget.used += cost
                return g
        used = budget.used
        g = build(*args)
        pop = _SHARED.pop  # bound now: the callback may run at interpreter exit
        drop = lambda _: pop(key, None)  # noqa: E731 - one callback per entry
        _SHARED[key] = ([weakref.ref(a, drop) for a in games], weakref.ref(g, drop),
                        budget.used - used)
        return g

    return functools.wraps(build)(_charged(shared))


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


def validate_family(x: FamilySet) -> list[str]:
    problems = []
    check_keys(
        problems, list(x.base), x.fibers, "missing fiber at {}", "fiber at non-base point {}",
    )
    return problems


@_charged
def extend(g: Game, x: FamilySet) -> FamilySet:
    """The one-step extension of a family along a game.

    Over each state the new fiber collects every way to pick a move together
    with a choice, for each counter to that move, of a point of ``x`` at the
    resulting state.  Encoded as pair(move, fun{counter -> chosen point}).
    Its size therefore obeys

        |extend(g, x)(i)|  =  sum over moves a of
                              prod over counters d of |x(i[a/d])|

    which is the invariant the tests pin against an independent count.
    Extensions past the enumeration ceiling are refused.
    """
    if x.base != g.states:
        raise ValueError("family base must be the game's states")
    budget = _budget()
    fibers = {}
    for i in g.states:
        entries = []
        for a in g.moves[i]:
            ds = g.counters[(i, a)].items
            for choice in budget.pi((x.fibers[g.next[(i, a, d)]] for d in ds), "extend"):
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

    def row(i):
        for a in move_edges.moves[i]:
            mid = move_edges.next[(i, a)]
            ds = counter_edges.moves[mid].items
            yield a, ds, [counter_edges.next[(mid, d)] for d in ds]

    return _build_game(move_edges.states, row)


# -- refine, then backtrack: the search of carrier_iso and equivalent --------


def _refine(sides):
    """Joint colour refinement of two item sets: per-side colours, or None.

    Each side is ``(colour, fold)``: ``colour`` maps each item, in order, to
    an initial colour, and ``fold(item, colours)`` describes what the item sees
    under its side's colours.  A round recolours each item by its colour and
    fold, numbering colours by first appearance over both sides, until the
    colour count stops growing.  Items of different colours never correspond,
    so the answer is None once the sides' colour counts differ.
    """
    table = {}
    cols = [{x: table.setdefault(c, len(table)) for x, c in colour.items()} for colour, _ in sides]
    while Counter(cols[0].values()) == Counter(cols[1].values()):
        n = len(table)
        table = {}
        cols = [
            {x: table.setdefault((c[x], fold(x, c)), len(table)) for x in c}
            for c, (_, fold) in zip(cols, sides)
        ]
        if len(table) == n:
            return cols
    return None


def _backtrack(order, candidates, viable):
    """Yield, in lexicographic order, the injective maps ``viable`` accepts.

    A map sends each ``order[k]`` into ``candidates[k]``.  ``viable(x, y,
    sigma)`` is asked once per unused candidate y of x, with x already sent
    to y in ``sigma``, the partial map, and says whether that may stand.
    """
    sigma, used, tries = {}, set(), []

    def step(x, options):  # move x on to its next viable candidate
        used.discard(sigma.pop(x, None))
        for y in options:
            sigma[x] = y
            if y not in used and viable(x, y, sigma):
                used.add(y)
                return True
        sigma.pop(x, None)
        return False

    while True:
        if len(tries) == len(order):
            yield dict(sigma)
        else:
            tries.append(iter(candidates[len(tries)]))
        while tries and not step(order[len(tries) - 1], tries[-1]):
            tries.pop()
        if not tries:
            return


# -- carrier isomorphism ----------------------------------------------------

# candidate tests one search may make: the sum of 7!/(7-k)! over k = 1..7,
# enough for any pair of games with at most seven states
_ISO_TEST_BOUND = 13_699


def carrier_iso(g1: Game, g2: Game):
    """Search for a structure-preserving relabelling between two games.

    Returns ``(state_map, move_map)`` -- dictionaries sending states to
    states and (state, move) pairs to moves -- such that fibers correspond
    and, for every (i, a), the counter fibers admit a bijection commuting
    with the successor tables (counts per successor state agree; counters
    carry no structure beyond where they lead).  Returns ``None`` when no
    such relabelling exists, else the first in canonical state order.

    States are coloured by their successor tallies, then mapped in canonical
    order onto states of their colour; a state's moves are matched once it
    and its successors are mapped.  Refuses past ``_ISO_TEST_BOUND`` tests.
    """
    if len(g1.states) != len(g2.states):
        return None

    def side(g):
        def fold(i, c):
            tallies = (sorted(c[g.next[(i, a, d)]] for d in g.counters[(i, a)]) for a in g.moves[i])
            return tuple(sorted(map(tuple, tallies)))

        return dict.fromkeys(g.states, 0), fold

    cols = _refine([side(g1), side(g2)])
    if cols is None:
        return None
    order = g1.states.items
    pos = {i: k for k, i in enumerate(order)}
    due = {i: [] for i in order}
    for i in order:
        ends = [i] + [g1.next[(i, a, d)] for a in g1.moves[i] for d in g1.counters[(i, a)]]
        due[max(ends, key=pos.__getitem__)].append(i)
    tests = itertools.count(1)

    def viable(i, j, sigma):
        if next(tests) > _ISO_TEST_BOUND:
            raise SearchRefused("carrier_iso", _ISO_TEST_BOUND + 1, _ISO_TEST_BOUND,
                                "{size} candidate tests exceed bound {bound}")
        return _match_moves(g1, g2, sigma, due[i]) is not None

    candidates = [[j for j in g2.states if cols[1][j] == cols[0][i]] for i in order]
    state_map = next(_backtrack(order, candidates, viable), None)
    return None if state_map is None else (state_map, _match_moves(g1, g2, state_map, order))


def _match_moves(g1: Game, g2: Game, state_map, states):
    """Pair the moves at each of ``states`` by their successor tallies, or None.

    Equal tallies (under ``state_map``) are an equivalence, so the fibers at
    i and j match exactly when their tallies agree as multisets; taking, for
    each move of g1 in canonical order, the first unused move of g2 with an
    equal tally gives the lexicographically first matching.
    """
    move_map = {}
    for i in states:
        j = state_map[i]
        unused = [
            (a2, Counter(g2.next[(j, a2, d)] for d in g2.counters[(j, a2)]))
            for a2 in g2.moves[j]
        ]
        if len(unused) != len(g1.moves[i]):
            return None
        for a1 in g1.moves[i]:
            want = Counter(state_map[g1.next[(i, a1, d)]] for d in g1.counters[(i, a1)])
            n = next((n for n, (_, tally) in enumerate(unused) if tally == want), None)
            if n is None:
                return None
            move_map[(i, a1)] = unused.pop(n)[0]
    return move_map
