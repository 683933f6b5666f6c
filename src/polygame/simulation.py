"""Simulations between games, and the spans underneath them.

A simulation from game P1 to game P2 witnesses that Dominic can shadow in P1
whatever Alfred attempts in P2 -- concretely it is:

* an *apex*: a finite set of witness points, each lying over a pair of
  positions (``leg1`` into P1, ``leg2`` into P2);
* ``alpha``: for each witness r and P1-move a1 at leg1(r), a P2-move;
* ``beta``:  for each counter d2 to that P2-move, a P1-counter to a1;
* ``gamma``: a witness point over the pair of successor positions, i.e.

      leg1(gamma(r,a1,d2)) = P1.next(leg1 r, a1, beta(r,a1,d2))
      leg2(gamma(r,a1,d2)) = P2.next(leg2 r, alpha(r,a1), d2)

The apex is an arbitrary span, not merely a relation: two distinct witness
points may sit over the same pair of positions, and the difference is
observable (composition counts matched pairs).  Morphism equality throughout
the library is :func:`equivalent`, a fiber-respecting bijection search; in
``full`` mode the bijection must also transport alpha/beta/gamma on the nose,
in ``span_only`` mode just the legs.

The apex bookkeeping is written once here.  ``_fibers`` lists the apex over
each pair of positions and ``_pair_fibers`` pairs fibers in order: span iso,
embedding and equality, the leg check of :func:`equivalent`, and the
reshuffle witnesses of the powers.  ``_pullback`` is the one pullback, of
:func:`span_compose` and of :func:`compose`.  ``_relabel_sim`` is the one
relabelling: it takes two element maps, one relabelling states and moves of
the far end as the target's, one relabelling the target's counters back,
and applies them to a given simulation's far end -- which is
:func:`compose` with the isomorphism the maps make, with no iso and no
pullback built -- or to a game's own states, which gives every simulation
whose apex is its source's states: identities, injections, reshuffles and
the tensor's coherence isomorphisms.  The inverse of the latter is the same
two maps swapped.

The transports are written once as well: ``_transport_sim`` walks a span's
source moves and target counters and asks one callback for alpha, another for
beta and gamma.  Every builder goes through it (README, "The model"), even
``zero_sim`` and the transposes out of a free game, which have nothing to
transport; the replay game's copy-dealing maps go by way of
``exponential._deal_sim``.  The exceptions are the synthesised simulations,
which come from the one extraction over the relation fixpoint's index
(``synthesis._relation_simulation``), and the document decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .elements import Element, FiniteSet, atom, pair
from .games import Game, _backtrack, _refine, check_keys, validate_game
from .limits import DEFAULT_SEARCH_BOUND, SearchRefused


@dataclass(frozen=True)
class Simulation:
    src: Game
    dst: Game
    apex: FiniteSet
    leg1: Mapping[Element, Element]
    leg2: Mapping[Element, Element]
    alpha: Mapping[tuple[Element, Element], Element]
    beta: Mapping[tuple[Element, Element, Element], Element]
    gamma: Mapping[tuple[Element, Element, Element], Element]


def check_simulation(s: Simulation) -> list[str]:
    """Full validity diagnostics; empty list means s really is a simulation.

    First the two games: any :func:`~polygame.games.validate_game` problem
    of either is the answer, prefixed ``src:`` or ``dst:``.  Then leg
    totality (:func:`validate_span`), alpha/beta/gamma keyed by exactly the
    right triples, values landing in the right fibers, and the two successor
    equations tying gamma to the games' tables.  Problems come in canonical
    order (see :func:`~polygame.games.check_keys`), so the list -- and a
    ``polygame check-sim`` report -- is the same in every run.
    """
    out = [f"{side}: {p}" for side, g in (("src", s.src), ("dst", s.dst))
           for p in validate_game(g)]
    if out:
        return out  # every read below trusts the games' tables
    out = validate_span(Span(s.src.states, s.dst.states, s.apex, s.leg1, s.leg2))
    if out:
        return out  # keys below would all be noise
    src, dst, leg1, leg2 = s.src, s.dst, s.leg1, s.leg2
    alphas = check_keys(
        out, [(r, a1) for r in s.apex for a1 in src.moves[leg1[r]]], s.alpha,
        "alpha missing at {}", "alpha at unexpected key {}",
    )
    rest = []
    for r, a1 in alphas:
        a2 = s.alpha[(r, a1)]
        i2 = leg2[r]
        if a2 in dst.moves[i2]:
            rest.extend((r, a1, d2) for d2 in dst.counters[(i2, a2)])
        else:
            out.append(f"alpha({r!r}, {a1!r}) = {a2!r} is not a move at {i2!r}")
    betas = check_keys(out, rest, s.beta, "beta missing at {}", "beta at unexpected key {}")
    check_keys(out, rest, s.gamma, "gamma missing at {}", "gamma at unexpected key {}")

    apex = set(s.apex)
    for k in betas:
        if k not in s.gamma:
            continue
        r, a1, d2 = k
        d1 = s.beta[k]
        if d1 not in src.counters[(leg1[r], a1)]:
            out.append(f"beta{k!r} = {d1!r} is not a counter to {a1!r}")
            continue
        g = s.gamma[k]
        if g not in apex:
            out.append(f"gamma{k!r} = {g!r} is not an apex point")
            continue
        want1 = src.next[(leg1[r], a1, d1)]
        want2 = dst.next[(leg2[r], s.alpha[(r, a1)], d2)]
        if leg1[g] != want1:
            out.append(f"gamma{k!r}: leg1 lands at {leg1[g]!r}, play lands at {want1!r}")
        if leg2[g] != want2:
            out.append(f"gamma{k!r}: leg2 lands at {leg2[g]!r}, play lands at {want2!r}")
    return out


def identity_sim(g: Game) -> Simulation:
    """The identity: apex = states, both legs the identity, transports copy."""
    return _relabel_sim(g, g, lambda x: x, lambda x: x)


def _transport_sim(src: Game, dst: Game, apex: FiniteSet, leg1, leg2, move, back) -> Simulation:
    """A simulation over a given span, its transports read off two callbacks.

    For every apex point r and src-move a1 at leg1[r], ``move(r, a1)`` returns
    ``(a2, ctx)``: the dst-move alpha answers with, and whatever per-move work
    the counters of a2 share.  For every dst-counter d2 to a2 at leg2[r],
    ``back(r, a1, ctx, d2)`` returns ``(d1, r2)``: the src-counter beta pulls
    d2 back to, and the apex point gamma lands on.  This is the one place that
    keys alpha by (r, a1) and beta and gamma by (r, a1, d2).

    The walk goes over apex points, src-moves and dst-counters, each in
    canonical order, so the tables' order is the same in every run.
    """
    alpha = {}
    beta = {}
    gamma = {}
    for r in apex:
        i2 = leg2[r]
        for a1 in src.moves[leg1[r]]:
            a2, ctx = move(r, a1)
            alpha[(r, a1)] = a2
            for d2 in dst.counters[(i2, a2)]:
                k = (r, a1, d2)
                beta[k], gamma[k] = back(r, a1, ctx, d2)
    return Simulation(src, dst, apex, leg1, leg2, alpha, beta, gamma)


def _relabel_sim(s, dst: Game, there, back) -> Simulation:
    """Simulation s with its far end relabelled as dst, from a bijection.

    ``there`` relabels the states and moves of s's target as dst's, ``back``
    relabels dst's counters as the target's; the caller promises the
    successor tables commute.  The apex and ``leg1`` stay; ``leg2`` and
    alpha go through ``there``, and beta and gamma are read at ``back(e)``.
    This is ``compose(s, iso)`` for the isomorphism the two maps make,
    without building the iso or its pullback.

    A game s stands for its own identity, so the result's apex is its
    states: the identity itself, injections, reshuffles and the coherence
    isomorphisms, whose inverse is ``_relabel_sim(dst, src, back, there)``.
    """
    if isinstance(s, Game):
        src = s

        def move(i, a):
            return there(a), None

        def pull(i, a, _, e):
            d = back(e)
            return d, src.next[(i, a, d)]

        apex = src.states
        leg1 = {i: i for i in apex}
        leg2 = {i: there(i) for i in apex}
    else:
        src, alpha, beta, gamma = s.src, s.alpha, s.beta, s.gamma

        def move(r, a):
            return there(alpha[(r, a)]), None

        def pull(r, a, _, e):
            k = (r, a, back(e))
            return beta[k], gamma[k]

        apex, leg1 = s.apex, s.leg1
        leg2 = {r: there(s.leg2[r]) for r in apex}
    return _transport_sim(src, dst, apex, leg1, leg2, move, pull)


def compose(s: Simulation, t: Simulation) -> Simulation:
    """Diagrammatic composite: first s, then t (requires s.dst == t.src).

    The apex is the pullback of the two spans (:func:`span_compose`), and the
    transports thread one through the other.
    """
    if s.dst != t.src:
        raise ValueError("compose: s.dst and t.src are different games")

    def move(p, a1):
        a2 = s.alpha[(p.fst, a1)]
        return t.alpha[(p.snd, a2)], a2

    def back(p, a1, a2, d3):
        r, q = p.fst, p.snd
        d2 = t.beta[(q, a2, d3)]
        return s.beta[(r, a1, d2)], pair(s.gamma[(r, a1, d2)], t.gamma[(q, a2, d3)])

    return _transport_sim(s.src, t.dst, *_pullback(s, t), move, back)


def zero_sim(src: Game, dst: Game) -> Simulation:
    """The empty simulation (the zero of the enrichment)."""
    return _transport_sim(src, dst, FiniteSet(), {}, {}, None, None)


def add(s: Simulation, t: Simulation) -> Simulation:
    """Tagged union of two parallel simulations (the sum of the enrichment)."""
    if s.src != t.src or s.dst != t.dst:
        raise ValueError("add: simulations are not parallel")
    of = {atom("L"): s, atom("R"): t}
    apex = FiniteSet(pair(tag, r) for tag, sim in of.items() for r in sim.apex)

    def move(p, a1):
        sim = of[p.fst]
        return sim.alpha[(p.snd, a1)], sim

    def back(p, a1, sim, d2):
        k = (p.snd, a1, d2)
        return sim.beta[k], pair(p.fst, sim.gamma[k])

    return _transport_sim(
        s.src,
        s.dst,
        apex,
        {p: of[p.fst].leg1[p.snd] for p in apex},
        {p: of[p.fst].leg2[p.snd] for p in apex},
        move,
        back,
    )


# -- morphism equality -------------------------------------------------------


@dataclass(frozen=True)
class SpanIso:
    """A bijection of apexes witnessing that two simulations are the same map."""

    mapping: Mapping[Element, Element]


def equivalent(
    s: Simulation,
    t: Simulation,
    mode: str = "full",
    search_bound: int = DEFAULT_SEARCH_BOUND,
) -> Optional[SpanIso]:
    """Search for an apex bijection identifying s and t.

    ``mode="span_only"`` asks the bijection to respect the two legs;
    ``mode="full"`` (the default, and the library's notion of morphism
    equality) additionally demands that alpha and beta agree on the nose and
    that gamma is transported by the bijection itself.

    Returns a :class:`SpanIso` or ``None``.  Raises :class:`SearchRefused`
    when an apex exceeds ``search_bound`` -- refusal is deliberately distinct
    from a "no" -- and ValueError when ``search_bound`` is negative.  Both
    simulations must individually be valid; garbage in, garbage out.

    The search never enumerates raw permutations.  Points are coloured by
    everything locally observable (legs, the full alpha and beta rows) and
    the colours refined through gamma until stable (``games._refine``) --
    points of different colours can never correspond -- and only the
    freedom within colours is resolved by backtracking (``games._backtrack``),
    which checks each gamma edge as soon as both its ends are mapped.
    """
    if mode not in ("full", "span_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if search_bound < 0:
        raise ValueError(f"search bound must be nonnegative, not {search_bound}")
    if s.src != t.src or s.dst != t.dst:
        raise ValueError("equivalent: simulations are not parallel")
    n = len(s.apex)
    if n != len(t.apex):
        return None
    if n > search_bound:
        raise SearchRefused("equivalent", n, search_bound,
                            "apex of {size} points exceeds search bound {bound}")

    legs = _pair_fibers(_fibers(s), _fibers(t))
    if legs is None:
        return None
    if mode == "span_only":
        # any fiber-respecting pairing is a witness; take the canonical one
        return SpanIso(mapping=legs)

    out_s, out_t = ({r: [] for r in sim.apex} for sim in (s, t))
    into: dict[Element, list] = {r: [] for r in s.apex}
    for sim, out in ((s, out_s), (t, out_t)):
        for (r, a1, d2), g in sim.gamma.items():
            out[r].append((a1, d2, g))
    for (r, a1, d2), g in s.gamma.items():
        into[g].append((r, a1, d2))

    def side(sim, edges):
        def fold(r, c):
            return tuple(sorted((a1.key, d2.key, c[g]) for a1, d2, g in edges[r]))

        return {r: _local_signature(sim, r) for r in sim.apex}, fold

    cols = _refine([side(s, out_s), side(t, out_t)])
    if cols is None:
        return None
    ids_s, ids_t = cols
    by_class_t: dict[int, list[Element]] = {}
    for q in t.apex:
        by_class_t.setdefault(ids_t[q], []).append(q)

    def viable(r, q, sigma):
        # sigma already sends r to q: each mapped gamma edge at r must agree
        return all(
            g not in sigma or t.gamma[(q, a1, d2)] == sigma[g] for a1, d2, g in out_s[r]
        ) and all(r2 not in sigma or t.gamma[(sigma[r2], a1, d2)] == q for r2, a1, d2 in into[r])

    order = sorted(s.apex, key=lambda r: (ids_s[r], r.key))
    sigma = next(_backtrack(order, [by_class_t[ids_s[r]] for r in order], viable), None)
    return None if sigma is None else SpanIso(mapping=sigma)


def _local_signature(sim: Simulation, r: Element) -> tuple:
    i1 = sim.leg1[r]
    i2 = sim.leg2[r]
    al = []
    be = []
    for a1 in sim.src.moves[i1]:
        a2 = sim.alpha[(r, a1)]
        al.append((a1.key, a2.key))
        for d2 in sim.dst.counters[(i2, a2)]:
            be.append((a1.key, d2.key, sim.beta[(r, a1, d2)].key))
    return (i1.key, i2.key, tuple(sorted(al)), tuple(sorted(be)))


# -- bare spans ---------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A span of finite sets: src <- apex -> dst."""

    src: FiniteSet
    dst: FiniteSet
    apex: FiniteSet
    leg1: Mapping[Element, Element]
    leg2: Mapping[Element, Element]


def validate_span(s: Span) -> list[str]:
    """Diagnostics for the legs, in canonical order (empty list = valid)."""
    out = []
    for name, leg, base in (("leg1", s.leg1, s.src), ("leg2", s.leg2, s.dst)):
        missing, stray = name + " missing at {}", name + " at non-apex point {}"
        for r in check_keys(out, list(s.apex), leg, missing, stray):
            if leg[r] not in base:
                out.append(f"{name}({r!r}) = {leg[r]!r} is not in base")
    return out


def underlying_span(s: Simulation) -> Span:
    """Forget the transports, keep the positions."""
    return Span(s.src.states, s.dst.states, s.apex, dict(s.leg1), dict(s.leg2))


def span_identity(base: FiniteSet) -> Span:
    leg = {i: i for i in base}
    return Span(base, base, base, leg, dict(leg))


def span_compose(s: Span, t: Span) -> Span:
    """Pullback composite of spans (matched pairs, multiplicities kept)."""
    if s.dst != t.src:
        raise ValueError("span_compose: middle bases differ")
    return Span(s.src, t.dst, *_pullback(s, t))


def _pullback(s, t) -> tuple[FiniteSet, dict, dict]:
    """The apex and legs of the pullback of two spans or simulations."""
    over: dict[Element, list[Element]] = {}
    for q in t.apex:
        over.setdefault(t.leg1[q], []).append(q)
    leg1 = {}
    leg2 = {}
    for r in s.apex:
        for q in over.get(s.leg2[r], ()):
            p = pair(r, q)
            leg1[p] = s.leg1[r]
            leg2[p] = t.leg2[q]
    return FiniteSet(leg1), leg1, leg2


def _fibers(x) -> dict[tuple[Element, Element], list[Element]]:
    """The apex points of a span or simulation over each (leg1, leg2) pair, in apex order."""
    fibers: dict[tuple[Element, Element], list[Element]] = {}
    for r in x.apex:
        fibers.setdefault((x.leg1[r], x.leg2[r]), []).append(r)
    return fibers


def _pair_fibers(fibers, target, over=None) -> Optional[dict[Element, Element]]:
    """Pair each fiber with a fiber of ``target``, point by point in apex order.

    The points over a pair k go, first to first, to the points of
    ``target[over(k)]`` (``target[k]`` without ``over``, which must be
    injective).  The result is injective; it is None when some target fiber
    is too small.  Over apexes of equal size it is a bijection.
    """
    out: dict[Element, Element] = {}
    for k, rs in fibers.items():
        qs = target.get(k if over is None else over(k), ())
        if len(qs) < len(rs):
            return None
        out.update(zip(rs, qs))
    return out


def span_equal(s: Span, t: Span) -> bool:
    """Equality as spans-up-to-iso: same bases, same multiplicity over each pair."""
    return span_iso(s, t) is not None


def span_iso(s: Span, t: Span) -> Optional[Mapping[Element, Element]]:
    """A concrete leg-preserving bijection, if one exists."""
    if s.src != t.src or s.dst != t.dst or len(s.apex) != len(t.apex):
        return None
    return _pair_fibers(_fibers(s), _fibers(t))


def span_embedding(s: Span, t: Span) -> Optional[Mapping[Element, Element]]:
    """An injective leg-preserving map of apexes, if one exists.

    Exists exactly when t's multiplicity dominates s's over every pair of
    base points -- the witness that one simulation's span sits inside
    another's without matching it.
    """
    if s.src != t.src or s.dst != t.dst:
        return None
    return _pair_fibers(_fibers(s), _fibers(t))
