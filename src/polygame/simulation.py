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
reshuffle witnesses of the powers.  :func:`span_compose` is the one pullback,
and :func:`compose` takes its apex.  ``_relabel_sim`` builds every simulation
whose apex is its source's states: identities, injections, reshuffles and the
tensor's coherence isomorphisms.

The transports are written once as well: ``_transport_sim`` walks a span's
source moves and target counters and asks one callback for alpha, another for
beta and gamma.  Every builder goes through it (README, "The model") except
the synthesised simulations, which follow the fixpoint's index,
``counit_sim``, a single point, and the document decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .elements import Element, FiniteSet, atom, pair
from .games import Game, check_keys, validate_game
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

    Verifies leg totality (:func:`validate_span`), alpha/beta/gamma keyed by
    exactly the right triples, values landing in the right fibers, and the
    two successor equations tying gamma to the games' tables.  When a game
    misses a row the check reads, the answer is that game's
    :func:`~polygame.games.validate_game` problems, prefixed ``src:`` or
    ``dst:``.  Problems come in canonical order (see
    :func:`~polygame.games.check_keys`), so the list -- and a
    ``polygame check-sim`` report -- is the same in every run.
    """
    out = validate_span(underlying_span(s))
    if out:
        return out  # keys below would all be noise
    src, dst, leg1, leg2 = s.src, s.dst, s.leg1, s.leg2
    try:
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
    except KeyError:  # only a game's table can miss: every other read is checked first
        games = (("src", src), ("dst", dst))
        return [f"{side}: {p}" for side, g in games for p in validate_game(g)]
    return out


def identity_sim(g: Game) -> Simulation:
    """The identity: apex = states, both legs the identity, transports copy."""
    return _relabel_sim(g, g, lambda i: i, lambda i, a: a, lambda i, a, e: e)


def _transport_sim(src: Game, dst: Game, apex: FiniteSet, leg1, leg2, move, back) -> Simulation:
    """A simulation over a given span, its transports read off two callbacks.

    For every apex point r and src-move a1 at leg1[r], ``move(r, a1)`` returns
    ``(a2, ctx)``: the dst-move alpha answers with, and whatever per-move work
    the counters of a2 share.  For every dst-counter d2 to a2 at leg2[r],
    ``back(r, a1, ctx, d2)`` returns ``(d1, r2)``: the src-counter beta pulls
    d2 back to, and the apex point gamma lands on.  This is the one place that
    keys alpha by (r, a1) and beta and gamma by (r, a1, d2).
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


def _relabel_sim(src: Game, dst: Game, state_map, move_map, counter_back) -> Simulation:
    """A simulation whose apex is src's states, from bijective relabelling data.

    ``state_map``: state of src -> state of dst; ``move_map``: (i, a) -> dst
    move; ``counter_back``: (i, a, dst counter) -> src counter.  The caller
    promises the successor tables commute.
    """
    def back(i, a, _, e):
        d = counter_back(i, a, e)
        return d, src.next[(i, a, d)]

    return _transport_sim(
        src,
        dst,
        src.states,
        {i: i for i in src.states},
        {i: state_map(i) for i in src.states},
        lambda i, a: (move_map(i, a), None),
        back,
    )


def compose(s: Simulation, t: Simulation) -> Simulation:
    """Diagrammatic composite: first s, then t (requires s.dst == t.src).

    The apex is the pullback of the two spans (:func:`span_compose`), and the
    transports thread one through the other.
    """
    if s.dst != t.src:
        raise ValueError("compose: s.dst and t.src are different games")
    span = span_compose(underlying_span(s), underlying_span(t))

    def move(p, a1):
        a2 = s.alpha[(p.fst, a1)]
        return t.alpha[(p.snd, a2)], a2

    def back(p, a1, a2, d3):
        r, q = p.fst, p.snd
        d2 = t.beta[(q, a2, d3)]
        return s.beta[(r, a1, d2)], pair(s.gamma[(r, a1, d2)], t.gamma[(q, a2, d3)])

    return _transport_sim(s.src, t.dst, span.apex, span.leg1, span.leg2, move, back)


def zero_sim(src: Game, dst: Game) -> Simulation:
    """The empty simulation (the zero of the enrichment)."""
    return Simulation(src, dst, FiniteSet(), {}, {}, {}, {}, {})


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
    from a "no".  Both simulations must individually be valid; garbage in,
    garbage out.

    The search never enumerates raw permutations.  Points are first split
    into classes by everything locally observable (legs, the full alpha and
    beta rows), the classes are refined through gamma until stable -- two
    points that end in different classes can never correspond -- and only
    the residual within-class freedom is resolved by backtracking with
    forward checking.
    """
    if mode not in ("full", "span_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if s.src != t.src or s.dst != t.dst:
        raise ValueError("equivalent: simulations are not parallel")
    n = len(s.apex)
    if n != len(t.apex):
        return None
    if n > search_bound:
        raise SearchRefused("equivalent", n, search_bound)

    legs = span_iso(underlying_span(s), underlying_span(t))
    if legs is None:
        return None
    if mode == "span_only":
        # any fiber-respecting pairing is a witness; take the canonical one
        return SpanIso(mapping=legs)

    ids_s, ids_t = _refine_classes(s, t)
    if ids_s is None:
        return None

    by_class_t: dict[int, list[Element]] = {}
    for q in t.apex:
        by_class_t.setdefault(ids_t[q], []).append(q)

    out_edges: dict[Element, list] = {r: [] for r in s.apex}
    in_edges: dict[Element, list] = {r: [] for r in s.apex}
    for (r, a1, d2), g in s.gamma.items():
        out_edges[r].append((a1, d2, g))
        in_edges[g].append((r, a1, d2))

    def viable(r, q, sigma):
        for a1, d2, g in out_edges[r]:
            tg = t.gamma[(q, a1, d2)]
            if g == r:
                if tg != q:
                    return False
            elif g in sigma and tg != sigma[g]:
                return False
        for r2, a1, d2 in in_edges[r]:
            if r2 == r:
                continue
            if r2 in sigma and t.gamma[(sigma[r2], a1, d2)] != q:
                return False
        return True

    order = sorted(s.apex, key=lambda r: (ids_s[r], r.key))
    candidates = [by_class_t[ids_s[r]] for r in order]
    sigma: dict[Element, Element] = {}
    used: set[Element] = set()
    choice = [0] * n
    pos = 0
    while True:
        if pos == n:
            return SpanIso(mapping=dict(sigma))
        r = order[pos]
        found = False
        while choice[pos] < len(candidates[pos]):
            q = candidates[pos][choice[pos]]
            choice[pos] += 1
            if q in used or not viable(r, q, sigma):
                continue
            sigma[r] = q
            used.add(q)
            found = True
            break
        if found:
            pos += 1
            continue
        choice[pos] = 0
        pos -= 1
        if pos < 0:
            return None
        prev = order[pos]
        used.discard(sigma.pop(prev))


def _local_signature(sim: Simulation, r: Element) -> tuple:
    i1 = sim.leg1[r]
    i2 = sim.leg2[r]
    al = []
    be = []
    for a1 in sim.src.moves_at(i1):
        a2 = sim.alpha[(r, a1)]
        al.append((a1.key, a2.key))
        for d2 in sim.dst.counters_at(i2, a2):
            be.append((a1.key, d2.key, sim.beta[(r, a1, d2)].key))
    return (i1.key, i2.key, tuple(sorted(al)), tuple(sorted(be)))


def _refine_classes(s: Simulation, t: Simulation):
    """Joint partition refinement over both apexes.

    Starts from everything locally observable and folds in the class of each
    gamma target until stable.  Returns per-point class ids, or (None, None)
    when the class census of the two sides disagrees (no bijection can
    exist).
    """
    table: dict = {}
    ids_s = {}
    ids_t = {}
    for r in s.apex:
        sig = _local_signature(s, r)
        ids_s[r] = table.setdefault(sig, len(table))
    for q in t.apex:
        sig = _local_signature(t, q)
        ids_t[q] = table.setdefault(sig, len(table))

    def census_matches():
        cs: dict[int, int] = {}
        ct: dict[int, int] = {}
        for v in ids_s.values():
            cs[v] = cs.get(v, 0) + 1
        for v in ids_t.values():
            ct[v] = ct.get(v, 0) + 1
        return cs == ct

    n_classes = len(table)
    for _ in range(len(s.apex)):
        if not census_matches():
            return None, None
        table = {}
        new_s = {}
        new_t = {}
        for sim, ids, new in ((s, ids_s, new_s), (t, ids_t, new_t)):
            for r in sim.apex:
                i1 = sim.leg1[r]
                folded = []
                for a1 in sim.src.moves_at(i1):
                    a2 = sim.alpha[(r, a1)]
                    for d2 in sim.dst.counters_at(sim.leg2[r], a2):
                        folded.append((a1.key, d2.key, ids[sim.gamma[(r, a1, d2)]]))
                sig = (ids[r], tuple(sorted(folded)))
                new[r] = table.setdefault(sig, len(table))
        ids_s, ids_t = new_s, new_t
        if len(table) == n_classes:
            break
        n_classes = len(table)
    if not census_matches():
        return None, None
    return ids_s, ids_t


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
    return Span(s.src, t.dst, FiniteSet(leg1), leg1, leg2)


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
