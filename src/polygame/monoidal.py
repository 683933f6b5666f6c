"""Tensor, its unit, the internal hom, and negation.

Tensor is synchronous interleaving: a move of P1 (x) P2 is a move in both
components at once, a counter counters both, play advances pointwise.  The
internal hom P2 -o P3 is the game of *translations*: a move at (i2, i3) is a
way to turn P2-moves into P3-moves together with a way to pull P3-counters
back to P2-counters; the opponent then picks a P2-move and a P3-counter.
Negation is the hom into the unit, materialised directly as the game of
counter-choices.

Both the hom and negation enumerate genuinely large fibers, so both charge
the enumeration budget of the call and refuse
(:class:`~polygame.limits.SizeRefused`) past its ceiling rather than
truncate.  A move fiber of the hom is the dependent product, over the
P2-moves a2, of the pool of pairs (a3, a pull-back of a3's counters to a2's);
each pull-back pool is itself a product.  Both go through
:meth:`~polygame.limits.EnumBudget.pi`, which charges the exact size before
anything is built:

    |moves of P2 -o P3 at (i2, i3)|
        = prod over a2 of (sum over a3 of |D2(i2,a2)| ** |D3(i3,a3)|)
"""

from __future__ import annotations

from .elements import Element, FiniteSet, fun, pair, star
from .games import Game, _build_game, _shared
from .limits import _budget
from .simulation import Simulation, _relabel_sim, _transport_sim, identity_sim
from .fixtures import unit_game


@_shared
def tensor(p1: Game, p2: Game) -> Game:
    """Pointwise product game, from each factor's rows (move, counters,
    successors) read once, forming each product of two tuples once."""
    rows1, rows2 = ({i: [(a, ds, tuple([p.next[i, a, d] for d in ds])) for a in p.moves[i]
                         for ds in (p.counters[i, a].items,)] for i in p.states}
                    for p in (p1, p2))
    factors = {pair(i1, i2): (i1, i2) for i1 in p1.states for i2 in p2.states}
    products = {}

    def times(xs, ys):  # the product of two tuples, formed once per pair
        out = products.get((xs, ys))
        if out is None:
            out = products[xs, ys] = tuple([pair(x, y) for x in xs for y in ys])
        return out

    def row(i):
        i1, i2 = factors[i]
        for a1, ds1, js1 in rows1[i1]:
            for a2, ds2, js2 in rows2[i2]:
                yield pair(a1, a2), times(ds1, ds2), times(js1, js2)

    return _build_game(factors, row)


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


def _swap(x: Element) -> Element:
    return pair(x.snd, x.fst)


# kind -> (number of games, its two ends built from them, the map relabelling
# src's states, moves and counters as dst's, the map relabelling dst's as src's)
_ISOS = {
    "assoc": (3, lambda p1, p2, p3: (tensor(tensor(p1, p2), p3), tensor(p1, tensor(p2, p3))),
              lambda x: pair(x.fst.fst, pair(x.fst.snd, x.snd)),
              lambda x: pair(pair(x.fst, x.snd.fst), x.snd.snd)),
    "unit_l": (1, lambda p: (tensor(unit_game(), p), p), lambda x: x.snd,
               lambda x: pair(star(), x)),
    "unit_r": (1, lambda p: (tensor(p, unit_game()), p), lambda x: x.fst,
               lambda x: pair(x, star())),
    "symmetry": (2, lambda p1, p2: (tensor(p1, p2), tensor(p2, p1)), _swap, _swap),
}


def structural_iso(kind: str, *games: Game) -> Simulation:
    """One coherence isomorphism of the tensor.

    kinds: ``assoc`` (P1,P2,P3): (P1xP2)xP3 -> P1x(P2xP3);
    ``assoc_inv`` (P1,P2,P3): P1x(P2xP3) -> (P1xP2)xP3;
    ``unit_l`` (P): 1xP -> P;  ``unit_l_inv`` (P): P -> 1xP;
    ``unit_r`` (P): Px1 -> P;  ``unit_r_inv`` (P): P -> Px1;
    ``symmetry`` (P1,P2): P1xP2 -> P2xP1, whose inverse is
    ``symmetry`` (P2,P1).

    Each kind is one entry of element maps; an ``_inv`` kind reads its entry
    backwards.  The iso is the relabelling of its source's own states
    (``simulation._relabel_sim``); a law that composes with one only to line
    up types relabels its composite's far end instead (:func:`_compose_iso`).
    Raises ``ValueError`` on an unknown kind or a wrong number of games.
    """
    return _relabel_sim(*_iso(kind, games))


def _compose_iso(s: Simulation, kind: str, *games: Game) -> Simulation:
    """``compose(s, structural_iso(kind, *games))``, built as s with its far
    end relabelled: no iso and no pullback are built.  Raises ``ValueError``
    as :func:`structural_iso` does, and when s.dst is not the iso's source.
    """
    src, dst, there, back = _iso(kind, games)
    if s.dst != src:
        raise ValueError(f"compose: s.dst is not the source of {kind!r}")
    return _relabel_sim(s, dst, there, back)


def _iso(kind: str, games: tuple) -> tuple:
    """The source, target and two element maps of one structural iso."""
    name = kind.removesuffix("_inv")
    if name not in _ISOS or kind == "symmetry_inv":
        raise ValueError(f"unknown structural iso kind {kind!r}")
    arity, ends, there, back = _ISOS[name]
    if len(games) != arity:
        raise ValueError(f"structural iso {kind!r} takes {arity} games, got {len(games)}")
    src, dst = ends(*games)
    return (src, dst, there, back) if name == kind else (dst, src, back, there)


# -- internal hom --------------------------------------------------------------


@_shared
def lollipop(p2: Game, p3: Game) -> Game:
    """The game of translations of P2 into P3.

    A state is a pair of states.  A move at (i2, i3) is pair(f, phi): f sends
    each P2-move at i2 to a P3-move at i3, and phi pulls each P3-counter to
    f(a2) back to a P2-counter to a2.  The opponent answers with pair(a2, d3)
    -- a P2-move plus a P3-counter -- and both components advance.
    """
    budget = _budget()
    factors = {pair(i2, i3): (i2, i3)
               for i2, i3 in budget.pi([p2.states, p3.states], "lollipop")}

    def pullbacks(i2, a2, i3, a3):  # the maps from a3's counters to a2's
        d3s = p3.counters[(i3, a3)].items
        return [fun(zip(d3s, back))
                for back in budget.pi([p2.counters[(i2, a2)]] * len(d3s), "lollipop")]

    def row(i):
        i2, i3 = factors[i]
        a2s = p2.moves[i2].items
        pools = [
            [(a3, phi) for a3 in p3.moves[i3] for phi in pullbacks(i2, a2, i3, a3)]
            for a2 in a2s
        ]
        for section in budget.pi(pools, "lollipop"):
            ds, js = [], []
            for a2, (a3, phi) in zip(a2s, section):
                for d3 in p3.counters[(i3, a3)]:
                    ds.append(pair(a2, d3))
                    js.append(pair(p2.next[(i2, a2, phi.apply(d3))], p3.next[(i3, a3, d3)]))
            f = fun(zip(a2s, (a3 for a3, _ in section)))
            yield pair(f, fun(zip(a2s, (phi for _, phi in section)))), tuple(ds), js

    return _build_game(factors, row)


def curry(s: Simulation, p1: Game, p2: Game) -> Simulation:
    """Transpose s: P1 (x) P2 -> P3 into P1 -> (P2 -o P3).

    The apex is untouched; the two factor games must be supplied because the
    product does not remember its factors.
    """
    if s.src != tensor(p1, p2):
        raise ValueError("curry: src is not the tensor of the given factors")
    p3 = s.dst
    ell = lollipop(p2, p3)

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

    return _transport_sim(p1, ell, s.apex, {r: s.leg1[r].fst for r in s.apex},
                          {r: pair(s.leg1[r].snd, s.leg2[r]) for r in s.apex}, move, back)


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

    return _transport_sim(tensor(p1, p2), p3, s.apex,
                          {r: pair(s.leg1[r], s.leg2[r].fst) for r in s.apex},
                          {r: s.leg2[r].snd for r in s.apex}, move, back)


def eval_sim(p2: Game, p3: Game) -> Simulation:
    """Application: (P2 -o P3) (x) P2 -> P3, the uncurried identity."""
    ell = lollipop(p2, p3)
    return uncurry(identity_sim(ell), ell, p2, p3)


# -- negation ------------------------------------------------------------------


@_shared
def dual(p: Game) -> Game:
    """The negation of a game: players swap roles.

    A move at i is a *choice function* picking one counter for every original
    move; the opponent then reveals which original move was played and the
    play advances along the chosen counter.  This is the hom into the unit,
    materialised with lighter element encoding -- and it is deliberately not
    involutive: negating twice yields choice-functions-over-choice-functions,
    a different (and generally bigger) carrier.
    """
    budget = _budget()

    def row(i):
        a_s = p.moves[i].items
        for choice in budget.pi((p.counters[(i, a)] for a in a_s), "dual"):
            yield fun(zip(a_s, choice)), a_s, [p.next[(i, a, d)] for a, d in zip(a_s, choice)]

    return _build_game(p.states, row)
