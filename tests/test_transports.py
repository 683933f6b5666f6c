"""Transport tables, written in one walk.

Every simulation ``_transport_sim`` builds must hold the dict, in the order,
that a key-by-key walk gives (``walk_tables``), whatever was read before; a
table must keep the Mapping contract at keys it does not hold; and the
charged builders must fit their exact ceilings, their tables read in full
under a ceiling of zero.
"""

import random

import pytest

from polygame.additive import adjoint_transpose, copair, injection, projection
from polygame.documents import dump_document
from polygame.elements import FiniteSet, atom
from polygame.exponential import (
    bang, bang_sim, chat, comul_sim, counit_sim, dereliction_sim, deriving_sim, digging_sim,
    factor_through_power, tensor_power,
)
from polygame.fixtures import COIN, TRAP, UNIT
from polygame.laws import random_simulation, symmetrize_over_power
from polygame.limits import ceiling
from polygame.monoidal import curry, eval_sim, structural_iso, tensor, tensor_sim, uncurry
from polygame.simulation import Simulation, Span, add, compose, identity_sim, zero_sim

from conftest import eq, walk_tables


def _random(src, dst, seed=7):
    return random_simulation(random.Random(seed), src, dst)


def _curried():
    return curry(_random(tensor(COIN, TRAP), COIN), COIN, TRAP)


BASE = FiniteSet([atom("b0"), atom("b1")])


def _to_base(g):
    """A span from g's states onto BASE, every state over b0 and its first one over b1 too."""
    first = g.states.items[0]
    apex = FiniteSet([atom("w")]).union(g.states)
    return Span(g.states, BASE, apex, {atom("w"): first, **{i: i for i in g.states}},
                {atom("w"): atom("b1"), **{i: atom("b0") for i in g.states}})


# one fresh simulation per call, from every builder that goes through _transport_sim
MAKERS = {
    "identity": lambda: identity_sim(TRAP),
    "assoc": lambda: structural_iso("assoc", COIN, TRAP, COIN),
    "assoc_inv": lambda: structural_iso("assoc_inv", COIN, TRAP, COIN),
    "unit_l": lambda: structural_iso("unit_l", COIN),
    "unit_l_inv": lambda: structural_iso("unit_l_inv", COIN),
    "unit_r": lambda: structural_iso("unit_r", TRAP),
    "unit_r_inv": lambda: structural_iso("unit_r_inv", TRAP),
    "symmetry": lambda: structural_iso("symmetry", COIN, TRAP),
    "symmetry_back": lambda: structural_iso("symmetry", TRAP, COIN),
    "tensor_sim": lambda: tensor_sim(structural_iso("unit_l", COIN), _random(TRAP, COIN)),
    "compose": lambda: compose(_random(COIN, TRAP), identity_sim(TRAP)),
    "compose_unread": lambda: compose(structural_iso("symmetry", COIN, TRAP),
                                      structural_iso("symmetry", TRAP, COIN)),
    "add": lambda: add(_random(COIN, COIN, 1), _random(COIN, COIN, 2)),
    "zero_sim": lambda: zero_sim(COIN, TRAP),
    "counit_sim": lambda: counit_sim(COIN, 2),
    "comul_sim": lambda: comul_sim(COIN, 2),
    "dereliction_sim": lambda: dereliction_sim(TRAP, 2),
    "digging_sim": lambda: digging_sim(COIN, 2),
    "deriving_sim": lambda: deriving_sim(COIN, 2),
    "bang_sim": lambda: bang_sim(_random(COIN, COIN), 2),
    "curry": _curried,
    "uncurry": lambda: uncurry(_curried(), COIN, TRAP, COIN),
    "eval_sim": lambda: eval_sim(UNIT, COIN),
    "factor_through_power": lambda: factor_through_power(symmetrize_over_power(
        _random(UNIT, tensor_power(COIN, 2)), COIN, 2), COIN, 2),
    "symmetrize_over_power": lambda: symmetrize_over_power(
        _random(UNIT, tensor_power(COIN, 2)), COIN, 2),
    "chat": lambda: chat(COIN, 2),
    "injection": lambda: injection(COIN, TRAP, 2),
    "projection": lambda: projection(COIN, TRAP, 1),
    "copair": lambda: copair(_random(COIN, COIN), _random(TRAP, COIN)),
    "cofree_transpose": lambda: adjoint_transpose("right", "to_sim", _to_base(COIN), BASE, COIN),
}


def _read_some(s, like):
    """Read every other row of s in reverse walk order, counter keys first:
    rows written out of order, some of them from a beta or gamma lookup."""
    alpha, beta, gamma = like
    for k in list(beta)[::-2]:
        assert s.gamma[k] == gamma[k] and s.beta[k] == beta[k]
    for k in list(alpha)[::-3]:
        assert s.alpha[k] == alpha[k]


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "partly-read"])
@pytest.mark.parametrize("name", sorted(MAKERS))
def test_a_full_read_gives_the_walked_tables_in_walk_order(name, read_first):
    want = walk_tables(MAKERS[name]())
    s = MAKERS[name]()
    if read_first:
        _read_some(s, want)
    assert (dict(s.alpha), dict(s.beta), dict(s.gamma)) == want
    assert (list(s.alpha), list(s.beta), list(s.gamma)) == tuple(list(t) for t in want)
    assert s == Simulation(s.src, s.dst, s.apex, s.leg1, s.leg2, *want)


def test_an_unread_table_keeps_the_mapping_contract():
    s = structural_iso("assoc", COIN, TRAP, COIN)
    r = s.apex.items[3]
    a1 = s.src.moves[s.leg1[r]].items[0]
    d2 = s.dst.counters[(s.leg2[r], s.alpha[(r, a1)])].items[0]
    nowhere, no_move, no_counter = atom("nowhere"), atom("no-move"), atom("no-counter")
    absent = [(nowhere, a1, d2), (r, no_move, d2), (r, a1, no_counter), (r, a1), (r,), "r", 3]
    for key in absent:
        assert key not in s.beta and key not in s.gamma
        assert s.beta.get(key) is None
    for key in [(nowhere, a1), (r, no_move), (r, a1, d2), (r,), "r", 3]:
        assert key not in s.alpha
        with pytest.raises(KeyError):
            s.alpha[key]
    with pytest.raises(KeyError):
        s.beta[(r, a1, no_counter)]
    assert (r, a1, d2) in s.gamma


def test_a_table_read_after_its_simulation_is_dropped_is_complete():
    make = MAKERS["compose_unread"]
    want = walk_tables(make())
    beta = make().beta  # alpha and gamma die with the simulation
    assert len(want[1]) == 8 and list(want[1])[-1] in beta
    gamma = make().gamma
    assert (dict(beta), list(gamma)) == (want[1], list(want[2]))


def test_an_unread_simulation_equals_and_dumps_as_a_walked_one():
    def make():
        return compose(structural_iso("assoc", COIN, TRAP, COIN),
                       structural_iso("assoc_inv", COIN, TRAP, COIN))

    walked = make()
    eager = Simulation(walked.src, walked.dst, walked.apex, walked.leg1, walked.leg2,
                       *walk_tables(walked))
    assert make() == eager and eager == make() and make() == make()
    assert not make() != eager
    assert make().beta == eager.beta and eager.gamma == make().gamma
    assert dump_document("simulation", make()) == dump_document("simulation", eager)


def test_a_composite_through_the_triple_tensor_associator_is_coassociative():
    # the coassociativity law of the replay game at COIN, bound 2: the
    # associator of the triple tensor of bang(COIN, 2) has 9,261 beta entries
    bp = bang(COIN, 2)
    dup = comul_sim(COIN, 2)
    ident = identity_sim(bp)
    assoc = structural_iso("assoc", bp, bp, bp)
    assert eq(compose(compose(dup, tensor_sim(dup, ident)), assoc),
              compose(dup, tensor_sim(ident, dup)))
    assert len(assoc.alpha) == 343 and len(assoc.beta) == 9261


@pytest.mark.parametrize("make, cost", [(lambda: comul_sim(COIN, 2), 100),
                                        (lambda: digging_sim(COIN, 2), 632),
                                        (lambda: bang_sim(identity_sim(COIN), 2), 88)])
def test_rows_written_after_the_construction_charge_nothing(make, cost):
    with ceiling(cost):
        s = make()
    with ceiling(0):  # any construction begun here would refuse
        tables = dict(s.alpha), dict(s.beta), dict(s.gamma)
    assert tables == walk_tables(make())
