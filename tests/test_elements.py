"""The element grammar: ordering, canonical forms, interning."""

import itertools
import sys
import threading

import hypothesis
import hypothesis.strategies as strat
import pytest

from polygame.elements import (
    FiniteSet,
    atom,
    fun,
    mset,
    pair,
    star,
    tup,
)

from conftest import element_pool


def elements(max_depth: int = 3):
    leaf = strat.one_of(
        strat.sampled_from("abcxyz").map(atom),
        strat.just(star()),
    )
    return strat.recursive(
        leaf,
        lambda inner: strat.one_of(
            strat.tuples(inner, inner).map(lambda p: pair(*p)),
            strat.lists(inner, max_size=3).map(lambda xs: tup(*xs)),
            strat.lists(inner, max_size=3).map(mset),
            strat.lists(strat.tuples(leaf, inner), max_size=3, unique_by=lambda kv: kv[0]).map(fun),
        ),
        max_leaves=2 ** max_depth,
    )


def test_total_order_is_deterministic():
    pool = element_pool()
    once = sorted(pool)
    again = sorted(reversed(pool))
    assert once == again


def test_equality_is_structural():
    assert atom("a") == atom("a")
    assert pair(atom("a"), star()) == pair(atom("a"), star())
    assert tup(atom("a")) != mset([atom("a")])
    assert tup() != star()


def test_star_atom_name_is_reserved():
    with pytest.raises(ValueError):
        atom("star")


def test_mset_ignores_insertion_order():
    a, b = atom("a"), atom("b")
    assert mset([b, a, b]) == mset([b, b, a])
    assert mset([a]) != mset([a, a])


@hypothesis.given(strat.lists(elements(), max_size=4))
def test_mset_factory_is_order_insensitive(xs):
    assert mset(xs) is mset(list(reversed(xs)))


@hypothesis.given(elements())
def test_key_round_trips_to_same_element(e):
    # the sort key agrees with identity: equal keys, one interned element
    assert (e.key == e.key) and (e == e)
    other = rebuild(e)
    assert (other.key == e.key) == (other == e)


def rebuild(e):
    """``e`` built again from its parts, with fresh containers around them."""
    k = e.kind
    if k == "atom":
        return atom("".join(list(e.name)))
    if k == "star":
        return star()
    if k == "pair":
        return pair(e.fst, e.snd)
    if k == "tuple":
        return tup(*list(e.items))
    if k == "mset":
        return mset(reversed(e.items))
    return fun(dict(reversed(e.items)))


@hypothesis.given(elements())
def test_rebuilding_from_parts_returns_the_same_object(e):
    assert rebuild(e) is e
    assert hash(rebuild(e)) == hash(e)


def test_equality_key_and_identity_agree_over_the_pool():
    pool = element_pool()
    pool += [rebuild(e) for e in pool]
    for a, b in itertools.product(pool, repeat=2):
        assert (a == b) == (a.key == b.key) == (a is b)
        assert (a != b) == (a is not b)


@hypothesis.given(strat.lists(elements(), max_size=8))
def test_sorting_matches_the_key_order(xs):
    got = sorted(xs)
    want = sorted(xs, key=lambda e: e.key)
    assert all(g is w for g, w in zip(got, want)) and len(got) == len(want)


x, u, v = atom("x"), atom("u"), atom("v")


class Keyed:
    """Not an element, though it has the ``key`` the global order reads."""

    key = (0, "x")


# a bad argument fails as it did before elements were interned: the lookup
# never turns it into an "unhashable type" error or a spurious hit
@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: pair([], x), TypeError, "expected an Element, got list"),
        (lambda: pair(x, 3), TypeError, "expected an Element, got int"),
        (lambda: pair("atom", "x"), TypeError, "expected an Element, got str"),
        (lambda: tup(x, [1]), TypeError, "expected an Element, got list"),
        (lambda: tup("x"), TypeError, "expected an Element, got str"),
        (lambda: mset([x, 3]), AttributeError, "'int' object has no attribute 'key'"),
        (lambda: mset([[]]), AttributeError, "'list' object has no attribute 'key'"),
        (lambda: fun([(x, [])]), TypeError, "expected an Element, got list"),
        (lambda: fun({x: 1}), TypeError, "expected an Element, got int"),
        (lambda: fun([([], x)]), TypeError, "expected an Element, got list"),
        (lambda: fun([(x, u), (x, v)]), ValueError, "duplicate key in function graph: x"),
        (lambda: atom([]), ValueError, "atom name must be a nonempty string"),
        (lambda: atom(""), ValueError, "atom name must be a nonempty string"),
        (lambda: atom(3), ValueError, "atom name must be a nonempty string"),
        (lambda: atom("star"), ValueError, 'atom name "star" is reserved for the unit point'),
        (lambda: FiniteSet([x, 3]), TypeError, "expected an Element, got int"),
        (lambda: FiniteSet([[]]), TypeError, "expected an Element, got list"),
        (lambda: FiniteSet(["x"]), TypeError, "expected an Element, got str"),
        (lambda: FiniteSet([x, None, x]), TypeError, "expected an Element, got NoneType"),
        (lambda: FiniteSet([Keyed(), x]), TypeError, "expected an Element, got Keyed"),
        (lambda: pair(x, u).fst.fst, ValueError, "not a pair: x"),
        (lambda: tup(x, u).snd, ValueError, "not a pair: [x, u]"),
        (lambda: star().fst, ValueError, "not a pair: *"),
    ],
)
def test_bad_arguments_keep_their_errors(build, exc, message):
    with pytest.raises(exc) as raised:
        build()
    assert type(raised.value) is exc
    assert str(raised.value) == message


def test_concurrent_misses_share_one_element():
    # threads racing to intern the same fresh terms must all get one object
    names = [f"race{n}" for n in range(2000)]
    got = [None] * 4

    def build(slot):
        got[slot] = [pair(atom(a), tup(atom(a), star())) for a in names]

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for built in got[1:]:
        assert all(a is b for a, b in zip(got[0], built)) and len(built) == len(names)


def test_fun_application_and_duplicate_keys():
    f = fun({atom("x"): atom("u"), atom("y"): atom("v")})
    assert f.apply(atom("x")) == atom("u")
    with pytest.raises(KeyError):
        f.apply(atom("w"))
    with pytest.raises(ValueError):
        fun([(atom("x"), atom("u")), (atom("x"), atom("v"))])


def test_pair_components_are_its_data():
    for e in element_pool(2):
        if e.kind == "pair":
            assert (e.fst, e.snd) == e.data and pair(e.fst, e.snd) is e


def test_finite_set_is_ordered_and_deduplicated():
    s = FiniteSet([atom("b"), atom("a"), atom("b")])
    assert list(s) == sorted([atom("a"), atom("b")])
    assert len(s) == 2
    assert atom("a") in s and atom("c") not in s
