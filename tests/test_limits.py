"""The enumeration budget: its one dependent-product enumerator, and what
every builder charges, graded against the plain-arithmetic totals."""

import random

import hypothesis
import hypothesis.strategies as strat
import pytest

from polygame.elements import atom
from polygame.exponential import bang, power_game, tensor_power
from polygame.laws import random_game
from polygame.limits import EnumBudget, SizeRefused
from polygame.monoidal import dual, lollipop

from conftest import bang_total, dual_total, lollipop_total, power_total, tensor_power_total


def test_pi_yields_the_sections_in_lexicographic_order_and_charges_them():
    a, b, x, y, z = map(atom, "abxyz")
    budget = EnumBudget("pi", 100)
    sections = list(budget.pi([(a, b), (x, y, z)]))
    assert sections == [(a, x), (a, y), (a, z), (b, x), (b, y), (b, z)]
    assert budget.used == 6
    budget.pi(iter([(a, b)] * 3))  # a one-shot family is read once
    assert budget.used == 6 + 8


def test_pi_of_an_empty_family_is_the_one_empty_section():
    budget = EnumBudget("pi", 1)
    assert list(budget.pi([])) == [()]
    assert budget.used == 1


def test_pi_with_an_empty_pool_has_no_sections():
    budget = EnumBudget("pi", 0)
    assert list(budget.pi([(atom("a"),), ()])) == []
    assert budget.used == 0


def test_pi_charges_before_it_yields():
    budget = EnumBudget("pi", 7)
    with pytest.raises(SizeRefused) as refused:
        budget.pi([(atom("a"), atom("b"))] * 3)
    assert str(refused.value) == "pi (cumulative): would enumerate 8 objects (ceiling 7)"


def games(n: int):
    """``n`` random games of at most 3 states, 2 moves and 2 counters."""
    return strat.integers(0, 2**32).map(
        lambda seed: [random_game(random.Random(seed + j)) for j in range(n)]
    )


def refuses_below_and_accepts_at(build, total: int) -> None:
    with pytest.raises(SizeRefused) as refused:
        build(total - 1)
    assert refused.value.count == total
    build(total)


SETTINGS = hypothesis.settings(max_examples=25, deadline=None)


@SETTINGS
@hypothesis.given(games(2))
def test_lollipop_charges_the_arithmetic_total(gs):
    p2, p3 = gs
    refuses_below_and_accepts_at(lambda m: lollipop(p2, p3, max_enum=m), lollipop_total(p2, p3))


@SETTINGS
@hypothesis.given(games(1))
def test_dual_charges_the_arithmetic_total(gs):
    (p,) = gs
    refuses_below_and_accepts_at(lambda m: dual(p, max_enum=m), dual_total(p))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 3))
def test_tensor_power_charges_the_arithmetic_total(gs, k):
    (p,) = gs
    refuses_below_and_accepts_at(lambda m: tensor_power(p, k, max_enum=m), tensor_power_total(p, k))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 3))
def test_power_game_charges_the_arithmetic_total(gs, k):
    (p,) = gs
    refuses_below_and_accepts_at(lambda m: power_game(p, k, max_enum=m), power_total(p, k))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 2))
def test_bang_charges_the_arithmetic_total(gs, bound):
    (p,) = gs
    refuses_below_and_accepts_at(lambda m: bang(p, bound, max_enum=m), bang_total(p, bound))
