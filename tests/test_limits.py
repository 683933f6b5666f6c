"""The enumeration budget: its one dependent-product enumerator, and what
every builder charges, graded against the plain-arithmetic totals.  A
composite charges one budget for all the builds it makes, so its smallest
accepted ceiling is the sum of theirs."""

import random

import hypothesis
import hypothesis.strategies as strat
import pytest

from polygame.elements import atom
from polygame.exponential import (
    bang, chat, comul_sim, dereliction_sim, digging_sim, power_game, tensor_power
)
from polygame.fixtures import TRAP
from polygame.laws import random_game
from polygame.limits import EnumBudget, SizeRefused, ceiling
from polygame.monoidal import dual, lollipop

from conftest import bang_total, dual_total, lollipop_total, power_total, tensor_power_total


def test_pi_yields_the_sections_in_lexicographic_order_and_charges_them():
    a, b, x, y, z = map(atom, "abxyz")
    budget = EnumBudget(100)
    sections = list(budget.pi([(a, b), (x, y, z)], "pi"))
    assert sections == [(a, x), (a, y), (a, z), (b, x), (b, y), (b, z)]
    assert budget.used == 6
    budget.pi(iter([(a, b)] * 3), "pi")  # a one-shot family is read once
    assert budget.used == 6 + 8


def test_pi_of_an_empty_family_is_the_one_empty_section():
    budget = EnumBudget(1)
    assert list(budget.pi([], "pi")) == [()]
    assert budget.used == 1


def test_pi_with_an_empty_pool_has_no_sections():
    budget = EnumBudget(0)
    assert list(budget.pi([(atom("a"),), ()], "pi")) == []
    assert budget.used == 0


def test_pi_charges_before_it_yields():
    budget = EnumBudget(7)
    with pytest.raises(SizeRefused) as refused:
        budget.pi([(atom("a"), atom("b"))] * 3, "pi")
    assert str(refused.value) == "pi (cumulative): would enumerate 8 objects (ceiling 7)"


def test_a_negative_ceiling_is_bad_input_and_zero_refuses():
    with pytest.raises(ValueError, match="ceiling must be nonnegative, not -1"):
        with ceiling(-1):
            pass
    with ceiling(0), pytest.raises(SizeRefused):
        dual(TRAP)


def games(n: int):
    """``n`` random games of at most 3 states, 2 moves and 2 counters."""
    return strat.integers(0, 2**32).map(
        lambda seed: [random_game(random.Random(seed + j)) for j in range(n)]
    )


def refuses_below_and_accepts_at(build, total: int) -> str:
    """Check that ``build()`` refuses under ``ceiling(total - 1)``, having
    reached ``total``, and is accepted under ``ceiling(total)``; return the
    refusal's text ("" when ``total`` is 0: no ceiling lies below it)."""
    text = ""
    if total:
        with ceiling(total - 1), pytest.raises(SizeRefused) as refused:
            build()
        assert refused.value.count == total
        text = str(refused.value)
    with ceiling(total):
        build()
    return text


SETTINGS = hypothesis.settings(max_examples=25, deadline=None)


@SETTINGS
@hypothesis.given(games(2))
def test_lollipop_charges_the_arithmetic_total(gs):
    p2, p3 = gs
    refuses_below_and_accepts_at(lambda: lollipop(p2, p3), lollipop_total(p2, p3))


@SETTINGS
@hypothesis.given(games(1))
def test_dual_charges_the_arithmetic_total(gs):
    (p,) = gs
    refuses_below_and_accepts_at(lambda: dual(p), dual_total(p))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 3))
def test_tensor_power_charges_the_arithmetic_total(gs, k):
    (p,) = gs
    refuses_below_and_accepts_at(lambda: tensor_power(p, k), tensor_power_total(p, k))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 3))
def test_power_game_charges_the_arithmetic_total(gs, k):
    (p,) = gs
    refuses_below_and_accepts_at(lambda: power_game(p, k), power_total(p, k))


@SETTINGS
@hypothesis.given(games(1), strat.integers(0, 2))
def test_bang_charges_the_arithmetic_total(gs, bound):
    (p,) = gs
    refuses_below_and_accepts_at(lambda: bang(p, bound), bang_total(p, bound))


# each composite, the builds it makes, and the sum of their oracle totals
# (plus, for comul_sim, its apex: 2^|m| tag vectors per state m of its bang)
COMPOSITES = {
    "dereliction_sim": (dereliction_sim, lambda p, n: [bang(p, n)],
                        lambda p, n: bang_total(p, n)),
    "digging_sim": (digging_sim, lambda p, n: [bang(p, n), bang(bang(p, n), n)],
                    lambda p, n: bang_total(p, n) + bang_total(bang(p, n), n)),
    "chat": (chat, lambda p, n: [power_game(p, n), tensor_power(p, n)],
             lambda p, n: power_total(p, n) + tensor_power_total(p, n)),
    "comul_sim": (comul_sim, lambda p, n: [bang(p, n)],
                  lambda p, n: bang_total(p, n)
                  + sum(2 ** len(m.items) for m in bang(p, n).states)),
}


@SETTINGS
@hypothesis.given(games(1), strat.integers(1, 2), strat.sampled_from(sorted(COMPOSITES)))
def test_a_composite_charges_all_its_builds_to_one_budget(gs, n, name):
    (p,) = gs
    make, builds, total = COMPOSITES[name]
    cold = refuses_below_and_accepts_at(lambda: make(p, n), total(p, n))
    held = builds(p, n)  # noqa: F841 - held so that the composite's builds are shared
    assert refuses_below_and_accepts_at(lambda: make(p, n), total(p, n)) == cold
