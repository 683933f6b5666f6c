"""The pure game builders share each result while the games it was built from live."""

import gc
import random
import weakref

import pytest

from polygame import games
from polygame.additive import oplus
from polygame.exponential import bang, power_game, tensor_power
from polygame.fixtures import COIN, ONEWAY, TRAP, UNIT, unit_game
from polygame.laws import SUITES, failing, random_game, run_suite
from polygame.limits import DEFAULT_MAX_ENUM, SizeRefused, ceiling
from polygame.monoidal import dual, lollipop, tensor

from conftest import bang_total


# each builder with several spellings of one call: by position, by keyword,
# and under the default ceiling set explicitly
@pytest.mark.parametrize("build, spellings", [
    (tensor, [((COIN, TRAP), {}), ((), {"p1": COIN, "p2": TRAP}), ((COIN,), {"p2": TRAP})]),
    (oplus, [((COIN, TRAP), {}), ((), {"p2": TRAP, "p1": COIN})]),
    (lollipop, [((COIN, UNIT), {}), ((COIN,), {"p3": UNIT}), ((), {"p3": UNIT, "p2": COIN})]),
    (dual, [((TRAP,), {}), ((), {"p": TRAP})]),
    (tensor_power, [((COIN, 2), {}), ((COIN,), {"k": 2})]),
    (power_game, [((COIN, 2), {}), ((), {"k": 2, "p": COIN})]),
    (bang, [((COIN, 2), {}), ((COIN,), {"bound": 2})]),
], ids=lambda x: getattr(x, "__name__", ""))
def test_repeated_calls_return_the_same_game_however_spelled(build, spellings):
    first = build(*spellings[0][0], **spellings[0][1])
    for args, kwargs in spellings:
        assert build(*args, **kwargs) is first
        with ceiling(DEFAULT_MAX_ENUM):
            assert build(*args, **kwargs) is first


def test_other_parameters_are_other_entries():
    b2 = bang(COIN, 2)
    b3 = bang(COIN, 3)
    with ceiling(5000):
        capped = bang(COIN, 2)
    assert b3 is not b2 and b3 != b2
    assert capped is b2  # a ceiling is not a parameter of the build
    assert tensor(TRAP, COIN) is not tensor(COIN, TRAP)


def test_equal_but_distinct_arguments_do_not_share():
    # the key is the identity of a game argument, not its tables
    twin = games.make_game(COIN.states, COIN.moves, COIN.counters, COIN.next)
    held = tensor(COIN, COIN)
    assert twin == COIN and tensor(twin, COIN) is not held
    assert tensor(twin, COIN) == held


def _entries(t):
    return [k for k, (_, out, _) in games._SHARED.items() if out is t]


def test_the_table_keeps_no_argument_alive():
    g = random_game(random.Random(7))
    t = tensor(g, g)
    dead_g, dead_t = weakref.ref(g), weakref.ref(t)
    keys = _entries(t)
    assert len(keys) == 1
    del g, t
    gc.collect()
    assert dead_g() is None and dead_t() is None
    assert keys[0] not in games._SHARED


def test_a_dead_argument_drops_the_entry_it_was_part_of():
    g = random_game(random.Random(8))
    t = tensor(COIN, g)
    keys = _entries(t)
    del g
    gc.collect()
    assert keys and keys[0] not in games._SHARED
    assert t.states  # the result itself lives on while it is held


def test_a_result_lives_while_its_arguments_do():
    # no test module holds this build, so only the table can keep it
    dead = weakref.ref(power_game(ONEWAY, 3))
    gc.collect()
    assert dead() is not None and power_game(ONEWAY, 3) is dead()


def test_a_result_built_from_a_transient_game_dies_with_it():
    g = random_game(random.Random(9))
    dead = weakref.ref(power_game(g, 2))
    gc.collect()
    assert dead() is not None and _entries(dead())
    del g
    gc.collect()
    assert dead() is None


def test_a_refused_build_stores_nothing_and_refuses_again():
    for _ in range(2):
        with ceiling(1000), pytest.raises(SizeRefused) as refused:
            bang(COIN, 6)
        assert str(refused.value) == "bang (cumulative): would enumerate 1011 objects (ceiling 1000)"
    assert (bang.__wrapped__, id(COIN), 6) not in games._SHARED
    with ceiling(1000):
        held = bang(COIN, 2)
    assert (bang.__wrapped__, id(COIN), 2) in games._SHARED and held


def test_a_held_build_does_not_lift_a_lower_ceiling():
    c = bang_total(COIN, 3)
    with ceiling(c - 1), pytest.raises(SizeRefused) as cold:
        bang(COIN, 3)
    held = bang(COIN, 3)
    with ceiling(c - 1), pytest.raises(SizeRefused) as warm:
        bang(COIN, 3)
    assert str(warm.value) == str(cold.value)
    with ceiling(c):
        assert bang(COIN, 3) is held


def test_malformed_calls_fail_as_python_reports_them():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'bound'"):
        bang(COIN)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        bang(COIN, 2, colour=1)
    with pytest.raises(TypeError, match="multiple values for argument 'p'"):
        dual(TRAP, p=TRAP)
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        bang(COIN, 2, 1)


def test_the_unit_is_one_object():
    assert unit_game() is UNIT
    assert tensor(unit_game(), COIN) is tensor(UNIT, COIN)


def test_suites_run_back_to_back_keep_their_reports():
    # games die and their addresses are reused between the runs, so a share
    # keyed on a dead game would hand a later suite a stale result
    runs = [[run_suite(s, seed) for s in SUITES for seed in range(3)] for _ in range(2)]
    assert runs[0] == runs[1]
    assert not any(failing(checks) for checks in runs[0])
