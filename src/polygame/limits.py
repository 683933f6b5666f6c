"""Sizing and search guards.

Linear implication, negation and the powers blow up combinatorially even on
tiny inputs, through one step: the dependent product, the sections of a
finite family of pools.  Every such product goes through
:meth:`EnumBudget.pi`, which charges its exact size before yielding anything,
so the library never silently truncates: past the ceiling it *refuses*.
Likewise the searches behind morphism equality and carrier isomorphism refuse,
rather than guess, above their bounds -- "refused" is distinct from "no".

A construction and the builds nested in it charge one budget, opened by the
outermost call at the ceiling :func:`ceiling` sets (:data:`DEFAULT_MAX_ENUM`
outside any), so the ceiling caps the total work of the call.
"""

import functools
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from math import prod

DEFAULT_MAX_ENUM = 10_000
DEFAULT_SEARCH_BOUND = 8

# the budget of the construction running, or, between constructions, the
# ceiling the next one opens its budget at
_OPEN: ContextVar = ContextVar("polygame_enum_budget", default=DEFAULT_MAX_ENUM)


class SizeRefused(Exception):
    """A construction would enumerate more objects than the ceiling allows."""

    def __init__(self, what: str, count: int, ceiling: int):
        self.what = what
        self.count = count
        self.ceiling = ceiling
        super().__init__(f"{what}: would enumerate {count} objects (ceiling {ceiling})")


class SearchRefused(Exception):
    """An exhaustive search was declined because its work exceeds the bound.

    ``reason`` names what was counted, as a template over ``{size}`` and
    ``{bound}``, such as ``"{size} candidate tests exceed bound {bound}"``.
    """

    def __init__(self, what: str, size: int, bound: int, reason: str):
        self.what = what
        self.size = size
        self.bound = bound
        super().__init__(f"{what}: " + reason.format(size=size, bound=bound))


class EnumBudget:
    """A cumulative enumeration allowance for one construction.

    Every charge adds to one running total, so a construction cannot sneak
    past the ceiling by spreading work over many small fibers or nested
    builds, and it refuses as soon as the total would cross the ceiling,
    naming the step that crossed it.  The rule: :meth:`pi` charges exactly
    what it yields, before the first section; any other charge is a count
    computed before its objects are built; lists linear in what was charged
    already (a move's counters listed as pairs) are free.
    """

    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.used = 0

    def charge(self, n: int, what: str) -> None:
        self.used += n
        if self.used > self.ceiling:
            raise SizeRefused(f"{what} (cumulative)", self.used, self.ceiling)

    def pi(self, pools, what: str):
        """The sections of the family ``pools`` in lexicographic order, their
        number (the product of the pools' sizes) charged as ``what`` when called."""
        pools = list(pools)
        self.charge(prod(map(len, pools)), what)
        return itertools.product(*pools)


@contextmanager
def ceiling(n: int):
    """Refuse past ``n`` in every construction begun inside the block."""
    token = _OPEN.set(n)
    try:
        yield
    finally:
        _OPEN.reset(token)


_budget = _OPEN.get  # inside a _charged call: the budget of the construction running


def _charged(build):
    """Run ``build`` in the budget of the construction running, or, called
    outside one, in a new budget at the current ceiling."""
    @functools.wraps(build)
    def charged(*args, **kwargs):
        if isinstance(_OPEN.get(), EnumBudget):
            return build(*args, **kwargs)
        token = _OPEN.set(EnumBudget(_OPEN.get()))
        try:
            return build(*args, **kwargs)
        finally:
            _OPEN.reset(token)
    return charged
