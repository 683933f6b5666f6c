"""Sizing and search guards.

Linear implication, negation and the powers blow up combinatorially even on
tiny inputs, through one step: the dependent product, the sections of a
finite family of pools.  Every such product goes through
:meth:`EnumBudget.pi`, which charges its exact size before yielding anything,
so the library never silently truncates: past the ceiling it *refuses*.
Likewise the searches behind morphism equality and carrier isomorphism refuse,
rather than guess, above their bounds -- "refused" is distinct from "no".
"""

import itertools
from math import prod

DEFAULT_MAX_ENUM = 10_000
DEFAULT_SEARCH_BOUND = 8


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
    past the ceiling by spreading work over many small fibers, and it refuses
    as soon as the total would cross the ceiling.  The rule: :meth:`pi`
    charges exactly what it yields, before the first section; any other
    charge is a count computed before its objects are built; lists linear in
    what was charged already (a move's counters listed as pairs) are free.
    """

    def __init__(self, what: str, ceiling: int):
        self.what = what
        self.ceiling = ceiling
        self.used = 0

    def charge(self, n: int) -> None:
        self.used += n
        if self.used > self.ceiling:
            raise SizeRefused(f"{self.what} (cumulative)", self.used, self.ceiling)

    def pi(self, pools):
        """The sections of the family ``pools`` in lexicographic order, their
        number (the product of the pools' sizes) charged when called."""
        pools = list(pools)
        self.charge(prod(map(len, pools)))
        return itertools.product(*pools)
