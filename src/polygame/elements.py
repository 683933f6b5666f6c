"""Ground values and finite sets.

Every set-like thing in this library -- the states of a game, a fiber of
moves, the apex of a simulation -- is a finite set of *elements*.  An element
is a closed term over a small grammar:

    atom        a named token ("h", "go", "land_heads", ...)
    star        the unit point
    pair        an ordered pair of elements
    tuple       a finite word of elements (any length, order matters)
    mset        a finite multiset of elements (order ignored, copies kept)
    fun         a finite function, stored as its graph

Elements are immutable and totally ordered by a global order, so every
enumeration downstream is reproducible byte for byte.  Multisets and function
graphs are canonicalised at construction.

Elements are hash-consed: the factories below look every term up in the
process-wide intern table of its kind, keyed by its canonical data (the
child elements, themselves interned), and build it only on a miss.  Each
distinct term therefore exists exactly once, equality is identity, and
hashing is the interpreter's identity hash: O(1), with no Python-level call.
``key`` is kept for the global order only.  The tables hold their elements
strongly for the life of the process; that is safe because real traffic
reuses a small vocabulary -- over seeds 1000-1011 of the exponential law
suite, 309,000 constructions yield 5,053 distinct elements -- and sharing
them makes peak memory fall, not rise.

The atom name "star" is reserved (the wire format prints the unit point as
that bare string, and round-tripping must stay faithful).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Mapping


class Element:
    """One immutable term of the ground grammar.

    Do not call the constructor directly -- use :func:`atom`, :func:`star`,
    :func:`pair`, :func:`tup`, :func:`mset`, :func:`fun`.  Those return the
    one interned object for each term, so equality and hashing are by
    identity; an ``Element(...)`` built by hand is not interned and would not
    equal its interned twin.  ``key`` is a nested tuple encoding used only
    for the global order.
    """

    __slots__ = ("kind", "data", "key")

    def __init__(self, kind: str, data, key):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Element is immutable")

    # -- structure accessors ------------------------------------------------

    @property
    def name(self) -> str:
        """Atom name."""
        if self.kind != "atom":
            raise ValueError(f"not an atom: {self!r}")
        return self.data

    @property
    def fst(self) -> "Element":
        if self.kind != "pair":
            raise ValueError(f"not a pair: {self!r}")
        return self.data[0]

    @property
    def snd(self) -> "Element":
        if self.kind != "pair":
            raise ValueError(f"not a pair: {self!r}")
        return self.data[1]

    @property
    def items(self) -> tuple:
        """Components of a tuple or mset, or the (key, value) pairs of a fun."""
        if self.kind not in ("tuple", "mset", "fun"):
            raise ValueError(f"no items: {self!r}")
        return self.data

    def apply(self, arg: "Element") -> "Element":
        """Look ``arg`` up in a fun element's graph."""
        if self.kind != "fun":
            raise ValueError(f"not a fun: {self!r}")
        for k, v in self.data:
            if k == arg:
                return v
        raise KeyError(f"{arg!r} not in domain of {self!r}")

    # -- protocol ------------------------------------------------------------

    def __lt__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.key < other.key

    def __le__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.key <= other.key

    def __gt__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.key > other.key

    def __ge__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.key >= other.key

    def __repr__(self):
        return self.text()

    def text(self) -> str:
        """Compact human-readable rendering (diagnostics, not the wire format)."""
        k = self.kind
        if k == "atom":
            return self.data
        if k == "star":
            return "*"
        if k == "pair":
            return f"({self.data[0].text()}, {self.data[1].text()})"
        if k == "tuple":
            return "[" + ", ".join(e.text() for e in self.data) + "]"
        if k == "mset":
            return "{" + ", ".join(e.text() for e in self.data) + "}"
        if k == "fun":
            if not self.data:
                return "{=>}"
            return "{" + ", ".join(f"{a.text()}=>{b.text()}" for a, b in self.data) + "}"
        raise AssertionError(k)


class _Pair(Element):
    """A pair, its components held in slots: ``fst`` and ``snd`` read them
    directly rather than through the properties every other element raises
    from."""

    __slots__ = ("fst", "snd")

    def __init__(self, kind: str, data, key):
        Element.__init__(self, kind, data, key)
        object.__setattr__(self, "fst", data[0])
        object.__setattr__(self, "snd", data[1])


# The intern tables, one per kind: canonical data -> the one element of that
# term.  Keying each kind apart spares every element a (kind, data) key.
_TABLES: dict[str, dict] = {kind: {} for kind in ("atom", "star", "pair", "tuple", "mset", "fun")}
_ATOMS, _, _PAIRS, _TUPLES, _MSETS, _FUNS = _TABLES.values()
_KEY = attrgetter("key")


def _intern(kind: str, data, key) -> Element:
    """Build and record the element of a term its kind's table does not hold yet.

    ``setdefault`` is one atomic step, so two threads missing on the same
    term at once still end up sharing whichever element got in first.
    """
    make = _Pair if kind == "pair" else Element
    return _TABLES[kind].setdefault(data, make(kind, data, key))


def atom(name: str) -> Element:
    """A named token.  The name must be a nonempty string, and not "star"."""
    try:
        return _ATOMS[name]
    except (KeyError, TypeError):  # a miss, or an unhashable argument
        pass
    if not isinstance(name, str) or not name:
        raise ValueError("atom name must be a nonempty string")
    if name == "star":
        raise ValueError('atom name "star" is reserved for the unit point')
    return _intern("atom", name, (0, name))


_STAR = _intern("star", None, (1,))


def star() -> Element:
    """The unit point."""
    return _STAR


def pair(a: Element, b: Element) -> Element:
    data = (a, b)
    try:
        return _PAIRS[data]
    except (KeyError, TypeError):  # a miss, or an unhashable argument
        pass
    _want(a)
    _want(b)
    return _intern("pair", data, (2, a.key, b.key))


def tup(*items: Element) -> Element:
    """A word: finite ordered sequence, any length (including zero)."""
    try:
        return _TUPLES[items]
    except (KeyError, TypeError):  # a miss, or an unhashable argument
        pass
    for e in items:
        _want(e)
    return _intern("tuple", items, (3, tuple(e.key for e in items)))


def mset(items: Iterable[Element]) -> Element:
    """A finite multiset; the canonical form stores copies in sorted order."""
    data = tuple(sorted(items, key=_KEY))
    try:
        return _MSETS[data]
    except (KeyError, TypeError):  # a miss, or an unhashable argument
        pass
    for e in data:
        _want(e)
    return _intern("mset", data, (4, tuple(e.key for e in data)))


def fun(graph: Mapping[Element, Element] | Iterable[tuple[Element, Element]]) -> Element:
    """A finite function given by its graph; keys must be distinct.

    The entries are checked before the lookup, since putting the graph in
    canonical order sorts it by the keys of its arguments.
    """
    if isinstance(graph, Mapping):
        entries = list(graph.items())
    else:
        entries = list(graph)
    for k, v in entries:
        _want(k)
        _want(v)
    # entries as tuples, so that the graph can key the table
    data = tuple(sorted(((k, v) for k, v in entries), key=lambda kv: kv[0].key))
    try:
        return _FUNS[data]
    except KeyError:
        pass
    for (k1, _), (k2, _) in zip(data, data[1:]):
        if k1 is k2:
            raise ValueError(f"duplicate key in function graph: {k1!r}")
    return _intern("fun", data, (5, tuple((k.key, v.key) for k, v in data)))


def _want(e) -> None:
    if not isinstance(e, Element):
        raise TypeError(f"expected an Element, got {type(e).__name__}")


class FiniteSet:
    """An immutable finite set of elements, kept in canonical sorted order.

    Iteration order is the global element order, so two equal sets always
    enumerate identically.  Duplicates in the input collapse.
    """

    __slots__ = ("_items", "_index")

    def __init__(self, items: Iterable[Element] = ()):
        seen = {}
        for e in items:
            if not isinstance(e, Element):
                _want(e)  # raises
            seen[e] = None
        ordered = tuple(sorted(seen, key=_KEY))
        object.__setattr__(self, "_items", ordered)
        object.__setattr__(self, "_index", frozenset(ordered))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("FiniteSet is immutable")

    @property
    def items(self) -> tuple:
        return self._items

    def __iter__(self) -> Iterator[Element]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, e) -> bool:
        return e in self._index

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return "FiniteSet{" + ", ".join(e.text() for e in self._items) + "}"

    def union(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(self._items + other._items)
