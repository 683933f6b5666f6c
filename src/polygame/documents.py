"""The JSON wire format for games, simulations, regions, and reports.

Every file is a *document*: ``{"format_version": 2, "kind": ..., "payload":
...}`` with kind one of ``game``, ``simulation``, ``region``, ``report``.
Unknown fields are rejected everywhere, with the offending path in the error.

The elements of a game, simulation or region document live in one table,
``payload.elements``, which lists each distinct element once, children before
parents.  An atom is a bare string, the unit point is the bare string
``"star"``, and a composite is a one-key object over the indices of earlier
entries: ``{"pair": [i, j]}``, ``{"tuple": [...]}``, ``{"mset": [...]}``,
``{"fun": [[i, j], ...]}``.  Every other place that holds an element -- the
states, the fibers, the apex, the legs and the transports -- holds its index.
Tables keyed by several elements (a counter fiber is keyed by a state *and* a
move) use the indices joined by commas, e.g. ``"12,3,40"``.  Reports hold no
elements and carry no table.

The table lists elements in the order of their first occurrence in one
canonical walk of the value: a game's states, then state by state its moves,
each move's counters and their successors; a simulation's source, target and
apex, then its legs and transports in the order of their keys.  That order
depends on the value alone, and emission is otherwise canonical too (sorted
keys, no incidental whitespace), so equal values serialise to identical bytes
and loading a document then dumping it reproduces them.  Decoding builds each
table entry once; an index that is not an integer, is out of range, or (in
the table) does not name an earlier entry is refused with its path.

Format version 1, which wrote the whole term at every occurrence of an
element, is not read.
"""

from __future__ import annotations

import json
from typing import Callable

from .elements import Element, FiniteSet, atom, fun, mset, pair, star, tup
from .games import Game
from .simulation import Simulation
from .synthesis import Region

FORMAT_VERSION = 2


class DocumentError(ValueError):
    """Malformed document: bad JSON shape, unknown field, or unparseable value."""


# -- the element table ------------------------------------------------------------


def _writer() -> tuple[Callable[[Element], int], list]:
    """An empty element table, and the function that returns an element's
    index in it, appending the element (after its children) on first sight."""
    index: dict[Element, int] = {}
    rows: list = []

    def ref(e: Element) -> int:
        n = index.get(e)
        if n is not None:
            return n
        k = e.kind
        if k == "atom":
            row = e.data
        elif k == "star":
            row = "star"
        elif k == "fun":
            row = {"fun": [[ref(a), ref(b)] for a, b in e.data]}
        else:  # pair, tuple, mset
            row = {k: [ref(x) for x in e.data]}
        index[e] = n = len(rows)
        rows.append(row)
        return n

    return ref, rows


def _ref(table: dict, v, path: str) -> Element:
    e = table.get(v) if type(v) is int else None
    if e is None:
        if type(v) is not int:
            raise DocumentError(f"{path}: expected an element index, got {type(v).__name__}")
        raise DocumentError(
            f"{path}: element index {v} is out of range ({len(table) // 2} entries available)"
        )
    return e


def _refs(table: dict, v, path: str) -> list:
    if not isinstance(v, list):
        raise DocumentError(f"{path}: expected a list of element indices")
    out = [table.get(x) if type(x) is int else None for x in v]
    if None in out:
        return [_ref(table, x, f"{path}[{n}]") for n, x in enumerate(v)]  # raises
    return out


def _key(table: dict, key: str, arity: int, path: str) -> tuple:
    """The elements named by a table key of ``arity`` comma-joined indices."""
    parts = key.split(",")
    if len(parts) == arity:
        try:
            return tuple([table[p] for p in parts])
        except KeyError:
            pass
    raise DocumentError(
        f"{path} key {key!r}: expected {arity} comma-joined element index(es)"
        f" below {len(table) // 2}"
    )


def _read_table(rows, path: str) -> dict:
    """Decode ``payload.elements`` into a map from each index, and from its
    decimal text, to the element; each entry goes through a factory once."""
    if not isinstance(rows, list):
        raise DocumentError(f"{path}: expected a list")
    table: dict = {}
    for n, v in enumerate(rows):
        at = f"{path}[{n}]"
        if isinstance(v, str):
            try:
                e = star() if v == "star" else atom(v)
            except ValueError as exc:
                raise DocumentError(f"{at}: {exc}") from None
        elif isinstance(v, dict) and len(v) == 1:
            (tag, body), = v.items()
            if tag == "pair":
                items = _refs(table, body, f"{at}.pair")
                if len(items) != 2:
                    raise DocumentError(f"{at}.pair: expected two indices")
                e = pair(*items)
            elif tag == "tuple":
                e = tup(*_refs(table, body, f"{at}.tuple"))
            elif tag == "mset":
                e = mset(_refs(table, body, f"{at}.mset"))
            elif tag == "fun":
                if not isinstance(body, list):
                    raise DocumentError(f"{at}.fun: expected a list of [key, value] pairs")
                entries = []
                for m, kv in enumerate(body):
                    if not isinstance(kv, list) or len(kv) != 2:
                        raise DocumentError(f"{at}.fun[{m}]: entry must be a [key, value] pair")
                    entries.append(tuple(_refs(table, kv, f"{at}.fun[{m}]")))
                try:
                    e = fun(entries)
                except ValueError as exc:
                    raise DocumentError(f"{at}: {exc}") from None
            else:
                raise DocumentError(f"{at}: unknown composite tag {tag!r}")
        else:
            raise DocumentError(f"{at}: expected a string or one-key object")
        table[n] = table[str(n)] = e
    return table


# -- games ----------------------------------------------------------------------


def encode_game(g: Game, ref: Callable[[Element], int]) -> dict:
    states = [ref(i) for i in g.states]
    moves = {}
    counters = {}
    nxt = {}
    for i in g.states:
        ki = str(ref(i))
        fiber = g.moves[i]
        moves[ki] = [ref(a) for a in fiber]
        for a in fiber:
            ka = f"{ki},{ref(a)}"
            cofiber = g.counters[(i, a)]
            counters[ka] = [ref(d) for d in cofiber]
            for d in cofiber:
                nxt[f"{ka},{ref(d)}"] = ref(g.next[(i, a, d)])
    return {"states": states, "moves": moves, "counters": counters, "next": nxt}


def _check_fields(obj: dict, allowed: tuple, path: str) -> None:
    if not isinstance(obj, dict):
        raise DocumentError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise DocumentError(f"{path}: unknown field {k!r}")
    for k in allowed:
        if k not in obj:
            raise DocumentError(f"{path}: missing field {k!r}")


def decode_game(payload: dict, table: dict, path: str = "payload") -> Game:
    _check_fields(payload, ("states", "moves", "counters", "next"), path)
    states = FiniteSet(_refs(table, payload["states"], f"{path}.states"))
    moves = {}
    for key, fiber in _items(payload["moves"], f"{path}.moves"):
        i, = _key(table, key, 1, f"{path}.moves")
        moves[i] = FiniteSet(_refs(table, fiber, f"{path}.moves[{key}]"))
    counters = {}
    for key, fiber in _items(payload["counters"], f"{path}.counters"):
        counters[_key(table, key, 2, f"{path}.counters")] = FiniteSet(
            _refs(table, fiber, f"{path}.counters[{key}]")
        )
    nxt = {}
    for key, v in _items(payload["next"], f"{path}.next"):
        nxt[_key(table, key, 3, f"{path}.next")] = _ref(table, v, f"{path}.next[{key}]")
    return Game(states=states, moves=moves, counters=counters, next=nxt)


def _items(obj, path):
    if not isinstance(obj, dict):
        raise DocumentError(f"{path}: expected an object")
    return obj.items()


# -- simulations ------------------------------------------------------------------


def encode_simulation(s: Simulation, ref: Callable[[Element], int]) -> dict:
    out = {"src": encode_game(s.src, ref), "dst": encode_game(s.dst, ref),
           "apex": [ref(r) for r in s.apex]}
    for name in ("leg1", "leg2"):
        rows = sorted(getattr(s, name).items(), key=lambda kv: kv[0].key)
        out[name] = {str(ref(r)): ref(v) for r, v in rows}
    rows = sorted(s.alpha.items(), key=lambda kv: (kv[0][0].key, kv[0][1].key))
    out["alpha"] = {f"{ref(r)},{ref(a1)}": ref(v) for (r, a1), v in rows}
    for name in ("beta", "gamma"):
        rows = sorted(getattr(s, name).items(),
                      key=lambda kv: (kv[0][0].key, kv[0][1].key, kv[0][2].key))
        out[name] = {f"{ref(r)},{ref(a1)},{ref(d2)}": ref(v) for (r, a1, d2), v in rows}
    return out


def decode_simulation(payload: dict, table: dict, path: str = "payload") -> Simulation:
    _check_fields(
        payload,
        ("src", "dst", "apex", "leg1", "leg2", "alpha", "beta", "gamma"),
        path,
    )
    tables = {}
    for name, arity in (("leg1", 1), ("leg2", 1), ("alpha", 2), ("beta", 3), ("gamma", 3)):
        rows = {}
        for key, v in _items(payload[name], f"{path}.{name}"):
            k = _key(table, key, arity, f"{path}.{name}")
            rows[k[0] if arity == 1 else k] = _ref(table, v, f"{path}.{name}[{key}]")
        tables[name] = rows
    return Simulation(
        src=decode_game(payload["src"], table, f"{path}.src"),
        dst=decode_game(payload["dst"], table, f"{path}.dst"),
        apex=FiniteSet(_refs(table, payload["apex"], f"{path}.apex")),
        **tables,
    )


# -- regions and reports -----------------------------------------------------------


def encode_region(r: Region, ref: Callable[[Element], int]) -> dict:
    return {"side": r.side, "states": [ref(i) for i in r.states]}


def decode_region(payload: dict, table: dict, path: str = "payload") -> Region:
    _check_fields(payload, ("side", "states"), path)
    if payload["side"] not in ("alfred", "dominic"):
        raise DocumentError(f"{path}.side: expected 'alfred' or 'dominic'")
    return Region(
        side=payload["side"], states=FiniteSet(_refs(table, payload["states"], f"{path}.states"))
    )


def decode_report(payload: dict, path: str = "payload") -> dict:
    _check_fields(payload, ("suite", "seed", "checks"), path)
    if not isinstance(payload["checks"], list):
        raise DocumentError(f"{path}.checks: expected a list")
    for n, c in enumerate(payload["checks"]):
        _check_fields(c, ("name", "ok", "details"), f"{path}.checks[{n}]")
    return payload


# -- documents ----------------------------------------------------------------------

_CODECS = {
    "game": (encode_game, decode_game),
    "simulation": (encode_simulation, decode_simulation),
    "region": (encode_region, decode_region),
}


def dump_document(kind: str, value, pretty: bool = False) -> str:
    if kind == "report":
        payload = value  # already a payload dict
    elif kind in _CODECS:
        encode, _ = _CODECS[kind]
        ref, rows = _writer()
        payload = encode(value, ref)
        payload["elements"] = rows
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_document(text: str):
    """Parse a document; returns (kind, decoded value)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    _check_fields(raw, ("format_version", "kind", "payload"), "document")
    if raw["format_version"] != FORMAT_VERSION:
        raise DocumentError(
            f"document: unsupported format_version {raw['format_version']!r}"
            f" (this version reads {FORMAT_VERSION})"
        )
    kind, payload = raw["kind"], raw["payload"]
    if kind == "report":
        return kind, decode_report(payload)
    if kind not in _CODECS:
        raise DocumentError(f"document: unknown kind {kind!r}")
    if not isinstance(payload, dict) or "elements" not in payload:
        raise DocumentError("payload: missing field 'elements'")
    _, decode = _CODECS[kind]
    table = _read_table(payload["elements"], "payload.elements")
    return kind, decode({k: v for k, v in payload.items() if k != "elements"}, table)
