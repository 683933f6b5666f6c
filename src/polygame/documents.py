"""The JSON wire format for games, simulations, regions, and reports.

Every file is a *document*: ``{"format_version": 1, "kind": ..., "payload":
...}`` with kind one of ``game``, ``simulation``, ``region``, ``report``.
Unknown fields are rejected everywhere, with the offending path in the error.

Elements encode as: a bare string is an atom, the bare string ``"star"`` is
the unit point, and composites are one-key objects ``{"pair": [x, y]}``,
``{"tuple": [...]}``, ``{"mset": [...]}``, ``{"fun": [[k, v], ...]}``.
Tables keyed by composite values (a counter fiber is keyed by a state *and* a
move) use the canonical compact JSON text of the composite as the object key,
e.g. ``"{\\"pair\\":[\\"ok\\",\\"go\\"]}"``.  Emission is canonical -- sorted
keys, no incidental whitespace in keys, fibers in element order -- so equal
values always serialise to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .elements import Element, FiniteSet, atom, fun, mset, pair, star, tup
from .games import Game
from .simulation import Simulation
from .synthesis import Region

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Malformed document: bad JSON shape, unknown field, or unparseable value."""


# -- elements -------------------------------------------------------------------


def encode_element(e: Element) -> Any:
    k = e.kind
    if k == "atom":
        return e.data
    if k == "star":
        return "star"
    if k == "pair":
        return {"pair": [encode_element(e.data[0]), encode_element(e.data[1])]}
    if k == "tuple":
        return {"tuple": [encode_element(x) for x in e.data]}
    if k == "mset":
        return {"mset": [encode_element(x) for x in e.data]}
    if k == "fun":
        return {"fun": [[encode_element(a), encode_element(b)] for a, b in e.data]}
    raise AssertionError(k)


def decode_element(v: Any, path: str = "element") -> Element:
    if isinstance(v, str):
        if v == "star":
            return star()
        try:
            return atom(v)
        except ValueError as exc:
            raise DocumentError(f"{path}: {exc}") from None
    if isinstance(v, dict):
        if len(v) != 1:
            raise DocumentError(f"{path}: composite must have exactly one key")
        (tag, body), = v.items()
        if tag == "pair":
            if not isinstance(body, list) or len(body) != 2:
                raise DocumentError(f"{path}: pair needs a two-item list")
            return pair(
                decode_element(body[0], f"{path}.pair[0]"),
                decode_element(body[1], f"{path}.pair[1]"),
            )
        if tag == "tuple":
            if not isinstance(body, list):
                raise DocumentError(f"{path}: tuple needs a list")
            return tup(*(decode_element(x, f"{path}.tuple[{n}]") for n, x in enumerate(body)))
        if tag == "mset":
            if not isinstance(body, list):
                raise DocumentError(f"{path}: mset needs a list")
            return mset(decode_element(x, f"{path}.mset[{n}]") for n, x in enumerate(body))
        if tag == "fun":
            if not isinstance(body, list):
                raise DocumentError(f"{path}: fun needs a list of [key, value] pairs")
            entries = []
            for n, kv in enumerate(body):
                if not isinstance(kv, list) or len(kv) != 2:
                    raise DocumentError(f"{path}.fun[{n}]: entry must be a [key, value] pair")
                entries.append(
                    (
                        decode_element(kv[0], f"{path}.fun[{n}][0]"),
                        decode_element(kv[1], f"{path}.fun[{n}][1]"),
                    )
                )
            try:
                return fun(entries)
            except ValueError as exc:
                raise DocumentError(f"{path}: {exc}") from None
        raise DocumentError(f"{path}: unknown composite tag {tag!r}")
    raise DocumentError(f"{path}: expected a string or one-key object, got {type(v).__name__}")


def element_key(e: Element) -> str:
    """Canonical compact text of an element, used as a JSON object key."""
    return json.dumps(encode_element(e), sort_keys=True, separators=(",", ":"))


def _decode_key(text: str, path: str) -> Element:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: key is not valid JSON: {exc}") from None
    return decode_element(raw, path)


# -- games ----------------------------------------------------------------------


def encode_game(g: Game) -> dict:
    moves = {}
    counters = {}
    nxt = {}
    for i in g.states:
        moves[element_key(i)] = [encode_element(a) for a in g.moves_at(i)]
        for a in g.moves_at(i):
            counters[element_key(pair(i, a))] = [
                encode_element(d) for d in g.counters_at(i, a)
            ]
            for d in g.counters_at(i, a):
                nxt[element_key(tup(i, a, d))] = encode_element(g.next_state(i, a, d))
    return {
        "states": [encode_element(i) for i in g.states],
        "moves": moves,
        "counters": counters,
        "next": nxt,
    }


def _check_fields(obj: dict, allowed: tuple, path: str) -> None:
    if not isinstance(obj, dict):
        raise DocumentError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise DocumentError(f"{path}: unknown field {k!r}")
    for k in allowed:
        if k not in obj:
            raise DocumentError(f"{path}: missing field {k!r}")


def decode_game(payload: dict, path: str = "payload") -> Game:
    _check_fields(payload, ("states", "moves", "counters", "next"), path)
    if not isinstance(payload["states"], list):
        raise DocumentError(f"{path}.states: expected a list")
    states = FiniteSet(
        decode_element(v, f"{path}.states[{n}]") for n, v in enumerate(payload["states"])
    )
    moves = {}
    for key, fiber in _items(payload["moves"], f"{path}.moves"):
        i = _decode_key(key, f"{path}.moves key")
        if not isinstance(fiber, list):
            raise DocumentError(f"{path}.moves[{key}]: expected a list")
        moves[i] = FiniteSet(
            decode_element(v, f"{path}.moves[{key}][{n}]") for n, v in enumerate(fiber)
        )
    counters = {}
    for key, fiber in _items(payload["counters"], f"{path}.counters"):
        e = _decode_key(key, f"{path}.counters key")
        if e.kind != "pair":
            raise DocumentError(f"{path}.counters key {key!r}: expected a pair")
        if not isinstance(fiber, list):
            raise DocumentError(f"{path}.counters[{key}]: expected a list")
        counters[(e.fst, e.snd)] = FiniteSet(
            decode_element(v, f"{path}.counters[{key}][{n}]") for n, v in enumerate(fiber)
        )
    nxt = {}
    for key, v in _items(payload["next"], f"{path}.next"):
        e = _decode_key(key, f"{path}.next key")
        if e.kind != "tuple" or len(e.items) != 3:
            raise DocumentError(f"{path}.next key {key!r}: expected a three-item tuple")
        nxt[(e.items[0], e.items[1], e.items[2])] = decode_element(v, f"{path}.next[{key}]")
    return Game(states=states, moves=moves, counters=counters, next=nxt)


def _items(obj, path):
    if not isinstance(obj, dict):
        raise DocumentError(f"{path}: expected an object")
    return obj.items()


# -- simulations ------------------------------------------------------------------


def encode_simulation(s: Simulation) -> dict:
    leg = lambda table: {element_key(r): encode_element(v) for r, v in sorted(
        table.items(), key=lambda kv: kv[0].key
    )}  # noqa: E731
    alpha = {}
    for (r, a1), v in sorted(s.alpha.items(), key=lambda kv: (kv[0][0].key, kv[0][1].key)):
        alpha[element_key(pair(r, a1))] = encode_element(v)
    beta = {}
    gamma = {}
    for table, out in ((s.beta, beta), (s.gamma, gamma)):
        for (r, a1, d2), v in sorted(
            table.items(), key=lambda kv: (kv[0][0].key, kv[0][1].key, kv[0][2].key)
        ):
            out[element_key(tup(r, a1, d2))] = encode_element(v)
    return {
        "src": encode_game(s.src),
        "dst": encode_game(s.dst),
        "apex": [encode_element(r) for r in s.apex],
        "leg1": leg(s.leg1),
        "leg2": leg(s.leg2),
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
    }


def decode_simulation(payload: dict, path: str = "payload") -> Simulation:
    _check_fields(
        payload,
        ("src", "dst", "apex", "leg1", "leg2", "alpha", "beta", "gamma"),
        path,
    )
    src = decode_game(payload["src"], f"{path}.src")
    dst = decode_game(payload["dst"], f"{path}.dst")
    if not isinstance(payload["apex"], list):
        raise DocumentError(f"{path}.apex: expected a list")
    apex = FiniteSet(
        decode_element(v, f"{path}.apex[{n}]") for n, v in enumerate(payload["apex"])
    )
    legs = {}
    for name in ("leg1", "leg2"):
        table = {}
        for key, v in _items(payload[name], f"{path}.{name}"):
            r = _decode_key(key, f"{path}.{name} key")
            table[r] = decode_element(v, f"{path}.{name}[{key}]")
        legs[name] = table
    alpha = {}
    for key, v in _items(payload["alpha"], f"{path}.alpha"):
        e = _decode_key(key, f"{path}.alpha key")
        if e.kind != "pair":
            raise DocumentError(f"{path}.alpha key {key!r}: expected a pair")
        alpha[(e.fst, e.snd)] = decode_element(v, f"{path}.alpha[{key}]")
    tables = {}
    for name in ("beta", "gamma"):
        table = {}
        for key, v in _items(payload[name], f"{path}.{name}"):
            e = _decode_key(key, f"{path}.{name} key")
            if e.kind != "tuple" or len(e.items) != 3:
                raise DocumentError(f"{path}.{name} key {key!r}: expected a three-item tuple")
            table[(e.items[0], e.items[1], e.items[2])] = decode_element(
                v, f"{path}.{name}[{key}]"
            )
        tables[name] = table
    return Simulation(
        src=src,
        dst=dst,
        apex=apex,
        leg1=legs["leg1"],
        leg2=legs["leg2"],
        alpha=alpha,
        beta=tables["beta"],
        gamma=tables["gamma"],
    )


# -- regions and reports -----------------------------------------------------------


def encode_region(r: Region) -> dict:
    return {"side": r.side, "states": [encode_element(i) for i in r.states]}


def decode_region(payload: dict, path: str = "payload") -> Region:
    _check_fields(payload, ("side", "states"), path)
    if payload["side"] not in ("alfred", "dominic"):
        raise DocumentError(f"{path}.side: expected 'alfred' or 'dominic'")
    if not isinstance(payload["states"], list):
        raise DocumentError(f"{path}.states: expected a list")
    return Region(
        side=payload["side"],
        states=FiniteSet(
            decode_element(v, f"{path}.states[{n}]") for n, v in enumerate(payload["states"])
        ),
    )


def decode_report(payload: dict, path: str = "payload") -> dict:
    _check_fields(payload, ("suite", "seed", "checks"), path)
    if not isinstance(payload["checks"], list):
        raise DocumentError(f"{path}.checks: expected a list")
    for n, c in enumerate(payload["checks"]):
        _check_fields(c, ("name", "ok", "details"), f"{path}.checks[{n}]")
    return payload


# -- documents ----------------------------------------------------------------------


def wrap_document(kind: str, payload: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}


def dump_document(kind: str, value, pretty: bool = False) -> str:
    if kind == "game":
        payload = encode_game(value)
    elif kind == "simulation":
        payload = encode_simulation(value)
    elif kind == "region":
        payload = encode_region(value)
    elif kind == "report":
        payload = value  # already a payload dict
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    doc = wrap_document(kind, payload)
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
        )
    kind = raw["kind"]
    if kind == "game":
        return kind, decode_game(raw["payload"])
    if kind == "simulation":
        return kind, decode_simulation(raw["payload"])
    if kind == "region":
        return kind, decode_region(raw["payload"])
    if kind == "report":
        return kind, decode_report(raw["payload"])
    raise DocumentError(f"document: unknown kind {kind!r}")
