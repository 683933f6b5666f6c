"""The wire format: canonical bytes, round trips, defensive decoding."""

import json

import hypothesis
import hypothesis.strategies as strat
import pytest

from polygame.documents import DocumentError, dump_document, load_document
from polygame.elements import FiniteSet, atom, star
from polygame.exponential import comul_sim
from polygame.fixtures import ALL_FIXTURES, COIN, TRAP
from polygame.games import Game
from polygame.laws import random_game, random_simulation
from polygame.simulation import Simulation, check_simulation, identity_sim
from polygame.synthesis import Region, alfred_region, max_simulation

from conftest import dump_v1, element_pool
from test_elements import elements


def region_of(*es):
    return Region(side="alfred", states=FiniteSet(es))


def table_of(text):
    return json.loads(text)["payload"]["elements"]


def subterms(e):
    if e.kind == "fun":
        children = [x for kv in e.data for x in kv]
    else:
        children = e.data if e.kind in ("pair", "tuple", "mset") else ()
    return {e}.union(*map(subterms, children))


@hypothesis.given(strat.lists(elements(), max_size=4))
def test_element_table_round_trips(es):
    r = region_of(*es)
    text = dump_document("region", r, False)
    kind, back = load_document(text)
    assert kind == "region" and back == r
    assert dump_document("region", back, False) == text


def test_element_table_lists_each_subterm_once_children_first():
    pool = element_pool()
    rows = table_of(dump_document("region", region_of(*pool), False))
    assert len(rows) == len(set().union(*map(subterms, pool)))
    assert len({json.dumps(row, sort_keys=True) for row in rows}) == len(rows)
    for n, row in enumerate(rows):
        if isinstance(row, dict):
            (body,) = row.values()
            refs = [i for x in body for i in (x if isinstance(x, list) else [x])]
            assert all(type(i) is int and 0 <= i < n for i in refs), (n, row)


def test_unit_point_prints_as_reserved_word():
    text = dump_document("region", region_of(star(), atom("go")), False)
    assert table_of(text) == ["go", "star"]
    assert load_document(text)[1].states == FiniteSet([star(), atom("go")])


def test_game_documents_round_trip():
    for name, g in sorted(ALL_FIXTURES.items()):
        text = dump_document("game", g, False)
        kind, back = load_document(text)
        assert kind == "game" and back == g, name


def test_simulation_documents_round_trip(rng):
    for _ in range(10):
        g1 = random_game(rng)
        g2 = random_game(rng)
        s = random_simulation(rng, g1, g2)
        kind, back = load_document(dump_document("simulation", s, False))
        assert kind == "simulation"
        assert back == s
        assert check_simulation(back) == []


def test_rows_the_walk_does_not_reach_are_refused_not_dropped():
    # (h, h, h) is no triple of the coin; writing the rest would load back valid
    h = COIN.states.items[0]
    rogue = Game(COIN.states, COIN.moves, COIN.counters, {**COIN.next, (h, h, h): h})
    s = identity_sim(COIN)
    sim = Simulation(rogue, s.dst, s.apex, s.leg1, s.leg2, s.alpha, s.beta, s.gamma)
    message = f"invalid game: successor at unknown triple {(h, h, h)!r}"
    for kind, value in (("game", rogue), ("simulation", sim)):
        with pytest.raises(ValueError) as refused:
            dump_document(kind, value)
        assert str(refused.value) == message


def test_shared_table_keeps_large_documents_small():
    # version 1 wrote comul_sim(COIN, 3) in 4.24 MB, each element in full at
    # every occurrence; with one table it is under 0.2 MB
    s = comul_sim(COIN, 3)
    text = dump_document("simulation", s, False)
    assert len(text) < 200_000
    assert load_document(text) == ("simulation", s)


def test_table_order_does_not_depend_on_insertion_order():
    # stray rows bring elements no game or apex holds; they must still enter
    # the table in an order fixed by the value, not by the dicts
    s = max_simulation(COIN, COIN)
    strays = [((atom(f"ghost{n}"), atom("flip")), atom(f"move{n}")) for n in range(4)]
    texts = set()
    for rows in (strays, strays[::-1]):
        alpha = dict(rows)
        alpha.update(s.alpha)
        sim = Simulation(src=s.src, dst=s.dst, apex=s.apex, leg1=s.leg1, leg2=s.leg2,
                         alpha=alpha, beta=s.beta, gamma=s.gamma)
        texts.add(dump_document("simulation", sim, False))
    assert len(texts) == 1
    text, = texts
    assert dump_document("simulation", load_document(text)[1], False) == text


def test_region_documents_round_trip():
    r = alfred_region(COIN)
    kind, back = load_document(dump_document("region", r, False))
    assert kind == "region" and back == r


def test_report_documents_round_trip():
    report = {"suite": "category", "seed": 7, "checks": [
        {"name": "x", "ok": True, "details": ""},
        {"name": "y", "ok": False, "details": "because"},
    ]}
    kind, back = load_document(dump_document("report", report, False))
    assert kind == "report" and back == report


def test_dump_is_deterministic_and_compact():
    s = max_simulation(COIN, TRAP)
    once = dump_document("simulation", s, False)
    again = dump_document("simulation", s, False)
    assert once == again
    assert once.endswith("\n")
    assert "  " not in once.splitlines()[0]


def test_pretty_and_compact_agree_after_parsing():
    g = ALL_FIXTURES["trap"]
    compact = load_document(dump_document("game", g, False))
    pretty = load_document(dump_document("game", g, True))
    assert compact == pretty


def test_key_order_does_not_matter_when_loading():
    text = dump_document("game", COIN, False)
    shuffled = json.dumps(json.loads(text), sort_keys=False, indent=2)
    kind, back = load_document(shuffled)
    assert back == COIN
    # and re-dumping restores the canonical bytes
    assert dump_document("game", back, False) == text


def _set(path, value):
    def mangle(doc):
        *parents, last = path
        target = doc["payload"]
        for step in parents:
            target = target[step]
        target[last] = value
    return mangle


def _rekey(table, old, new):
    def mangle(doc):
        rows = doc["payload"][table]
        rows[new] = rows.pop(old)
    return mangle


# elements 0-4 of max_simulation(COIN, COIN) are atoms, 5-8 its apex pairs
MALFORMED_V2 = {
    "index out of range": (_set(("apex", 0), 9), "payload.apex[0]"),
    "negative index": (_set(("gamma", "5,2,3"), -1), "payload.gamma[5,2,3]"),
    "index is text": (_set(("alpha", "5,2"), "2"), "payload.alpha[5,2]"),
    "index is a float": (_set(("src", "states", 1), 1.0), "payload.src.states[1]"),
    "index is a bool": (_set(("leg1", "5"), True), "payload.leg1[5]"),
    "entry points at itself": (_set(("elements", 5), {"pair": [5, 0]}),
                               "payload.elements[5].pair[0]"),
    "entry points later": (_set(("elements", 5), {"pair": [0, 6]}),
                           "payload.elements[5].pair[1]"),
    "entry index is text": (_set(("elements", 6), {"tuple": ["0"]}),
                            "payload.elements[6].tuple[0]"),
    "unknown composite tag": (_set(("elements", 5), {"set": [0, 1]}), "payload.elements[5]"),
    "key with too few indices": (_rekey("beta", "5,2,3", "5,2"), "payload.beta key '5,2'"),
    "key with too many indices": (_rekey("leg2", "6", "6,0"), "payload.leg2 key '6,0'"),
    "key out of range": (_rekey("alpha", "8,2", "9,2"), "payload.alpha key '9,2'"),
    "key not an index": (_rekey("alpha", "8,2", "8,x"), "payload.alpha key '8,x'"),
    "no element table": (lambda doc: doc["payload"].pop("elements"), "payload"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_malformed_v2_names_its_path(name):
    mangle, path = MALFORMED_V2[name]
    doc = json.loads(dump_document("simulation", max_simulation(COIN, COIN), False))
    mangle(doc)
    with pytest.raises(DocumentError) as raised:
        load_document(json.dumps(doc))
    assert str(raised.value).startswith(path), str(raised.value)


def test_version_1_documents_are_refused():
    for kind, value in (("game", COIN), ("simulation", max_simulation(COIN, TRAP))):
        with pytest.raises(DocumentError, match="format_version"):
            load_document(dump_v1(kind, value))


def test_malformed_documents_are_rejected():
    good = dump_document("game", COIN, False)
    payload = json.loads(good)
    for mangle in (
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="gamey"),
        lambda d: d.update(format_version=99),
        lambda d: d.pop("payload"),
        lambda d: d["payload"].pop("states"),
    ):
        doc = json.loads(good)
        mangle(doc)
        with pytest.raises(DocumentError):
            load_document(json.dumps(doc))
    with pytest.raises(DocumentError):
        load_document("[1, 2, 3]")
    with pytest.raises(DocumentError):
        load_document("{{{")


def test_report_checks_are_validated_strictly():
    bad = {"suite": "s", "seed": 0,
           "checks": [{"name": "x", "ok": True, "details": "", "extra": 1}]}
    with pytest.raises(DocumentError):
        load_document(dump_document("report", bad, False))
    missing = {"suite": "s", "seed": 0, "checks": [{"name": "x", "ok": True}]}
    with pytest.raises(DocumentError):
        load_document(dump_document("report", missing, False))


def test_wrong_kind_payload_mismatch():
    text = dump_document("game", COIN, False)
    doc = json.loads(text)
    doc["kind"] = "simulation"
    with pytest.raises(DocumentError):
        load_document(json.dumps(doc))
