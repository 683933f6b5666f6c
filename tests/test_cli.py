"""The command-line surface: documents in, documents out, honest exit codes."""

import json
import time

import pytest

from polygame.cli import EXIT_BAD_INPUT, EXIT_NO, EXIT_REFUSED
from polygame.documents import dump_document, load_document
from polygame.exponential import tensor_power
from polygame.fixtures import COIN, TRAP, UNIT
from polygame.laws import failing, random_simulation
from polygame.monoidal import tensor
from polygame.simulation import identity_sim
from polygame.synthesis import max_simulation

from conftest import dump_v1, run_cli as invoke


def write(tmp_path, name, kind, value):
    path = tmp_path / name
    path.write_text(dump_document(kind, value, False))
    return str(path)


def test_game_constructors_emit_valid_documents():
    for args in (["tensor", "coin", "trap"], ["oplus", "coin", "trap"],
                 ["lollipop", "coin", "trap"], ["dual", "coin"],
                 ["power", "coin", "2"], ["bang", "coin", "2"]):
        res = invoke(*args)
        assert res.exit_code == 0, (args, res.stderr)
        kind, _ = load_document(res.stdout)
        assert kind == "game"


def test_validate_reemits_canonical_bytes(tmp_path):
    res = invoke("tensor", "coin", "unit")
    path = tmp_path / "t.json"
    path.write_text(res.stdout)
    once = invoke("validate", str(path))
    assert once.exit_code == 0
    assert once.stdout == res.stdout
    # loading a reshuffled document still lands on the same bytes
    shuffled = json.dumps(json.loads(res.stdout), indent=2)
    path.write_text(shuffled)
    again = invoke("validate", str(path))
    assert again.exit_code == 0
    assert again.stdout == res.stdout


def test_missing_file_and_bad_document_exit_one(tmp_path):
    res = invoke("dual", "no-such-file")
    assert res.exit_code == EXIT_BAD_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    res = invoke("validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    bad.write_bytes(b"\xff")
    res = invoke("validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stderr.startswith(f"{bad}: ")


def test_usage_error_exits_one():
    res = invoke("factor-power")
    assert res.exit_code == EXIT_BAD_INPUT


def test_oversized_construction_exits_two():
    res = invoke("power", "coin", "9")
    assert res.exit_code == EXIT_REFUSED
    assert "ceiling" in res.stderr


def test_check_sim_reports_and_exit_codes(tmp_path):
    good = write(tmp_path, "id.json", "simulation", identity_sim(COIN))
    res = invoke("check-sim", good)
    assert res.exit_code == 0
    kind, report = load_document(res.stdout)
    assert kind == "report"
    assert all(c["ok"] for c in report["checks"])

    s = max_simulation(COIN, COIN)
    from polygame.simulation import Simulation
    broken = Simulation(src=s.src, dst=s.dst, apex=s.apex, leg1=s.leg1,
                        leg2=s.leg2, alpha=s.alpha, beta={}, gamma=s.gamma)
    bad = write(tmp_path, "bad.json", "simulation", broken)
    res = invoke("check-sim", bad)
    assert res.exit_code == EXIT_NO
    kind, report = load_document(res.stdout)
    assert any(not c["ok"] for c in report["checks"])


def test_equiv_exit_codes_and_modes(tmp_path, rng):
    a = write(tmp_path, "a.json", "simulation", identity_sim(COIN))
    b = write(tmp_path, "b.json", "simulation", identity_sim(COIN))
    res = invoke("equiv", a, b, "--mode", "full")
    assert res.exit_code == 0
    res = invoke("equiv", a, b, "--mode", "span")
    assert res.exit_code == 0

    fat = random_simulation(rng, COIN, COIN, dup_chance=1.0)
    c = write(tmp_path, "c.json", "simulation", fat)
    res = invoke("equiv", a, c)
    assert res.exit_code == EXIT_NO

    # refusal is only for instances whose answer would need a search
    res = invoke("equiv", a, b, "--search-bound", "0")
    assert res.exit_code == EXIT_REFUSED


def test_compose_pipeline(tmp_path):
    s = write(tmp_path, "s.json", "simulation", max_simulation(COIN, COIN))
    t = write(tmp_path, "t.json", "simulation", identity_sim(COIN))
    res = invoke("compose", s, t)
    assert res.exit_code == 0
    kind, out = load_document(res.stdout)
    assert kind == "simulation" and len(out.apex) == 4


def test_synth_and_regions():
    res = invoke("synth", "coin", "--side", "alfred")
    assert res.exit_code == 0
    kind, sim = load_document(res.stdout)
    assert kind == "simulation" and len(sim.apex) > 0

    res = invoke("synth", "trap", "--side", "alfred", "--region")
    assert res.exit_code == 0
    kind, region = load_document(res.stdout)
    assert kind == "region" and len(region.states) == 0

    res = invoke("synth", "trap", "--side", "dominic", "--region")
    kind, region = load_document(res.stdout)
    assert len(region.states) == 2


def test_max_sim_command():
    res = invoke("max-sim", "coin", "coin")
    assert res.exit_code == 0
    kind, sim = load_document(res.stdout)
    assert kind == "simulation" and len(sim.apex) == 4


def test_curry_uncurry_pipeline(tmp_path, rng):
    s = random_simulation(rng, tensor(COIN, UNIT), TRAP)
    spath = write(tmp_path, "s.json", "simulation", s)
    cur = invoke("curry", spath, "coin", "unit")
    assert cur.exit_code == 0, cur.stderr
    cpath = tmp_path / "cur.json"
    cpath.write_text(cur.stdout)
    back = invoke("uncurry", str(cpath), "coin", "unit", "trap")
    assert back.exit_code == 0
    assert back.stdout == dump_document("simulation", s, False)


def test_laws_command_emits_green_report():
    res = invoke("laws", "--suite", "category", "--seed", "3")
    assert res.exit_code == 0
    kind, report = load_document(res.stdout)
    assert kind == "report"
    assert report["suite"] == "category" and report["seed"] == 3
    assert failing(report["checks"]) == []


def test_laws_command_is_deterministic():
    one = invoke("laws", "--suite", "biproduct", "--seed", "5")
    two = invoke("laws", "--suite", "biproduct", "--seed", "5")
    assert one.stdout == two.stdout
    assert one.exit_code == two.exit_code == 0


def test_laws_unknown_suite_exits_one():
    res = invoke("laws", "--suite", "nonsense")
    assert res.exit_code == EXIT_BAD_INPUT


def test_pretty_format_flag():
    res = invoke("dual", "coin", "--format", "pretty")
    assert res.exit_code == 0
    assert res.stdout.count("\n") > 3
    kind, _ = load_document(res.stdout)
    assert kind == "game"


def test_corrupted_gamma_document_is_answered_no(tmp_path):
    # the corruption the benchmark's cli workload writes to bad.json: the first
    # gamma row (by key text) is rerouted to another apex entry.  The document
    # stays well-formed; only the simulation condition breaks.
    doc = json.loads(dump_document("simulation", max_simulation(COIN, COIN), False))
    payload = doc["payload"]
    key = min(payload["gamma"])
    payload["gamma"][key] = [p for p in payload["apex"] if p != payload["gamma"][key]][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    assert load_document(bad.read_text())[0] == "simulation"
    res = invoke("check-sim", str(bad))
    assert res.exit_code == EXIT_NO
    _, report = load_document(res.stdout)
    assert any("gamma" in c["details"] for c in report["checks"] if not c["ok"])
    res = invoke("validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    assert "invalid simulation" in res.stderr


def test_version_1_document_exits_one(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(dump_v1("game", COIN))
    res = invoke("validate", str(old))
    assert res.exit_code == EXIT_BAD_INPUT
    assert "format_version" in res.stderr


@pytest.fixture
def sims(tmp_path, rng):
    """Simulation documents the commands below read, by name."""
    return {
        "pair_to_trap": write(tmp_path, "s.json", "simulation",
                              random_simulation(rng, tensor(COIN, UNIT), TRAP)),
        "id_coin2": write(tmp_path, "p.json", "simulation", identity_sim(tensor_power(COIN, 2))),
        "id_coin": write(tmp_path, "c.json", "simulation", identity_sim(COIN)),
        "id_trap": write(tmp_path, "t.json", "simulation", identity_sim(TRAP)),
    }


@pytest.mark.parametrize("args", [
    ["lollipop", "coin", "trap"],
    ["dual", "coin"],
    ["power", "coin", "2"],
    ["bang", "coin", "2"],
    ["curry", "{pair_to_trap}", "coin", "unit"],
    ["factor-power", "{id_coin2}", "coin", "--copies", "2"],
], ids=lambda args: args[0])
def test_every_builder_refuses_past_the_ceiling(sims, args):
    res = invoke(*(a.format(**sims) for a in args), "--max-enum", "1")
    assert res.exit_code == EXIT_REFUSED, res.stderr
    assert "ceiling" in res.stderr


@pytest.mark.parametrize("args", [["power", "coin", "30"], ["bang", "coin", "30"]],
                         ids=lambda args: args[0])
def test_thirty_copies_are_refused_at_once(args):
    start = time.perf_counter()
    res = invoke(*args)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == EXIT_REFUSED and res.stdout == ""
    assert "ceiling 10000" in res.stderr


def test_factoring_through_ten_copies_is_refused_at_once(tmp_path):
    # ten copies have 10! reshuffles, each needing a witness, charged after
    # the 3 of the ordered power
    ident = write(tmp_path, "id.json", "simulation", identity_sim(tensor_power(UNIT, 10)))
    start = time.perf_counter()
    res = invoke("factor-power", ident, "unit", "--copies", "10")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == EXIT_REFUSED and res.stdout == ""
    assert res.stderr == "all_perms (cumulative): would enumerate 3628803 objects (ceiling 10000)\n"


def test_factoring_through_eight_copies_follows_max_enum(tmp_path):
    # the 8! = 40320 reshuffles are charged to --max-enum, not to the default,
    # in one total with the ordered power (3) and the power (4) they compare
    ident = write(tmp_path, "id8.json", "simulation", identity_sim(tensor_power(UNIT, 8)))
    refused = invoke("factor-power", ident, "unit", "--copies", "8")
    assert refused.exit_code == EXIT_REFUSED and refused.stdout == ""
    assert refused.stderr == "all_perms (cumulative): would enumerate 40323 objects (ceiling 10000)\n"
    short = invoke("factor-power", ident, "unit", "--copies", "8", "--max-enum", "40326")
    assert short.exit_code == EXIT_REFUSED and short.stdout == ""
    assert short.stderr == "power (cumulative): would enumerate 40327 objects (ceiling 40326)\n"
    res = invoke("factor-power", ident, "unit", "--copies", "8", "--max-enum", "40327")
    assert res.exit_code == 0, res.stderr
    (tmp_path / "f8.json").write_text(res.stdout)
    checked = invoke("check-sim", str(tmp_path / "f8.json"))
    assert checked.exit_code == 0 and not failing(json.loads(checked.stdout)["payload"]["checks"])


@pytest.mark.parametrize("args, message", [
    (["compose", "{id_coin}", "{id_trap}"], "compose: s.dst and t.src are different games"),
    (["curry", "{id_coin}", "coin", "unit"], "curry: src is not the tensor of the given factors"),
    (["uncurry", "{id_coin}", "coin", "unit", "trap"],
     "uncurry: dst is not over the states of the given factors"),
    (["uncurry", "{id_coin}", "trap", "unit", "coin"], "uncurry: src is not the given first factor"),
    (["factor-power", "{id_coin}", "coin", "--copies", "2"],
     "factor_through_power: target is not the ordered power"),
], ids=["compose", "curry", "uncurry-dst", "uncurry-src", "factor-power"])
def test_endpoint_mismatch_exits_one_with_its_message(sims, args, message):
    res = invoke(*(a.format(**sims) for a in args))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stderr == message + "\n"


@pytest.mark.parametrize("args, message", [
    (["power", "coin", "-1"], "power must be nonnegative"),
    (["bang", "coin", "-1"], "bound must be nonnegative"),
    (["factor-power", "{id_coin2}", "coin", "--copies", "-1"], "power must be nonnegative"),
], ids=["power", "bang", "factor-power"])
def test_negative_counts_exit_one_with_the_builders_message(sims, args, message):
    res = invoke(*(a.format(**sims) for a in args))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stdout == ""
    assert res.stderr == message + "\n"


def test_version_prints_name_and_version():
    res = invoke("--version")
    assert res.exit_code == 0
    assert res.stdout == "polygame, version 0.1.0\n"


COMMANDS = ["validate", "tensor", "oplus", "lollipop", "dual", "power", "bang", "compose",
            "check-sim", "equiv", "curry", "uncurry", "synth", "max-sim", "factor-power",
            "laws"]


@pytest.mark.parametrize("args", [["--help"]] + [[c, "--help"] for c in COMMANDS],
                         ids=lambda args: args[0])
def test_help_exits_zero(args):
    res = invoke(*args)
    assert res.exit_code == 0
    assert res.stdout.startswith("usage: polygame")


@pytest.mark.parametrize("args", [
    ["bang", "coin"],
    [],
    ["nope", "coin"],
    ["dual", "coin", "--bogus"],
    ["dual", "coin", "--form", "pretty"],
    ["dual", "coin", "--format", "bogus"],
    ["dual", "coin", "--max-enum", "x"],
    ["power", "coin", "two"],
    ["synth", "coin"],
    ["laws", "--suite", "nope"],
    ["dual", "coin", "--max-enum", "-1"],
    ["equiv", "SIM", "SIM", "--search-bound", "-1"],
], ids=["missing-argument", "no-command", "unknown-command", "unknown-option",
        "abbreviated-option", "bad-format", "bad-max-enum", "bad-int", "synth-without-side",
        "unknown-suite", "negative-max-enum", "negative-search-bound"])
def test_bad_command_lines_exit_one_with_empty_stdout(args, tmp_path):
    sim = write(tmp_path, "sim.json", "simulation", identity_sim(COIN))
    res = invoke(*(sim if arg == "SIM" else arg for arg in args))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stdout == ""
    assert res.stderr


def test_unknown_suite_names_the_suites():
    res = invoke("laws", "--suite", "nope")
    assert res.stderr == ("unknown suite 'nope'; choose from biproduct, category, "
                          "exponential, monoidal, synthesis\n")


def test_invalid_game_row_inside_a_simulation_is_refused(tmp_path):
    # a successor row the simulation check never reads: (h, h, h) is no triple
    # of the coin, so the source game -- and so the simulation -- is invalid.
    # The encoder refuses to write such a row, so it goes in by hand.
    doc = json.loads(dump_document("simulation", identity_sim(COIN), False))
    h = doc["payload"]["elements"].index("h")
    doc["payload"]["src"]["next"][f"{h},{h},{h}"] = h
    path = tmp_path / "rogue.json"
    path.write_text(json.dumps(doc))
    path = str(path)
    res = invoke("validate", path)
    assert res.exit_code == EXIT_BAD_INPUT
    assert "invalid simulation" in res.stderr and "src: successor at unknown triple" in res.stderr
    res = invoke("check-sim", path)
    assert res.exit_code == EXIT_NO
    _, report = load_document(res.stdout)
    assert report["checks"][0]["details"].startswith("src: successor at unknown triple")
