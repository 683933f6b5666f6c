"""The command-line surface: documents in, documents out, honest exit codes."""

import json

import pytest
from click.testing import CliRunner

from polygame.cli import EXIT_BAD_INPUT, EXIT_NO, EXIT_REFUSED, main
from polygame.documents import dump_document, load_document
from polygame.fixtures import COIN, TRAP, UNIT
from polygame.laws import random_simulation
from polygame.simulation import identity_sim
from polygame.synthesis import max_simulation

from conftest import dump_v1


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def write(tmp_path, name, kind, value):
    path = tmp_path / name
    path.write_text(dump_document(kind, value, False))
    return str(path)


def test_game_constructors_emit_valid_documents(runner):
    for args in (["tensor", "coin", "trap"], ["oplus", "coin", "trap"],
                 ["lollipop", "coin", "trap"], ["dual", "coin"],
                 ["power", "coin", "2"], ["bang", "coin", "2"]):
        res = invoke(runner, *args)
        assert res.exit_code == 0, (args, res.stderr)
        kind, _ = load_document(res.stdout)
        assert kind == "game"


def test_validate_reemits_canonical_bytes(runner, tmp_path):
    res = invoke(runner, "tensor", "coin", "unit")
    path = tmp_path / "t.json"
    path.write_text(res.stdout)
    once = invoke(runner, "validate", str(path))
    assert once.exit_code == 0
    assert once.stdout == res.stdout
    # loading a reshuffled document still lands on the same bytes
    shuffled = json.dumps(json.loads(res.stdout), indent=2)
    path.write_text(shuffled)
    again = invoke(runner, "validate", str(path))
    assert again.exit_code == 0
    assert again.stdout == res.stdout


def test_missing_file_and_bad_document_exit_one(runner, tmp_path):
    res = invoke(runner, "dual", "no-such-file")
    assert res.exit_code == EXIT_BAD_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    res = invoke(runner, "validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    bad.write_bytes(b"\xff")
    res = invoke(runner, "validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stderr.startswith(f"{bad}: ")


def test_usage_error_exits_one(runner):
    res = invoke(runner, "factor-power")
    assert res.exit_code == EXIT_BAD_INPUT


def test_oversized_construction_exits_two(runner):
    res = invoke(runner, "power", "coin", "9")
    assert res.exit_code == EXIT_REFUSED
    assert "ceiling" in res.stderr


def test_check_sim_reports_and_exit_codes(runner, tmp_path):
    good = write(tmp_path, "id.json", "simulation", identity_sim(COIN))
    res = invoke(runner, "check-sim", good)
    assert res.exit_code == 0
    kind, report = load_document(res.stdout)
    assert kind == "report"
    assert all(c["ok"] for c in report["checks"])

    s = max_simulation(COIN, COIN)
    from polygame.simulation import Simulation
    broken = Simulation(src=s.src, dst=s.dst, apex=s.apex, leg1=s.leg1,
                        leg2=s.leg2, alpha=s.alpha, beta={}, gamma=s.gamma)
    bad = write(tmp_path, "bad.json", "simulation", broken)
    res = invoke(runner, "check-sim", bad)
    assert res.exit_code == EXIT_NO
    kind, report = load_document(res.stdout)
    assert any(not c["ok"] for c in report["checks"])


def test_equiv_exit_codes_and_modes(runner, tmp_path, rng):
    a = write(tmp_path, "a.json", "simulation", identity_sim(COIN))
    b = write(tmp_path, "b.json", "simulation", identity_sim(COIN))
    res = invoke(runner, "equiv", a, b, "--mode", "full")
    assert res.exit_code == 0
    res = invoke(runner, "equiv", a, b, "--mode", "span")
    assert res.exit_code == 0

    fat = random_simulation(rng, COIN, COIN, dup_chance=1.0)
    c = write(tmp_path, "c.json", "simulation", fat)
    res = invoke(runner, "equiv", a, c)
    assert res.exit_code == EXIT_NO

    # refusal is only for instances whose answer would need a search
    res = invoke(runner, "equiv", a, b, "--search-bound", "0")
    assert res.exit_code == EXIT_REFUSED


def test_compose_pipeline(runner, tmp_path):
    s = write(tmp_path, "s.json", "simulation", max_simulation(COIN, COIN))
    t = write(tmp_path, "t.json", "simulation", identity_sim(COIN))
    res = invoke(runner, "compose", s, t)
    assert res.exit_code == 0
    kind, out = load_document(res.stdout)
    assert kind == "simulation" and len(out.apex) == 4


def test_synth_and_regions(runner):
    res = invoke(runner, "synth", "coin", "--side", "alfred")
    assert res.exit_code == 0
    kind, sim = load_document(res.stdout)
    assert kind == "simulation" and len(sim.apex) > 0

    res = invoke(runner, "synth", "trap", "--side", "alfred", "--region")
    assert res.exit_code == 0
    kind, region = load_document(res.stdout)
    assert kind == "region" and len(region.states) == 0

    res = invoke(runner, "synth", "trap", "--side", "dominic", "--region")
    kind, region = load_document(res.stdout)
    assert len(region.states) == 2


def test_max_sim_command(runner):
    res = invoke(runner, "max-sim", "coin", "coin")
    assert res.exit_code == 0
    kind, sim = load_document(res.stdout)
    assert kind == "simulation" and len(sim.apex) == 4


def test_curry_uncurry_pipeline(runner, tmp_path, rng):
    from polygame.monoidal import tensor

    s = random_simulation(rng, tensor(COIN, UNIT), TRAP)
    spath = write(tmp_path, "s.json", "simulation", s)
    cur = invoke(runner, "curry", spath, "coin", "unit")
    assert cur.exit_code == 0, cur.stderr
    cpath = tmp_path / "cur.json"
    cpath.write_text(cur.stdout)
    back = invoke(runner, "uncurry", str(cpath), "coin", "unit", "trap")
    assert back.exit_code == 0
    assert back.stdout == dump_document("simulation", s, False)


def test_laws_command_emits_green_report(runner):
    res = invoke(runner, "laws", "--suite", "category", "--seed", "3")
    assert res.exit_code == 0
    kind, report = load_document(res.stdout)
    assert kind == "report"
    assert report["suite"] == "category" and report["seed"] == 3
    assert all(c["ok"] for c in report["checks"] if not c["name"].startswith("info:"))


def test_laws_command_is_deterministic(runner):
    one = invoke(runner, "laws", "--suite", "biproduct", "--seed", "5")
    two = invoke(runner, "laws", "--suite", "biproduct", "--seed", "5")
    assert one.stdout == two.stdout
    assert one.exit_code == two.exit_code == 0


def test_laws_unknown_suite_exits_one(runner):
    res = invoke(runner, "laws", "--suite", "nonsense")
    assert res.exit_code == EXIT_BAD_INPUT


def test_pretty_format_flag(runner):
    res = invoke(runner, "dual", "coin", "--format", "pretty")
    assert res.exit_code == 0
    assert res.stdout.count("\n") > 3
    kind, _ = load_document(res.stdout)
    assert kind == "game"


def test_corrupted_gamma_document_is_answered_no(runner, tmp_path):
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
    res = invoke(runner, "check-sim", str(bad))
    assert res.exit_code == EXIT_NO
    _, report = load_document(res.stdout)
    assert any("gamma" in c["details"] for c in report["checks"] if not c["ok"])
    res = invoke(runner, "validate", str(bad))
    assert res.exit_code == EXIT_BAD_INPUT
    assert "invalid simulation" in res.stderr


def test_version_1_document_exits_one(runner, tmp_path):
    old = tmp_path / "old.json"
    old.write_text(dump_v1("game", COIN))
    res = invoke(runner, "validate", str(old))
    assert res.exit_code == EXIT_BAD_INPUT
    assert "format_version" in res.stderr


@pytest.fixture
def sims(tmp_path, rng):
    """Simulation documents the commands below read, by name."""
    from polygame.exponential import tensor_power
    from polygame.monoidal import tensor

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
def test_every_builder_refuses_past_the_ceiling(runner, sims, args):
    res = invoke(runner, *(a.format(**sims) for a in args), "--max-enum", "1")
    assert res.exit_code == EXIT_REFUSED, res.stderr
    assert "ceiling" in res.stderr


@pytest.mark.parametrize("args, message", [
    (["compose", "{id_coin}", "{id_trap}"], "compose: s.dst and t.src are different games"),
    (["curry", "{id_coin}", "coin", "unit"], "curry: src is not the tensor of the given factors"),
    (["uncurry", "{id_coin}", "coin", "unit", "trap"],
     "uncurry: dst is not over the states of the given factors"),
    (["uncurry", "{id_coin}", "trap", "unit", "coin"], "uncurry: src is not the given first factor"),
    (["factor-power", "{id_coin}", "coin", "--copies", "2"],
     "factor_through_power: target is not the ordered power"),
], ids=["compose", "curry", "uncurry-dst", "uncurry-src", "factor-power"])
def test_endpoint_mismatch_exits_one_with_its_message(runner, sims, args, message):
    res = invoke(runner, *(a.format(**sims) for a in args))
    assert res.exit_code == EXIT_BAD_INPUT
    assert res.stderr == message + "\n"
