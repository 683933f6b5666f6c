"""The bundled law suites stay green on fresh seeds (the CLI gates on these)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from polygame.exponential import bang, digging_sim
from polygame.fixtures import COIN, ONEWAY
from polygame.laws import SUITES, Law, _dig_twice, check, failing, run_suite
from polygame.limits import SizeRefused
from polygame.simulation import Simulation


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("seed", [0, 11])
def test_suite_passes(suite, seed):
    checks = run_suite(suite, seed)
    assert failing(checks) == []


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_law_table_names_unique_and_scopes_drawn(suite):
    draw, laws = SUITES[suite]
    names = [law.name for law in laws]
    assert len(set(names)) == len(names)
    scopes = draw(random.Random(0))
    assert {law.scope for law in laws} <= set(scopes)


# a scope no suite draws, through the same loop: the replay game's laws on a
# fixture the exponential suite leaves out
def test_exponential_fixture_laws_hold_on_a_new_scope(monkeypatch):
    _, laws = SUITES["exponential"]
    replay = [law for law in laws if law.scope == "fixtures"]
    assert [law.name for law in replay] == ["replay-comonoid-laws", "extract-prepend-iterate-valid"]
    monkeypatch.setitem(SUITES, "oneway", (lambda rng: {"fixtures": [(ONEWAY, 2)]}, replay))
    assert run_suite("oneway", 0) == [check(law.name, True) for law in replay]


# COIN is the comonad suite's missing fixture: at bound 2 its triple replay
# game is refused under the default ceiling, and a refused case holds vacuously
def test_a_refused_coassociativity_case_is_vacuous_and_counted(monkeypatch):
    laws = [law for law in SUITES["comonad"][1] if law.scope == "replays"]
    with pytest.raises(SizeRefused, match="would enumerate 10030 objects"):
        digging_sim(bang(COIN, 2), 2)
    monkeypatch.setitem(SUITES, "coin", (lambda rng: {"replays": [_dig_twice(COIN, 2),
                                                                  _dig_twice(COIN, 1)]}, laws))
    assert run_suite("coin", 0) == [check("iterate-coassociative", True, "1/2 cases decided")]


# the relabelling is graded by compose with the built iso on some nonempty maps
@pytest.mark.parametrize("seed", [0, 11])
def test_relabelled_composites_are_checked_on_nonempty_maps(seed):
    checks = {c["name"]: c for c in run_suite("comonad", seed)}
    details = checks["relabelled-composite-matches-compose"]["details"]
    nonempty, cases = map(int, details.split()[0].split("/"))
    assert cases == 7 and nonempty > 0


def test_one_failing_case_fails_the_law_and_the_report(monkeypatch):
    laws = [Law("coin-only", "games", lambda g: g is COIN), Law("always", "games", lambda g: True)]
    monkeypatch.setitem(SUITES, "mixed", (lambda rng: {"games": [(COIN,), (ONEWAY,)]}, laws))
    report = run_suite("mixed", 0)
    assert [c["ok"] for c in report] == [False, True]
    assert failing(report) == [check("coin-only", False)]


# one op's work at seed 1000, with every structure map built once, in the one
# direction its law composes; building both directions exceeds both bounds,
# and so does building the coherence isos the comonoid laws relabel through
@pytest.mark.parametrize("suite, sims, betas", [("exponential", 92, 5279), ("monoidal", 124, 852)])
def test_structure_maps_are_built_one_way(monkeypatch, suite, sims, betas):
    built = []
    init = Simulation.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.beta))

    monkeypatch.setattr(Simulation, "__init__", counting)
    run_suite(suite, 1000)
    assert len(built) <= sims and sum(built) <= betas


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 0)


def test_checks_are_report_shaped():
    for c in run_suite("category", 1):
        assert set(c) == {"name", "ok", "details"}
        assert isinstance(c["name"], str) and isinstance(c["ok"], bool)


# digests of the reports and documents the implementation with structural
# (key-based) element equality and hashing produced for these inputs, in
# format_version 1: each value is written and read back as a current document
# and hashed in the reference version 1 encoding of tests/conftest.py
FROZEN = {
    "biproduct": "bf6419e649e1803ae669e598d20cae9680d21a92283488defeec4ec00c35e821",
    "category": "23ec004890e07a81fa3f06aaf416afa8ee448d4bee3ffaf9858f47477a501ce8",
    # pinned when the suite was added, with digging's coassociativity, and
    # re-pinned when it began to gate on the naturality of dereliction and
    # digging and on relabelled composites matching compose
    "comonad": "74edcd6f56d14c8ede599dba55da24daaedca762bbacc098548edc8dcfcfec5f",
    # re-pinned when digging took its groups in the order they occur in the
    # move word, and the suite began to gate on both of its counit laws
    "exponential": "3c2aa04c1215dc16aec73144174e7fe3ac994d78b9d9cd3aff81c1b9cc9cc4b8",
    "monoidal": "7dc7ecba6e815c94d7507028036e5e2d693b81cee241b970310a7e4ad5a0ac8b",
    "synthesis": "c234a766422beba74de02cceb64523d4f9b40b06b30def86e130cf95511f7262",
    "bang": "1a30130ab0fe3d9f1ca538cb332bfd73fe6274d15b9e1d1d4877e6c9d5abb1a0",
    "comul_sim": "7491e3d0d0dbcad5fae1b6142facf591a57bb240a6790c66cb8b6e86c526fd56",
    # the discard map, and a duplication whose copies can reach a dead end
    "counit_sim": "0a093bdb078d89ed5c15b4ddc0acbb31d5e14e710c1853cbb4b619165d98c879",
    "comul_sim:trap": "ba6526d8d31996e0d03cb91d388521445e5c2a3f149891831a1698af8e976ac8",
    # the builders' documents as written by a hand-rolled transport loop in each
    "identity_sim": "5f56e0e9c1bf6272f59c633df35c851ef02a8248b9b917f9052d00a755bc7f40",
    "compose": "90094b8c78bb81b4066add5efff0beb7b484f18ab9da959ea83f1e57d243a222",
    "add": "9d2c7d1deec654b24d566548c56093c392a837061faeda68a6afcd6b55464777",
    "tensor_sim": "60575820d47f4e189801478543564d9632d9a9d597638ec0bb66e07cfb9d6c5c",
    "curry": "9771f86296eeb120e9aef62d872f789c50cf7fd384e920aa2b59c6ecbe2dbb6a",
    "uncurry": "0f55e42182fcd88bc2af99bf9b8bcaf56133f4140199a15eac74ec6484b17c02",
    "assoc": "09788d4b3905b09060ac2d4bad0d7ec043dc7c3142fea6b36bf1c8bf4345c0c7",
    # the other coherence maps, pinned while structural_iso still returned a
    # (forward, back) pair; "assoc" above is that pair's back map, assoc_inv
    "iso:assoc": "1199f5db13b03315255126cf7a464326d10b48a1c58e9dcd3cda4943922b59df",
    "iso:unit_l": "b2c6fe865c73dc89a5901c5cad5cdf51eb4f01c82e5d7cdd23aff75feabe1122",
    "iso:unit_l_inv": "a2e2d8b38652ba5693af348e148606f60b329994eb9a1ef4662e0cf6a2916887",
    "iso:unit_r": "a00cf2d2c2a1609423d6bc5943ad09452aea60c1d6c54e49324bd8089c3b380f",
    "iso:unit_r_inv": "190fec670da7c4ecaa8bc0c82275072b3066aaaec54dc3a3965ddc52a93b1f49",
    "iso:symmetry": "c282b2de651cd5f925529b5e2803894926638b91bd00a3844ed7c9d86a288de3",
    "injection": "65aa4e57088b591b5482782ba496c4ab91c4097c68add5985dbebb4139750c08",
    # re-pinned when the projection became the copair of an identity and a
    # zero map: its apex points are the tagged states of its summand
    "projection": "13c91abca7d00f6ce8255cfb64d66b1d4fdfc990635cc863e248d0fdeea5211e",
    "copair": "bd1af132aa787172c5b5759587a76b3e7c9c9519e97eab0e22797116faa42178",
    "to_sim": "8c8839d962c34e80a7afc1321fca4789ed88b559660b6c23f40e17bd8b755e5e",
    "chat": "7ffbe82c267916740125dbe5a0223727ab8a55c73d0b25fc0b2fb843d570d0ff",
    "factor_through_power": "122bb8cde312a57493fe6b07cace70f6b93c6e0587021e5b586dd3fe84dd24f2",
    "dereliction_sim": "dbaa4d033321fc7ed6463764f6b1102aa92c6d1315bfd146c180157c2154337b",
    # re-pinned when digging stopped dealing copies into empty groups (the
    # empty pool's one-part grouping aside), which made it coassociative
    "digging_sim": "aa487a0f61bcc0ef1bd7182bed89329bf23fd9022d438d9012fda590a3770573",
    "deriving_sim": "0ec565f57feb63d81daf1c3eeeb18da2159013d57397e3795849c99ae3a033d2",
    "bang_sim": "6d95967dba77b650e41d294a636fb368becad4da66b029111fe388b263ba5fee",
    # the game builders' documents as written by a hand-rolled row loop in each
    "tensor": "8be124cc1e229107338d3c99e918db33a172eead66c8d892a2ff53ff08fea3b5",
    "oplus": "d7ce571e1dee99d7e182a2806794d8e6d32f22bf090c1b24bcf9964632de71e1",
    "lollipop": "43edfc34a316e1b5699d65f9c93d35785e0c0d1245a8d6e855632c7010378474",
    "dual": "36afb5a205b04c646ae40d0c15c8ef69233153c3aec5991e3ad7d79c4d3a0fbb",
    "tensor_power": "ece2dd25de94c0ba611ca3bf3159d9a988ad7af93bf4ed7fcf3f2dac4de03890",
    "power_game": "d4b358093eecbc868a54b40793c9fb3224f58fce012f3ca11f8ae7514047101c",
    "from_symmetric_game": "bdce2fd8298b86bea2e9468a9d22c8884a2bc2438a67318bd0d2cfcbb32d8530",
    # the triple tensors of bang(COIN, 2) and their associator, pinned while
    # every row still built its own counter fiber
    "tensor:bp(bpbp)": "7bf2c3d474f053c6bfe8a69ad42c701f7e31a387ba073bd712a0a4f4f7e03ff4",
    "tensor:(bpbp)bp": "95d5a304abf23aa441dc836a2ad22fdce928a619e44ad0334cbc3ff5ae8fb39f",
    "iso:assoc:bp": "51ee7cd2f1ebaed5eb3b7fe1fce07604692741e37aeaa2c49eb410def9626bc8",
}

# the same values' documents in format_version 2 (one shared element table),
# pinned when that format was introduced
FROZEN_V2 = {
    "biproduct": "5f4eb1c5be5bf87ed826258d2ebb24899fb8a9d4ee42526fcf39cc5baa7f4312",
    "category": "11a89cb04ee2a033f7cfda52ca7febda752a088e59c1b894bcaeeec0a192fb35",
    # re-pinned with the comonad entry of FROZEN
    "comonad": "17eb1b809d6602679034c4e21514348e8f53e1941f763af2ac758ca626d298b5",
    "exponential": "32cf6bad45c929b4be3d53184d134c3440df686b20ee8e3b4ff37eab24041aa5",
    "monoidal": "d305b3279ea7eab7bc93184aa0683691888eab7f2e7bd23150393f141beea977",
    "synthesis": "f874f102fdc4c3b3c10f34dd96e3751c02edcbeb4e36bd0d00e0d825213dac83",
    "bang": "a58fd8f073a9eb60280c3ff53b00496e7bdfb382d65c407c7257a37d539dd11c",
    "comul_sim": "7dd4ad9aba8df92c90dba1e526881281bf962bdf022ff1a496d916637ac8727a",
    "counit_sim": "f19a7104641a07c0de4c7475ef27288eb83cdbe8bb9fdab12af13149b7afd41e",
    "comul_sim:trap": "7ce504e118be45db034434aaaccc49702d6368dffbf96c50c014801c79d5694e",
    "identity_sim": "9da23d4837112c22c703a69885dc7d77485e7f94aa1677ddaaae81ae1c70371d",
    "compose": "8942199e419c105bdc374d2ed85c7bf0803ee374557d8756e6a9f4551817bba0",
    "add": "0ff3612c0bbad27375fd12c6598fc454da28295a728d7bfc19aba0f8f8d780b4",
    "tensor_sim": "891980a06648f73d7e1a3681f0b8c75db4f6b4652b428990acaf71c845215cd3",
    "curry": "2d89c925f56a3ff4ecc8e267d73d854fdd032a90d345e6f831afff84453c00ea",
    "uncurry": "509f279e177ee570ff822b17c5a3c7fa600868d1c30816705ca37225b6bf490c",
    "assoc": "f040987efa37ea82d2e7a97c4ffe6db3c2321c1ddb1491d50a7202541a9632e6",
    "iso:assoc": "528932da07712a125df1eebea4d2b09f0ffd48cce2c2ab44fad596f051b5fd72",
    "iso:unit_l": "fdf6cc957cb9af0de88bfd60625d7cda8a2eb010cde538eadb83adcd65b8ee7c",
    "iso:unit_l_inv": "3b98f7a6c1bc2ab62690947188f6c78e2f6ddcb542a356e9451c1555557e46c5",
    "iso:unit_r": "6ec301ab3405e94ec7d89f1eb9ded9c1d96f37ce95abeb994bdc964e4f8e4328",
    "iso:unit_r_inv": "333ed4f144f661351a9f5e0e75201d4115e0217268ba735892873d9a6d18ceca",
    "iso:symmetry": "e132497c1293b0d6783c55d5388fc2ff8e066226f98c8c15825a5e976d7db89a",
    "injection": "cdb7a262adee118aa67452385136a2aedeb2732658524e826365518d2cf135db",
    "projection": "5dc4894c6e7a255978a8454afc826e7e62e5c369ec75baa0cdc1e4ade99ed6d9",
    "copair": "73701337622ed32303a7e8670ec15a538dd6b9b6ae74ba0e387dcc81272a6f13",
    "to_sim": "f5d024042862fd5da914d7556badbf0f84d56d811e169babbd5ea43c9484425a",
    "chat": "2de5fd3df7c9b44c1ff55f978c160a4b0d58c2cbdf91eca990c1e4efd59c2800",
    "factor_through_power": "f035446ebb6ebbf90725d3c4efa75c1d56fc78af9d1b5d01ef24f83d97be298c",
    "dereliction_sim": "7d2fac71909fe16b1cc56e15c87be2389e44bafeebec7e36e984faf1d0e15c59",
    "digging_sim": "00bc5d510f36f106ba32ea8475ccc2c9e35a38740341251b46e9eb2add4be711",
    "deriving_sim": "7f54261f0d1214143f171bb394ba399eb93d3b6b3436b1d2139a88d93f3bd776",
    "bang_sim": "c213999b140de1340ceeaa151ac7257cf6b071ab690e670b96bc50cd48981d6c",
    "tensor": "230fe2922146664bc6632f9c919278e5e89bd7ac2d1089145b86850a9ef7fadd",
    "oplus": "cf7a7e48f3975a7d660c889c8b0a1ceb9213aef73c1813c102cfedd41d971e52",
    "lollipop": "2f61cda2f213ec8dda8e23965d262246ea8d6b1b334901777d5e89303cf5346c",
    "dual": "842398280698e8ec32fd79a9497b17cbc4d9ac863be96075011a846a2b7cd683",
    "tensor_power": "91238617a277a36bf0b0697a9b8371e773036c7808a7277de223b728d181dd89",
    "power_game": "6355d407441f63b085cccebe3298613df9d8a859673c84c853c97f9c85407559",
    "from_symmetric_game": "2bca84612d3002b2ee75d3f0bab74d4bf72c126ee65154f5feafeca07e0f0747",
    "tensor:bp(bpbp)": "826b8a0b714d249b3c218044aaf71a30525381cb6c783f68f39d5b4d6734a154",
    "tensor:(bpbp)bp": "a7edcf401ed1412a37f053ef57998ef2284bf734cf213cecea46a0e1501d7416",
    "iso:assoc:bp": "eab0b3b7ca5e611b819fca8c669773689c4947254a3e71b00146652a842780a5",
}

DIGESTS = """
import hashlib
import random
from conftest import dump_v1
from polygame.additive import adjoint_transpose, copair, injection, oplus, projection
from polygame.documents import dump_document, load_document
from polygame.elements import FiniteSet, atom
from polygame.exponential import (bang, bang_sim, chat, comul_sim, counit_sim,
                                  dereliction_sim, deriving_sim, digging_sim, factor_through_power,
                                  power_game, tensor_power)
from polygame.fixtures import COIN, TRAP, UNIT
from polygame.games import StateSpan, from_symmetric_game
from polygame.laws import SUITES, random_simulation, run_suite, symmetrize_over_power
from polygame.monoidal import (curry, dual, lollipop, structural_iso, tensor, tensor_sim,
                               uncurry)
from polygame.simulation import add, compose, identity_sim, underlying_span
from polygame.synthesis import max_simulation

# the version 1 and the current digest of the values' documents
def digests(name, kind, values):
    v1, now = hashlib.sha256(), hashlib.sha256()
    for value in values:
        text = dump_document(kind, value)
        _, back = load_document(text)
        v1.update(dump_v1(kind, back).encode())
        now.update(text.encode())
    print(name, v1.hexdigest(), now.hexdigest())

for suite in sorted(SUITES):
    digests(suite, "report", [{"suite": suite, "seed": seed, "checks": run_suite(suite, seed)}
                              for seed in (0, 11)])
digests("bang", "game", [bang(COIN, 3)])
digests("comul_sim", "simulation", [comul_sim(COIN, 3)])
digests("counit_sim", "simulation", [counit_sim(COIN, 2)])
digests("comul_sim:trap", "simulation", [comul_sim(TRAP, 2)])

# one small instance of every simulation builder that writes transports
ms = max_simulation(COIN, COIN)
tc = max_simulation(TRAP, COIN)
u = random_simulation(random.Random(3), COIN, tensor_power(COIN, 2))
cur = curry(random_simulation(random.Random(5), tensor(COIN, TRAP), COIN), COIN, TRAP)
sims = {
    "identity_sim": identity_sim(TRAP),
    "compose": compose(tc, ms),
    "add": add(ms, identity_sim(COIN)),
    "tensor_sim": tensor_sim(ms, identity_sim(TRAP)),
    "curry": cur,
    "uncurry": uncurry(cur, COIN, TRAP, COIN),
    "assoc": structural_iso("assoc_inv", COIN, TRAP, UNIT),
    "iso:assoc": structural_iso("assoc", COIN, TRAP, UNIT),
    "iso:unit_l": structural_iso("unit_l", TRAP),
    "iso:unit_l_inv": structural_iso("unit_l_inv", TRAP),
    "iso:unit_r": structural_iso("unit_r", COIN),
    "iso:unit_r_inv": structural_iso("unit_r_inv", COIN),
    "iso:symmetry": structural_iso("symmetry", COIN, TRAP),
    "injection": injection(COIN, TRAP, 1),
    "projection": projection(COIN, TRAP, 2),
    "copair": copair(ms, tc),
    "to_sim": adjoint_transpose("right", "to_sim", underlying_span(ms), COIN.states, COIN),
    "chat": chat(COIN, 2),
    "factor_through_power": factor_through_power(symmetrize_over_power(u, COIN, 2), COIN, 2),
    "dereliction_sim": dereliction_sim(COIN, 2),
    "digging_sim": digging_sim(COIN, 2),
    "deriving_sim": deriving_sim(TRAP, 2),
    "bang_sim": bang_sim(dereliction_sim(COIN, 1), 2),
}
for name, s in sims.items():
    digests(name, "simulation", [s])

# one small instance of every game builder that writes rows
p, q, a, b, d, e = map(atom, "pqabde")
pq = FiniteSet([p, q])
edges = StateSpan(pq, {p: FiniteSet([a, b]), q: FiniteSet([a])},
                  {(p, a): q, (p, b): p, (q, a): p})
answers = StateSpan(pq, {p: FiniteSet([d, e]), q: FiniteSet([d])},
                    {(p, d): p, (p, e): q, (q, d): q})
games = {
    "tensor": tensor(COIN, TRAP),
    "oplus": oplus(COIN, TRAP),
    "lollipop": lollipop(COIN, TRAP),
    "dual": dual(TRAP),
    "tensor_power": tensor_power(TRAP, 2),
    "power_game": power_game(TRAP, 2),
    "from_symmetric_game": from_symmetric_game(edges, answers),
}
for name, g in games.items():
    digests(name, "game", [g])

# the triple tensors of bp = bang(COIN, 2), 9,261 successors each, and the
# coherence map between them
bp = bang(COIN, 2)
digests("tensor:bp(bpbp)", "game", [tensor(bp, tensor(bp, bp))])
digests("tensor:(bpbp)bp", "game", [tensor(tensor(bp, bp), bp)])
digests("iso:assoc:bp", "simulation", [structural_iso("assoc", bp, bp, bp)])
"""


# Elements hash by identity and strings by the hash seed, so set iteration
# order may differ between processes; two processes under different hash
# seeds must still print the same, pinned bytes.
def test_outputs_frozen_across_hash_seeds():
    tests = Path(__file__).resolve().parent
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run([sys.executable, "-c", DIGESTS], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append({name: rest for name, *rest in map(str.split, done.stdout.splitlines())})
    assert outputs[0] == outputs[1]
    assert {name: v1 for name, (v1, _) in outputs[0].items()} == FROZEN
    assert {name: now for name, (_, now) in outputs[0].items()} == FROZEN_V2
