"""The bundled law suites stay green on fresh seeds (the CLI gates on these)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from polygame.laws import SUITES, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("seed", [0, 11])
def test_suite_passes(suite, seed):
    checks = run_suite(suite, seed)
    failing = [c for c in checks if not c["ok"] and not c["name"].startswith("info:")]
    assert failing == [], failing


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 0)


def test_checks_are_report_shaped():
    for c in run_suite("category", 1):
        assert set(c) == {"name", "ok", "details"}
        assert isinstance(c["name"], str) and isinstance(c["ok"], bool)


# digests of the reports and documents the implementation with structural
# (key-based) element equality and hashing produced for these inputs
FROZEN = {
    "biproduct": "bf6419e649e1803ae669e598d20cae9680d21a92283488defeec4ec00c35e821",
    "category": "23ec004890e07a81fa3f06aaf416afa8ee448d4bee3ffaf9858f47477a501ce8",
    "exponential": "82e68ea495a1f826cb9a4c59e82e293c85d30c576e418423f71756d890cfaf25",
    "monoidal": "7dc7ecba6e815c94d7507028036e5e2d693b81cee241b970310a7e4ad5a0ac8b",
    "synthesis": "c234a766422beba74de02cceb64523d4f9b40b06b30def86e130cf95511f7262",
    "bang": "1a30130ab0fe3d9f1ca538cb332bfd73fe6274d15b9e1d1d4877e6c9d5abb1a0",
    "comul_sim": "7491e3d0d0dbcad5fae1b6142facf591a57bb240a6790c66cb8b6e86c526fd56",
}

DIGESTS = """
import hashlib
from polygame.documents import dump_document
from polygame.exponential import bang, comul_sim
from polygame.fixtures import COIN
from polygame.laws import SUITES, run_suite

for suite in sorted(SUITES):
    h = hashlib.sha256()
    for seed in (0, 11):
        report = {"suite": suite, "seed": seed, "checks": run_suite(suite, seed)}
        h.update(dump_document("report", report).encode())
    print(suite, h.hexdigest())
for name, kind, value in (("bang", "game", bang(COIN, 3)),
                          ("comul_sim", "simulation", comul_sim(COIN, 3))):
    print(name, hashlib.sha256(dump_document(kind, value).encode()).hexdigest())
"""


# Elements hash by identity and strings by the hash seed, so set iteration
# order may differ between processes; two processes under different hash
# seeds must still print the same, pinned bytes.
def test_outputs_frozen_across_hash_seeds():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", DIGESTS], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(dict(line.split() for line in done.stdout.splitlines()))
    assert outputs[0] == outputs[1]
    assert outputs[0] == FROZEN
