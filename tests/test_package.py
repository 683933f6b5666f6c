"""The package namespace: every public name, loaded only when first used.

``import polygame`` runs none of the modules, and the command line loads only
what its command needs, so these checks run in fresh interpreters.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polygame

ROOT = Path(__file__).resolve().parent.parent

# The public names by home module, in the order ``polygame.__all__`` has
# always listed them.
HOMES = {
    "elements": ["Element", "FiniteSet", "atom", "fun", "mset", "pair", "star", "tup"],
    "games": ["FamilySet", "Game", "StateSpan", "carrier_iso", "extend",
              "from_symmetric_game", "make_game", "validate_family", "validate_game",
              "validate_state_span"],
    "fixtures": ["ALL_FIXTURES", "COIN", "EMPTY", "ONEWAY", "TRAP", "UNIT", "unit_game"],
    "limits": ["DEFAULT_MAX_ENUM", "DEFAULT_SEARCH_BOUND", "SearchRefused", "SizeRefused",
               "ceiling"],
    "simulation": ["Simulation", "Span", "SpanIso", "add", "check_simulation", "compose",
                   "equivalent", "identity_sim", "span_compose", "span_embedding",
                   "span_equal", "span_identity", "span_iso", "underlying_span",
                   "validate_span", "zero_sim"],
    "monoidal": ["curry", "dual", "eval_sim", "lollipop", "structural_iso", "tensor",
                 "tensor_sim", "uncurry"],
    "additive": ["adjoint_transpose", "bigoplus", "cofree_game", "copair", "free_game",
                 "injection", "oplus", "pairing", "projection", "zero_game"],
    "exponential": ["all_msets", "all_msets_upto", "all_perms", "all_words", "bang",
                    "bang_sim", "canonical_match", "chat", "comul_sim", "counit_sim",
                    "dereliction_sim", "deriving_sim", "digging_sim", "factor_through_power",
                    "find_symmetry_witnesses", "orbit", "orbit_span", "perm_apply",
                    "perm_inverse", "permutation_transport", "power_game", "section",
                    "section_span", "span_free_monoid_factor", "symmetry_sim", "tensor_power",
                    "transport_square_is_pullback"],
    "synthesis": ["Region", "alfred_region", "alfred_strategy", "dominic_region",
                  "dominic_strategy", "max_simulation", "sim_exists"],
    "documents": ["DocumentError", "FORMAT_VERSION", "dump_document", "load_document"],
}
PUBLIC = [name for names in HOMES.values() for name in names]


def fresh(code: str):
    """Run ``code`` in a new interpreter with src/ importable; its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = "import json, sys\n{}\nprint(json.dumps(sorted(sys.modules)))"


def test_import_polygame_runs_no_module():
    loaded = fresh(LOADED.format("import polygame"))
    assert [m for m in loaded if m.startswith("polygame")] == ["polygame"]


def test_cli_import_leaves_the_builders_unloaded():
    loaded = set(fresh(LOADED.format("import polygame.cli")))
    assert "polygame.cli" in loaded
    unused = {"polygame.laws", "polygame.exponential", "polygame.monoidal",
              "polygame.additive", "click"}
    assert loaded.isdisjoint(unused), loaded & unused


def test_all_lists_the_public_names_in_order():
    assert polygame.__all__ == PUBLIC
    assert len(PUBLIC) == 102


@pytest.mark.parametrize("module", HOMES)
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"polygame.{module}")
    for name in HOMES[module]:
        assert getattr(polygame, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_name():
    dir_names, star_names, same = fresh(
        "import json, polygame\n"
        "listed = dir(polygame)\n"
        "ns = {}\n"
        "exec('from polygame import *', ns)\n"
        "same = all(ns[n] is getattr(polygame, n) for n in polygame.__all__)\n"
        "print(json.dumps([listed, sorted(k for k in ns if k != '__builtins__'), same]))"
    )
    assert set(PUBLIC) <= set(dir_names)
    assert star_names == sorted(PUBLIC)
    assert same


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polygame.no_such_name
    assert not hasattr(polygame, "laws_of_nature")
    with pytest.raises(ImportError):
        from polygame import no_such_name  # noqa: F401


def test_from_polygame_import_a_submodule():
    assert fresh("import json\nfrom polygame import cli\nprint(json.dumps(cli.__name__))") \
        == "polygame.cli"


def test_pyproject_version_matches_the_package():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', text, re.M)
    assert version == polygame.__version__
