"""Command line front end.

Every command reads game/simulation documents (JSON files, or the name of a
built-in fixture where a game is expected), performs one construction, and
writes a single document to stdout.  Output is deterministic byte for byte:
same inputs, same bytes.  Diagnostics go to stderr.

Exit codes: 0 success; 1 bad input (unparsable document, failed validation,
mismatched endpoints); 2 construction refused (an enumeration or search
ceiling was hit); 3 the answer is "no" (a law check failed, a simulation is
invalid, two spans are not equivalent).
"""

from __future__ import annotations

import sys

import click

from .documents import DocumentError, dump_document, load_document
from .exponential import bang, factor_through_power, power_game
from .fixtures import ALL_FIXTURES
from .games import Game, validate_game
from .laws import SUITES, run_suite
from .limits import DEFAULT_MAX_ENUM, DEFAULT_SEARCH_BOUND, SearchRefused, SizeRefused
from .monoidal import curry, dual, lollipop, tensor, uncurry
from .additive import oplus
from .simulation import Simulation, check_simulation, compose, equivalent
from .synthesis import (
    alfred_region,
    alfred_strategy,
    dominic_region,
    dominic_strategy,
    max_simulation,
)

EXIT_BAD_INPUT = 1
EXIT_REFUSED = 2
EXIT_NO = 3

# click exits 2 on malformed command lines, which would collide with
# EXIT_REFUSED; a bad invocation is bad input, same as a bad document.
click.UsageError.exit_code = EXIT_BAD_INPUT


def _die(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _read_document(arg: str, want: str | None = None):
    """Parse the document at path ``arg``; refuse it unless its kind is ``want``."""
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _die(EXIT_BAD_INPUT, f"{arg}: {exc}")
    try:
        kind, value = load_document(text)
    except DocumentError as exc:
        _die(EXIT_BAD_INPUT, f"{arg}: {exc}")
    if want is not None and kind != want:
        _die(EXIT_BAD_INPUT, f"{arg}: expected a {want} document, got {kind!r}")
    return kind, value


_VALIDATORS = {"game": validate_game, "simulation": check_simulation}


def _load(arg: str, want: str | None = None):
    """Read a document as :func:`_read_document` does, and refuse it if its
    kind's validator finds problems."""
    kind, value = _read_document(arg, want)
    problems = _VALIDATORS[kind](value) if kind in _VALIDATORS else []
    if problems:
        _die(EXIT_BAD_INPUT, f"{arg}: invalid {kind}:\n  " + "\n  ".join(problems))
    return kind, value


def _load_game(arg: str) -> Game:
    return ALL_FIXTURES[arg] if arg in ALL_FIXTURES else _load(arg, "game")[1]


def _load_sim(arg: str) -> Simulation:
    return _load(arg, "simulation")[1]


def _emit(kind: str, value, pretty: bool):
    click.echo(dump_document(kind, value, pretty=pretty), nl=False)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["compact", "pretty"]),
    default="compact",
    show_default=True,
    help="JSON layout of the emitted document.",
)

_max_enum_option = click.option(
    "--max-enum",
    type=int,
    default=DEFAULT_MAX_ENUM,
    show_default=True,
    help="Refuse constructions that would enumerate more entries than this.",
)


class _Commands(click.Group):
    """The one place that turns a command's refusal or bad input into its
    exit code: past a ceiling or search bound exits 2, any other ValueError
    (mismatched endpoints, say) exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SizeRefused, SearchRefused) as exc:
            _die(EXIT_REFUSED, str(exc))
        except ValueError as exc:
            _die(EXIT_BAD_INPUT, str(exc))


@click.group(cls=_Commands)
@click.version_option(package_name="polygame")
def main():
    """Finite games, simulations between them, and the laws they satisfy.

    GAME arguments accept either a path to a game document or one of the
    built-in fixtures: unit, coin, trap, oneway, empty.
    """


@main.command()
@click.argument("path")
@_format_option
def validate(path, fmt):
    """Check a document and re-emit it in canonical form."""
    kind, value = _load(path)
    _emit(kind, value, fmt == "pretty")


@main.command(name="tensor")
@click.argument("game1")
@click.argument("game2")
@_format_option
def tensor_cmd(game1, game2, fmt):
    """Both games side by side, one move in each."""
    _emit("game", tensor(_load_game(game1), _load_game(game2)), fmt == "pretty")


@main.command(name="oplus")
@click.argument("game1")
@click.argument("game2")
@_format_option
def oplus_cmd(game1, game2, fmt):
    """Tagged choice of two games."""
    _emit("game", oplus(_load_game(game1), _load_game(game2)), fmt == "pretty")


@main.command(name="lollipop")
@click.argument("game1")
@click.argument("game2")
@_format_option
@_max_enum_option
def lollipop_cmd(game1, game2, fmt, max_enum):
    """The game of translations from GAME1 to GAME2."""
    g = lollipop(_load_game(game1), _load_game(game2), max_enum=max_enum)
    _emit("game", g, fmt == "pretty")


@main.command(name="dual")
@click.argument("game")
@_format_option
@_max_enum_option
def dual_cmd(game, fmt, max_enum):
    """Swap the two players by enumerating answer tables."""
    _emit("game", dual(_load_game(game), max_enum=max_enum), fmt == "pretty")


@main.command(name="power")
@click.argument("game")
@click.argument("copies", type=int)
@_format_option
@_max_enum_option
def power_cmd(game, copies, fmt, max_enum):
    """COPIES unordered copies of GAME."""
    if copies < 0:
        _die(EXIT_BAD_INPUT, "copies must be non-negative")
    g = power_game(_load_game(game), copies, max_enum=max_enum)
    _emit("game", g, fmt == "pretty")


@main.command(name="bang")
@click.argument("game")
@click.argument("bound", type=int)
@_format_option
@_max_enum_option
def bang_cmd(game, bound, fmt, max_enum):
    """Replays of GAME: every unordered batch of up to BOUND copies."""
    if bound < 0:
        _die(EXIT_BAD_INPUT, "bound must be non-negative")
    _emit("game", bang(_load_game(game), bound, max_enum=max_enum), fmt == "pretty")


@main.command(name="compose")
@click.argument("sim1")
@click.argument("sim2")
@_format_option
def compose_cmd(sim1, sim2, fmt):
    """Chain SIM1 after SIM2's source; i.e. run SIM1 then SIM2."""
    _emit("simulation", compose(_load_sim(sim1), _load_sim(sim2)), fmt == "pretty")


@main.command(name="check-sim")
@click.argument("sim")
@_format_option
def check_sim_cmd(sim, fmt):
    """Re-derive every structural obligation of a simulation document."""
    problems = check_simulation(_read_document(sim, "simulation")[1])
    checks = [{"name": "simulation-valid", "ok": not problems, "details": "; ".join(problems)}]
    _emit("report", {"suite": "check-sim", "seed": 0, "checks": checks}, fmt == "pretty")
    if problems:
        sys.exit(EXIT_NO)


@main.command(name="equiv")
@click.argument("sim1")
@click.argument("sim2")
@click.option(
    "--mode",
    type=click.Choice(["full", "span"]),
    default="full",
    show_default=True,
    help="full compares transports as well; span compares apexes over legs only.",
)
@click.option(
    "--search-bound",
    type=int,
    default=DEFAULT_SEARCH_BOUND,
    show_default=True,
    help="Refuse the bijection search above this apex size.",
)
@_format_option
def equiv_cmd(sim1, sim2, mode, search_bound, fmt):
    """Search for an apex bijection identifying two parallel simulations."""
    s = _load_sim(sim1)
    t = _load_sim(sim2)
    wire_mode = "full" if mode == "full" else "span_only"
    iso = equivalent(s, t, wire_mode, search_bound=search_bound)
    details = f"apex={len(s.apex)}"
    checks = [{"name": f"equivalent-{mode}", "ok": iso is not None, "details": details}]
    _emit("report", {"suite": "equiv", "seed": 0, "checks": checks}, fmt == "pretty")
    if iso is None:
        sys.exit(EXIT_NO)


@main.command(name="curry")
@click.argument("sim")
@click.argument("game1")
@click.argument("game2")
@_format_option
@_max_enum_option
def curry_cmd(sim, game1, game2, fmt, max_enum):
    """Turn a simulation out of a side-by-side pair into a translation picker."""
    out = curry(_load_sim(sim), _load_game(game1), _load_game(game2), max_enum=max_enum)
    _emit("simulation", out, fmt == "pretty")


@main.command(name="uncurry")
@click.argument("sim")
@click.argument("game1")
@click.argument("game2")
@click.argument("game3")
@_format_option
def uncurry_cmd(sim, game1, game2, game3, fmt):
    """Inverse of curry; recover the simulation out of the pair."""
    out = uncurry(_load_sim(sim), _load_game(game1), _load_game(game2), _load_game(game3))
    _emit("simulation", out, fmt == "pretty")


@main.command(name="synth")
@click.argument("game")
@click.option(
    "--side",
    type=click.Choice(["alfred", "dominic"]),
    required=True,
    help="Which player a strategy is synthesised for.",
)
@click.option(
    "--region",
    "want_region",
    is_flag=True,
    help="Emit the winning region instead of a strategy simulation.",
)
@_format_option
def synth_cmd(game, side, want_region, fmt):
    """Largest winning region and a canonical strategy over it."""
    g = _load_game(game)
    if want_region:
        region = alfred_region(g) if side == "alfred" else dominic_region(g)
        _emit("region", region, fmt == "pretty")
        return
    strat = alfred_strategy(g) if side == "alfred" else dominic_strategy(g)
    _emit("simulation", strat, fmt == "pretty")


@main.command(name="max-sim")
@click.argument("game1")
@click.argument("game2")
@_format_option
def max_sim_cmd(game1, game2, fmt):
    """The largest relation-shaped simulation between two games."""
    _emit("simulation", max_simulation(_load_game(game1), _load_game(game2)), fmt == "pretty")


@main.command(name="factor-power")
@click.argument("sim")
@click.argument("game")
@click.option("--copies", type=int, required=True, help="How many ordered copies SIM targets.")
@_format_option
@_max_enum_option
def factor_power_cmd(sim, game, copies, fmt, max_enum):
    """Push a reshuffle-invariant map to ordered copies down to the unordered power."""
    s = _load_sim(sim)
    g = _load_game(game)
    if copies < 0:
        _die(EXIT_BAD_INPUT, "copies must be non-negative")
    _emit("simulation", factor_through_power(s, g, copies, max_enum=max_enum), fmt == "pretty")


@main.command(name="laws")
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES)),
    required=True,
    help="Which battery of checks to run.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
def laws_cmd(suite, seed, fmt):
    """Run a seeded law battery and emit its report."""
    checks = run_suite(suite, seed)
    _emit("report", {"suite": suite, "seed": seed, "checks": checks}, fmt == "pretty")
    gating = [c for c in checks if not c["name"].startswith("info:")]
    if any(not c["ok"] for c in gating):
        sys.exit(EXIT_NO)


if __name__ == "__main__":
    main()
