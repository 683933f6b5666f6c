"""Command line front end.

Every command reads game/simulation documents (JSON files, or the name of a
built-in fixture where a game is expected), performs one construction, and
writes a single document to stdout.  Output is deterministic byte for byte:
same inputs, same bytes.  Diagnostics go to stderr.

Exit codes: 0 success; 1 bad input (unparsable document, failed validation,
mismatched endpoints, a malformed command line); 2 construction refused (an
enumeration or search ceiling was hit); 3 the answer is "no" (a law check
failed, a simulation is invalid, two spans are not equivalent).

The parser is the standard library's ``argparse``, and each command imports
the builders it runs inside its body, so a call loads only what its command
needs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .documents import DocumentError, dump_document, load_document
from .fixtures import ALL_FIXTURES
from .games import Game, validate_game
from .limits import DEFAULT_MAX_ENUM, DEFAULT_SEARCH_BOUND, SearchRefused, SizeRefused, ceiling
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


def _die(code: int, message: str):
    print(message, file=sys.stderr)
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


def _emit(kind: str, value, a: argparse.Namespace):
    sys.stdout.write(dump_document(kind, value, pretty=a.format == "pretty"))


class _Parser(argparse.ArgumentParser):
    """A malformed command line is bad input and exits 1: argparse's own 2
    would collide with EXIT_REFUSED.  Options are never abbreviated."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        _die(EXIT_BAD_INPUT, f"{self.prog}: error: {message}")


_MAX_ENUM = ("--max-enum", dict(
    type=int, default=DEFAULT_MAX_ENUM,
    help="Refuse the command's construction, nested builds included, once it would "
         "enumerate more entries than this in all (default: %(default)s).",
))

# command name -> (function, arguments); an argument is a positional name or
# a (flag, add_argument keywords) pair, and every command takes --format.
_COMMANDS: dict = {}


def _command(name: str, *arguments):
    def register(fn):
        _COMMANDS[name] = (fn, arguments)
        return fn
    return register


@_command("validate", "path")
def _validate(a):
    """Check a document and re-emit it in canonical form."""
    _emit(*_load(a.path), a)


@_command("tensor", "game1", "game2")
def _tensor(a):
    """Both games side by side, one move in each."""
    from .monoidal import tensor

    _emit("game", tensor(_load_game(a.game1), _load_game(a.game2)), a)


@_command("oplus", "game1", "game2")
def _oplus(a):
    """Tagged choice of two games."""
    from .additive import oplus

    _emit("game", oplus(_load_game(a.game1), _load_game(a.game2)), a)


@_command("lollipop", "game1", "game2", _MAX_ENUM)
def _lollipop(a):
    """The game of translations from GAME1 to GAME2."""
    from .monoidal import lollipop

    _emit("game", lollipop(_load_game(a.game1), _load_game(a.game2)), a)


@_command("dual", "game", _MAX_ENUM)
def _dual(a):
    """Swap the two players by enumerating answer tables."""
    from .monoidal import dual

    _emit("game", dual(_load_game(a.game)), a)


@_command("power", "game", ("copies", dict(type=int)), _MAX_ENUM)
def _power(a):
    """COPIES unordered copies of GAME."""
    from .exponential import power_game

    _emit("game", power_game(_load_game(a.game), a.copies), a)


@_command("bang", "game", ("bound", dict(type=int)), _MAX_ENUM)
def _bang(a):
    """Replays of GAME: every unordered batch of up to BOUND copies."""
    from .exponential import bang

    _emit("game", bang(_load_game(a.game), a.bound), a)


@_command("compose", "sim1", "sim2")
def _compose(a):
    """Chain SIM1 after SIM2's source; i.e. run SIM1 then SIM2."""
    _emit("simulation", compose(_load_sim(a.sim1), _load_sim(a.sim2)), a)


@_command("check-sim", "sim")
def _check_sim(a):
    """Re-derive every structural obligation of a simulation document."""
    problems = check_simulation(_read_document(a.sim, "simulation")[1])
    checks = [{"name": "simulation-valid", "ok": not problems, "details": "; ".join(problems)}]
    _emit("report", {"suite": "check-sim", "seed": 0, "checks": checks}, a)
    if problems:
        sys.exit(EXIT_NO)


@_command(
    "equiv", "sim1", "sim2",
    ("--mode", dict(choices=("full", "span"), default="full",
                    help="full compares transports as well; span compares apexes over "
                         "legs only (default: %(default)s).")),
    ("--search-bound", dict(type=int, default=DEFAULT_SEARCH_BOUND,
                            help="Refuse the bijection search above this apex size "
                                 "(default: %(default)s).")),
)
def _equiv(a):
    """Search for an apex bijection identifying two parallel simulations."""
    s = _load_sim(a.sim1)
    t = _load_sim(a.sim2)
    wire_mode = "full" if a.mode == "full" else "span_only"
    iso = equivalent(s, t, wire_mode, search_bound=a.search_bound)
    details = f"apex={len(s.apex)}"
    checks = [{"name": f"equivalent-{a.mode}", "ok": iso is not None, "details": details}]
    _emit("report", {"suite": "equiv", "seed": 0, "checks": checks}, a)
    if iso is None:
        sys.exit(EXIT_NO)


@_command("curry", "sim", "game1", "game2", _MAX_ENUM)
def _curry(a):
    """Turn a simulation out of a side-by-side pair into a translation picker."""
    from .monoidal import curry

    g1, g2 = _load_game(a.game1), _load_game(a.game2)
    _emit("simulation", curry(_load_sim(a.sim), g1, g2), a)


@_command("uncurry", "sim", "game1", "game2", "game3")
def _uncurry(a):
    """Inverse of curry; recover the simulation out of the pair."""
    from .monoidal import uncurry

    games = [_load_game(g) for g in (a.game1, a.game2, a.game3)]
    _emit("simulation", uncurry(_load_sim(a.sim), *games), a)


@_command(
    "synth", "game",
    ("--side", dict(choices=("alfred", "dominic"), required=True,
                    help="Which player a strategy is synthesised for.")),
    ("--region", dict(action="store_true",
                      help="Emit the winning region instead of a strategy simulation.")),
)
def _synth(a):
    """Largest winning region and a canonical strategy over it."""
    g = _load_game(a.game)
    if a.region:
        _emit("region", alfred_region(g) if a.side == "alfred" else dominic_region(g), a)
        return
    _emit("simulation", alfred_strategy(g) if a.side == "alfred" else dominic_strategy(g), a)


@_command("max-sim", "game1", "game2")
def _max_sim(a):
    """The largest relation-shaped simulation between two games."""
    _emit("simulation", max_simulation(_load_game(a.game1), _load_game(a.game2)), a)


@_command(
    "factor-power", "sim", "game",
    ("--copies", dict(type=int, required=True, help="How many ordered copies SIM targets.")),
    _MAX_ENUM,
)
def _factor_power(a):
    """Push a reshuffle-invariant map to ordered copies down to the unordered power."""
    from .exponential import factor_through_power

    s = _load_sim(a.sim)
    g = _load_game(a.game)
    _emit("simulation", factor_through_power(s, g, a.copies), a)


@_command(
    "laws",
    ("--suite", dict(required=True, help="Which battery of checks to run: category, "
                                         "monoidal, biproduct, exponential, comonad or "
                                         "synthesis.")),
    ("--seed", dict(type=int, default=0,
                    help="Seed of the battery's random inputs (default: %(default)s).")),
)
def _laws(a):
    """Run a seeded law battery and emit its report."""
    from .laws import failing, run_suite

    checks = run_suite(a.suite, a.seed)
    _emit("report", {"suite": a.suite, "seed": a.seed, "checks": checks}, a)
    if failing(checks):
        sys.exit(EXIT_NO)


def _parse(argv: list[str]):
    """The command named first in ``argv`` and its parsed arguments.

    Only that command's parser is built: the top level reads just the first
    word (or ``--help``/``--version``) and lists the commands in its help.
    """
    top = _Parser(
        prog="polygame",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Finite games, simulations between them, and the laws they satisfy.\n\n"
                    "GAME arguments accept either a path to a game document or one of the\n"
                    "built-in fixtures: unit, coin, trap, oneway, empty.",
        epilog="commands:\n" + "\n".join(f"  {name:<14}{fn.__doc__}"
                                          for name, (fn, _) in _COMMANDS.items()),
    )
    top.add_argument("--version", action="version", version=f"polygame, version {__version__}")
    top.add_argument("command", choices=_COMMANDS, metavar="COMMAND")
    name = top.parse_args(argv[:1]).command
    fn, arguments = _COMMANDS[name]
    sub = _Parser(prog=f"polygame {name}", description=fn.__doc__)
    for arg in arguments:
        flag, kwargs = (arg, {}) if isinstance(arg, str) else arg
        if not flag.startswith("-"):
            kwargs = dict(kwargs, metavar=flag.upper())
        sub.add_argument(flag, **kwargs)
    sub.add_argument("--format", choices=("compact", "pretty"), default="compact",
                     help="JSON layout of the emitted document (default: %(default)s).")
    return fn, sub.parse_args(argv[1:])


def main(args=None, standalone_mode: bool = True):
    """Run one command line (``sys.argv[1:]`` when ``args`` is None).

    A command that takes ``--max-enum`` runs under that :func:`ceiling`.
    The one place that turns a command's refusal or bad input into its exit
    code: past a ceiling or search bound exits 2, any other ValueError
    (mismatched endpoints, an unknown suite) exits 1.  A failing call always
    raises SystemExit; a successful one exits 0 in ``standalone_mode`` and
    returns otherwise.
    """
    run, a = _parse(sys.argv[1:] if args is None else list(args))
    try:
        with ceiling(getattr(a, "max_enum", DEFAULT_MAX_ENUM)):
            run(a)
    except (SizeRefused, SearchRefused) as exc:
        _die(EXIT_REFUSED, str(exc))
    except ValueError as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    if standalone_mode:
        sys.exit(0)


if __name__ == "__main__":
    sys.exit(main())
