"""Finite two-player games, simulations between them, and the laws they obey.

A game is a finite table: positions, moves available at each position,
counters available against each move, and the position play lands in next.
A simulation between two games is itself a finite table -- a span of
positions plus move/counter translations -- and can be checked, composed,
compared, and synthesised mechanically.  Everything in this package is
enumerable and brute-forceable on purpose: the point is to *execute* the
algebra of games (side-by-side play, choice, translation games, duals,
unordered repetition) and verify its laws by exhaustive search at desk
scale, refusing loudly rather than silently truncating when a construction
would blow up.

The public names below live in their home modules and load on first use
(PEP 562), so ``import polygame`` runs none of them and a command line call
loads only the modules its command needs.
"""

__version__ = "0.1.0"

# home module -> the public names it exports, in the order of __all__
_EXPORTS = {
    "elements": "Element FiniteSet atom fun mset pair star tup",
    "games": "FamilySet Game StateSpan carrier_iso extend from_symmetric_game make_game"
             " validate_family validate_game validate_state_span",
    "fixtures": "ALL_FIXTURES COIN EMPTY ONEWAY TRAP UNIT unit_game",
    "limits": "DEFAULT_MAX_ENUM DEFAULT_SEARCH_BOUND SearchRefused SizeRefused ceiling",
    "simulation": "Simulation Span SpanIso add check_simulation compose equivalent identity_sim"
                  " span_compose span_embedding span_equal span_identity span_iso"
                  " underlying_span validate_span zero_sim",
    "monoidal": "curry dual eval_sim lollipop structural_iso tensor tensor_sim uncurry",
    "additive": "adjoint_transpose bigoplus cofree_game copair free_game injection oplus"
                " pairing projection zero_game",
    "exponential": "all_msets all_msets_upto all_perms all_words bang bang_sim canonical_match"
                   " chat comul_sim counit_sim dereliction_sim deriving_sim digging_sim"
                   " factor_through_power find_symmetry_witnesses orbit orbit_span perm_apply"
                   " perm_inverse permutation_transport power_game section section_span"
                   " span_free_monoid_factor symmetry_sim tensor_power"
                   " transport_square_is_pullback",
    "synthesis": "Region alfred_region alfred_strategy dominic_region dominic_strategy"
                 " max_simulation sim_exists",
    "documents": "DocumentError FORMAT_VERSION dump_document load_document",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    """Import ``name``'s home module on first use and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
