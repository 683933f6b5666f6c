"""A walking tour: build games, combine them, inspect the results.

Run with:  python3 demos/tour_of_games.py
"""

from polygame.fixtures import COIN, TRAP, UNIT
from polygame.games import FamilySet, extend
from polygame.elements import FiniteSet, atom
from polygame.monoidal import dual, lollipop, tensor
from polygame.additive import oplus


def shape(name, g):
    moves = sum(len(g.moves[i]) for i in g.states)
    counters = sum(
        len(g.counters[(i, a)]) for i in g.states for a in g.moves[i]
    )
    print(f"  {name:24s} {len(g.states):3d} states {moves:4d} moves {counters:4d} counters")


def main():
    print("The three bundled games:")
    print("  COIN  -- flip forever; the counter decides which face comes up")
    print("  TRAP  -- one move keeps the game alive, but a bad counter ends it")
    print("  UNIT  -- the one-point game; the monoidal unit\n")

    print("Carriers of the basic constructions on COIN and TRAP:")
    shape("COIN", COIN)
    shape("TRAP", TRAP)
    shape("tensor(COIN, TRAP)", tensor(COIN, TRAP))
    shape("oplus(COIN, TRAP)", oplus(COIN, TRAP))
    shape("lollipop(COIN, TRAP)", lollipop(COIN, TRAP))
    shape("dual(COIN)", dual(COIN))

    print("\nThe hom game lollipop(COIN, TRAP) plays translations:")
    ell = lollipop(COIN, TRAP)
    for st in sorted(ell.states):
        print(f"  at {st.text()}: {len(ell.moves[st])} translation moves")

    print("\nA game is also a set-valued operation -- its extension.")
    print("Feeding a family with 2 points at h and 1 at t through COIN:")
    h = [s for s in COIN.states if s.key[1] == "h"][0]
    t = [s for s in COIN.states if s.key[1] == "t"][0]
    x = FamilySet(COIN.states, {
        h: FiniteSet([atom("x1"), atom("x2")]),
        t: FiniteSet([atom("y1")]),
    })
    ext = extend(COIN, x)
    for i in sorted(COIN.states):
        print(f"  fiber at {i.text()}: {len(ext.fibers[i])} elements"
              f"  (= sum over moves of the product over counters)")


if __name__ == "__main__":
    main()
