"""Replaying a game a bounded number of times: powers and the replay game.

Run with:  python3 demos/replay_bound.py
"""

from polygame.exponential import (
    bang,
    chat,
    comul_sim,
    counit_sim,
    digging_sim,
    power_game,
    tensor_power,
)
from polygame.fixtures import COIN
from polygame.simulation import check_simulation


def main():
    print("tensor_power(COIN, k) plays k coins side by side; power_game")
    print("forgets the order of the copies (states become multisets):\n")
    for k in (1, 2, 3):
        tp = tensor_power(COIN, k)
        pw = power_game(COIN, k)
        print(f"  k={k}: ordered {len(tp.states):2d} states,"
              f" unordered {len(pw.states):2d} states")

    print("\nThe orbit map from ordered to unordered copies is itself a")
    print("simulation (one apex point per word):")
    c = chat(COIN, 2)
    print(f"  chat(COIN, 2): apex {len(c.apex)}, problems:"
          f" {check_simulation(c) or 'none'}\n")

    print("bang(P, K) -- the replay game -- stacks the powers up to size K.")
    for K in (1, 2, 3):
        print(f"  bang(COIN, {K}): {len(bang(COIN, K).states)} states"
              " (multisets of coin faces up to that size)")

    print("\nIts comonoid structure: forgetting all copies, and dealing the")
    print("copies into two hands.  The dealing morphism has one apex point")
    print("per way of tagging each copy with hand 1 or hand 2:")
    cu = counit_sim(COIN, 2)
    cm = comul_sim(COIN, 2)
    print(f"  counit_sim(COIN, 2): apex {len(cu.apex)}")
    print(f"  comul_sim(COIN, 2):  apex {len(cm.apex)}"
          f"  (= sum over multisets m of 2^|m| = 1 + 2*2 + 3*4)")

    print("\nRegrouping replays of replays (bounded at the same K):")
    for K in (1, 2):
        d = digging_sim(COIN, K)
        print(f"  digging_sim(COIN, {K}): apex {len(d.apex)},"
              f" problems: {check_simulation(d) or 'none'}")

    print("\nAll four comonoid laws hold up to full equivalence at K=2, and so")
    print("do digging's two counit laws: extracting after digging, either the")
    print("replay game or one copy of each, is the identity.  Both gate")
    print("`polygame laws --suite exponential`; run it to see them checked.")
    print("Digging is coassociative too: digging twice, on the outer or the")
    print("inner replay game, is the same map.  That gates")
    print("`polygame laws --suite comonad`.")


if __name__ == "__main__":
    main()
