"""Seeded inputs and the benchmark's own oracles.

Every generator takes a ``random.Random`` built from the workload seed, so
one seed always gives the same games, documents and scripts.  The oracles
recompute winning regions and largest simulation relations with worklist
algorithms written here, independently of ``polygame.synthesis``, so that a
wrong answer from the program counts as a failed op.
"""

from __future__ import annotations

import random
from collections import defaultdict

from polygame import atom, make_game

# -- games ------------------------------------------------------------------------


def alfred_chain(rng: random.Random, n: int, tag: str):
    """A chain whose dead end Alfred can only avoid near its start.

    State j moves on to j+1; about a third of the states also have a move
    with two counters, one forward and one to a later state.  The last state
    has no move, and only a few states in the first tenth can leave for a
    safe loop, so peeling walks back over nine tenths of the chain.
    """
    st = [atom(f"{tag}{j}") for j in range(n)]
    safe = atom(f"{tag}safe")
    go, alt, leave = atom("go"), atom("alt"), atom("leave")
    d, x, y = atom("d"), atom("x"), atom("y")
    moves = {safe: [go]}
    counters = {(safe, go): [d]}
    nxt = {(safe, go, d): safe}
    exits = set(rng.sample(range(max(1, n // 10)), k=min(3, max(1, n // 10))))
    for j, s in enumerate(st):
        if j == n - 1:
            moves[s] = []
            continue
        moves[s] = [go]
        counters[(s, go)] = [d]
        nxt[(s, go, d)] = st[j + 1]
        if rng.random() < 0.3:
            moves[s].append(alt)
            counters[(s, alt)] = [x, y]
            nxt[(s, alt, x)] = st[j + 1]
            nxt[(s, alt, y)] = st[rng.randint(j, n - 1)]
        if j in exits:
            moves[s].append(leave)
            counters[(s, leave)] = [d]
            nxt[(s, leave, d)] = safe
    return make_game([*st, safe], moves, counters, nxt)


def dominic_chain(rng: random.Random, n: int, tag: str):
    """The mirror chain: Dominic is stuck at the end and escapes only early.

    State j has one move whose counters all lead forward; the last state has
    a move with no counter at all, where Dominic loses.  A few states in the
    first tenth have an extra counter into a safe loop.
    """
    st = [atom(f"{tag}{j}") for j in range(n)]
    safe = atom(f"{tag}safe")
    go, stop = atom("go"), atom("stop")
    d, e, out = atom("d"), atom("e"), atom("out")
    moves = {safe: [go]}
    counters = {(safe, go): [d]}
    nxt = {(safe, go, d): safe}
    exits = set(rng.sample(range(max(1, n // 10)), k=min(3, max(1, n // 10))))
    for j, s in enumerate(st):
        if j == n - 1:
            moves[s] = [stop]
            counters[(s, stop)] = []
            continue
        moves[s] = [go]
        counters[(s, go)] = [d, e]
        nxt[(s, go, d)] = st[j + 1]
        nxt[(s, go, e)] = st[rng.randint(j + 1, n - 1)]
        if j in exits:
            counters[(s, go)].append(out)
            nxt[(s, go, out)] = safe
    return make_game([*st, safe], moves, counters, nxt)


def random_game(
    rng: random.Random,
    n: int,
    tag: str,
    max_moves: int = 3,
    max_counters: int = 3,
    dead: float = 0.03,
):
    """n states, up to ``max_moves`` moves of up to ``max_counters`` counters.

    A ``dead`` share of the states has no move (Alfred is stuck there), and
    about one move in twenty has no counter (Dominic is stuck there).
    """
    st = [atom(f"{tag}{j}") for j in range(n)]
    ms = [atom(f"m{k}") for k in range(max_moves)]
    ds = [atom(f"d{k}") for k in range(max_counters)]
    moves, counters, nxt = {}, {}, {}
    for s in st:
        if rng.random() < dead:
            moves[s] = []
            continue
        moves[s] = ms[: rng.randint(1, max_moves)]
        for a in moves[s]:
            k = 0 if rng.random() < 0.05 else rng.randint(1, max_counters)
            counters[(s, a)] = ds[:k]
            for c in ds[:k]:
                nxt[(s, a, c)] = rng.choice(st)
    return make_game(st, moves, counters, nxt)


# -- oracles ----------------------------------------------------------------------


def _predecessors(g):
    preds = defaultdict(list)
    for (i, a, _d), j in g.next.items():
        preds[j].append((i, a))
    return preds


def alfred_region_oracle(g) -> frozenset:
    """Largest H: every state of H has a move whose counters all stay in H."""
    bad = {(i, a): 0 for i in g.states for a in g.moves[i]}
    good_moves = {i: len(g.moves[i]) for i in g.states}
    preds = _predecessors(g)
    alive = set(g.states)
    work = [i for i in g.states if good_moves[i] == 0]
    while work:
        j = work.pop()
        if j not in alive:
            continue
        alive.discard(j)
        for i, a in preds[j]:
            bad[(i, a)] += 1
            if bad[(i, a)] == 1:
                good_moves[i] -= 1
                if good_moves[i] == 0 and i in alive:
                    work.append(i)
    return frozenset(alive)


def dominic_region_oracle(g) -> frozenset:
    """Largest H: every move from a state of H has a counter staying in H."""
    live_counters = {k: len(v) for k, v in g.counters.items()}
    preds = _predecessors(g)
    alive = set(g.states)
    work = [i for i in g.states if any(live_counters[(i, a)] == 0 for a in g.moves[i])]
    while work:
        j = work.pop()
        if j not in alive:
            continue
        alive.discard(j)
        for i, a in preds[j]:
            live_counters[(i, a)] -= 1
            if live_counters[(i, a)] == 0 and i in alive:
                work.append(i)
    return frozenset(alive)


def simulation_relation_oracle(p1, p2) -> frozenset:
    """Largest R with (i1, i2) in R iff every p1-move has a p2-move all of
    whose counters pull back to some p1-counter landing inside R."""
    preds1, preds2 = _predecessors(p1), _predecessors(p2)
    rel = {(i1, i2) for i1 in p1.states for i2 in p2.states}

    def holds(i1, i2):
        for a1 in p1.moves[i1]:
            succ1 = [p1.next[(i1, a1, d1)] for d1 in p1.counters[(i1, a1)]]
            if not any(
                all(
                    any((j1, p2.next[(i2, a2, d2)]) in rel for j1 in succ1)
                    for d2 in p2.counters[(i2, a2)]
                )
                for a2 in p2.moves[i2]
            ):
                return False
        return True

    work = list(rel)
    queued = set(work)
    while work:
        k = work.pop()
        queued.discard(k)
        if k not in rel or holds(*k):
            continue
        rel.discard(k)
        j1, j2 = k
        for i1, _ in preds1[j1]:
            for i2, _ in preds2[j2]:
                if (i1, i2) in rel and (i1, i2) not in queued:
                    queued.add((i1, i2))
                    work.append((i1, i2))
    return frozenset(rel)
