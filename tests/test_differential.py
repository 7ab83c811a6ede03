"""Plain, ``scc`` and ``scc+paths`` solves agree on mid-size arenas.

The arenas are seeded and shaped for the accelerated solvers' hard cases:
chains of strongly connected blocks whose internal cycles carry both signs
(the generic nested iteration, and the negative-certificate re-solve from
below), and a chain of zero-weight self-loops, where every component is
generic and reads its finished successors through the stop-request cap.

The +-inf sets of the accelerated total-payoff solves are also checked
against ``classify_tp_infinities``, which reads them off mean-payoff
signs: a different algorithm, with no outer loop and no oracle, also on
block arenas of 300 to 1,000 vertices.
"""

import random
from typing import Optional

from quantgames.accel import (
    no_clamp_oracle,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.extvalue import MINUS_INF, PLUS_INF
from quantgames.mcr import solve_mcr
from quantgames.tp import classify_tp_infinities, solve_tp


def weight(rng: random.Random) -> int:
    return rng.choice((-1, 0, 0, 1))


def block_arena(rng: random.Random, objective: Objective, n: Optional[int] = None):
    """``n`` vertices (by default 30-150) in blocks of 1-5, each block a
    ring plus chords, and a few exits from each block to earlier ones.
    Weights in -1..1, half of them 0, give cycles of both signs and many
    finite values.  Small blocks and W = 1 keep the plain total-payoff solve
    affordable: its sweeps grow with the square of |V| W times the cycle
    length."""
    n = rng.randint(30, 150) if n is None else n
    edges = {}
    lo = 0
    while lo < n:
        members = list(range(lo, min(n, lo + rng.randint(1, 5))))
        for i, u in enumerate(members):
            edges[u, members[(i + 1) % len(members)]] = weight(rng)
        for _ in range(rng.randint(0, len(members))):
            edges[rng.choice(members), rng.choice(members)] = weight(rng)
        if lo:
            for _ in range(rng.randint(1, 3)):
                edges[rng.choice(members), rng.randrange(lo)] = weight(rng)
        lo = members[-1] + 1
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = [0] + rng.sample(range(n), 2) if objective is Objective.MCR else []
    return make_arena(
        [f"v{i}" for i in range(n)], owners,
        [(s, d, w) for (s, d), w in edges.items()], targets, objective,
    )


def zero_loop_chain(rng: random.Random, k: int):
    """Vertex i may stay on its zero self-loop or step down to i - 1."""
    edges = [(0, 0, 0)]
    for i in range(1, k):
        edges += [(i, i, 0), (i, i - 1, weight(rng))]
    owners = [Player.MAX if i % 2 else Player.MIN for i in range(k)]
    return make_arena([f"z{i}" for i in range(k)], owners, edges, [], Objective.TP)


def tp_arenas():
    """Four TP block arenas and the zero-loop chain."""
    rng = random.Random(91)
    arenas = [block_arena(rng, Objective.TP) for _ in range(4)]
    return arenas + [zero_loop_chain(rng, 120)]


def test_tp_plain_and_accelerated_agree():
    for arena in tp_arenas():
        want = list(solve_tp(arena).values)
        for oracle in (no_clamp_oracle, simple_path_oracle):
            assert list(solve_tp_accelerated(arena, oracle).values) == want


def test_mcr_plain_and_accelerated_agree():
    rng = random.Random(92)
    for _ in range(30):
        arena = normalize_target(block_arena(rng, Objective.MCR))
        want = list(solve_mcr(arena).values)
        for oracle in (no_clamp_oracle, simple_path_oracle):
            assert list(solve_mcr_accelerated(arena, oracle).values) == want


def infinity_class(value) -> str:
    return "+inf" if value is PLUS_INF else "-inf" if value is MINUS_INF else "finite"


def test_tp_infinities_match_the_mean_payoff_classification():
    rng = random.Random(93)
    arenas = tp_arenas() + [block_arena(rng, Objective.TP) for _ in range(20)]
    # Larger ones, whose generic components make up to about 160,000
    # inner sweeps a solve.
    rng = random.Random(94)
    arenas += [block_arena(rng, Objective.TP, n) for n in (300, 600, 1000)]
    seen = set()
    for arena in arenas:
        want = classify_tp_infinities(arena)
        seen.update(want.values())
        for oracle in (no_clamp_oracle, simple_path_oracle):
            values = solve_tp_accelerated(arena, oracle).values
            assert {v: infinity_class(x) for v, x in enumerate(values)} == want
    assert seen == {"+inf", "-inf", "finite"}
