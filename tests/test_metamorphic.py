"""Metamorphic relations of the plain solvers, which need no oracle.

On seeded random arenas of 8-40 vertices the values must not change when
(a) the game file's vertex and edge lines are shuffled (values compared by
vertex name), or (b) ``make_bipartite`` puts a zero-weight relay of the
opposite owner on every edge between two vertices of one owner (original
vertices keep their indices).  And (c) the mean-payoff sign of every
vertex flips on the dual arena, with the owners swapped and the weights
negated.

Plain ``solve_tp`` can take seconds on these sizes, so the total-payoff
arenas have out-degree at most 2, unit weights and a small count.
"""

import random

import pytest

from quantgames.arena import Arena, Objective, Player, make_arena, normalize_target
from quantgames.gamefile import parse, serialize
from quantgames.mcr import Sign, make_bipartite, mp_sign, solve_mcr
from quantgames.tp import solve_tp

# objective -> (arena count, max out-degree, max |weight|)
SIZES = {Objective.MCR: (40, 3, 3), Objective.TP: (6, 2, 1)}


def random_arenas(objective: Objective):
    count, degree, W = SIZES[objective]
    rng = random.Random(f"metamorphic:{objective.value}")
    for _ in range(count):
        n = rng.randint(8, 40)
        owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
        edges = [
            (v, d, rng.randint(-W, W))
            for v in range(n)
            for d in rng.sample(range(n), rng.randint(1, degree))
        ]
        targets = rng.sample(range(n), rng.randint(1, 3)) if objective is Objective.MCR else []
        yield make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def values(arena: Arena) -> list:
    """Plain-solver values of the arena's own vertices, in index order."""
    if arena.objective is Objective.MCR:
        return solve_mcr(normalize_target(arena)).values.values[: arena.n]
    return solve_tp(arena).values.values


def shuffled_file(arena: Arena, rng: random.Random) -> bytes:
    objective, *lines = serialize(arena).decode().splitlines()
    vertices = [line for line in lines if line.startswith("vertex ")]
    edges = [line for line in lines if line.startswith("edge ")]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return "\n".join([objective] + vertices + edges).encode() + b"\n"


@pytest.mark.parametrize("objective", [Objective.MCR, Objective.TP], ids=["mcr", "tp"])
def test_values_ignore_line_order(objective):
    rng = random.Random(7)
    reordered = 0
    for arena in random_arenas(objective):
        again = parse(shuffled_file(arena, rng))
        reordered += again.names != arena.names
        assert dict(zip(again.names, values(again))) == dict(zip(arena.names, values(arena)))
    assert reordered == SIZES[objective][0]


@pytest.mark.parametrize("objective", [Objective.MCR, Objective.TP], ids=["mcr", "tp"])
def test_values_ignore_zero_weight_relays(objective):
    relays = 0
    for arena in random_arenas(objective):
        bip = make_bipartite(arena)
        assert bip.names[: arena.n] == arena.names
        assert all(bip.owners[s] is not bip.owners[d] for s, d, _ in bip.edges)
        relays += bip.n - arena.n
        assert values(bip)[: arena.n] == values(arena)
    assert relays > 0


def test_mean_payoff_signs_flip_on_the_dual_arena():
    rng = random.Random("metamorphic:dual")
    flip = {Sign.POSITIVE: Sign.NEGATIVE, Sign.ZERO: Sign.ZERO, Sign.NEGATIVE: Sign.POSITIVE}
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 60)
        W = rng.choice((1, 3, 20))
        owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
        edges = [
            (v, d, rng.randint(-W, W))
            for v in range(n)
            for d in rng.sample(range(n), rng.randint(1, min(3, n)))
        ]
        names = [f"v{i}" for i in range(n)]
        arena = make_arena(names, owners, edges, [], Objective.TP)
        dual = make_arena(
            names, [o.opponent() for o in owners], [(s, d, -w) for s, d, w in edges],
            [], Objective.TP,
        )
        signs = mp_sign(arena)
        assert mp_sign(dual) == {v: flip[s] for v, s in signs.items()}
        seen.update(signs.values())
    assert seen == set(Sign)
