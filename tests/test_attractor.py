import random

from quantgames.arena import Objective, Player, normalize_target
from quantgames.attractor import classify_plus_infinity, compute_attractor
from quantgames.cli import random_arena
from quantgames.extvalue import PLUS_INF
from quantgames.mcr import solve_mcr
from quantgames.oracle import enumerate_memoryless, mcr_oracle
from quantgames.strategies import extract_max_memoryless

from conftest import fig2a
from quantgames.gamefile import FamilySpec, generate


def test_fig2a_attractor():
    arena = fig2a(5)
    res = compute_attractor(arena, arena.targets)
    assert res.attracted == frozenset({0, 1, 2})
    assert res.rank[2] == 0
    assert res.rank[1] == 1
    assert res.rank[0] == 2  # Max vertex; needs both successors attracted
    assert res.min_reach[1] == 2


def test_lsp_v4_not_attracted():
    arena = generate(FamilySpec("lsp_fig5"))
    res = compute_attractor(arena, arena.targets)
    v4 = arena.index("v4")
    assert v4 not in res.attracted
    tau = extract_max_memoryless(arena, solve_mcr(arena).values)
    assert tau.choice[v4] == v4  # dodges the attractor forever


def test_empty_seed():
    arena = fig2a(2)
    res = compute_attractor(arena, [])
    assert res.attracted == frozenset()


def test_monotone_in_seed():
    rng = random.Random(5)
    for _ in range(40):
        arena = random_arena(rng, 6, 2, Objective.TP)
        seeds = sorted(rng.sample(range(arena.n), rng.randint(1, arena.n)))
        small = compute_attractor(arena, seeds[:1]).attracted
        big = compute_attractor(arena, seeds).attracted
        assert small <= big


def test_rank_bounded_by_vertex_count():
    rng = random.Random(6)
    for _ in range(40):
        arena = random_arena(rng, 6, 2, Objective.MCR)
        res = compute_attractor(arena, arena.targets)
        assert all(r <= arena.n for r in res.rank.values())


def test_min_reach_beats_every_adversary():
    # From every attracted vertex the reach strategy hits the seed within
    # |V| steps no matter how Max plays.
    rng = random.Random(7)
    for _ in range(50):
        arena = random_arena(rng, 6, 2, Objective.MCR)
        res = compute_attractor(arena, arena.targets)
        for sigma in enumerate_memoryless(arena, Player.MAX):
            for v in res.attracted:
                cur = v
                for _ in range(arena.n + 1):
                    if cur in arena.targets:
                        break
                    if arena.owners[cur] is Player.MIN:
                        cur = res.min_reach.get(cur, cur)
                    else:
                        cur = sigma[cur]
                assert cur in arena.targets


def test_max_avoid_really_avoids():
    # Off the attractor every vertex is valued +inf; there Max's memoryless
    # strategy stays off it, and so does any Min move.
    rng = random.Random(8)
    dodged = 0
    for _ in range(50):
        arena = normalize_target(random_arena(rng, 6, 2, Objective.MCR))
        res = compute_attractor(arena, arena.targets)
        values = solve_mcr(arena).values
        tau = extract_max_memoryless(arena, values)
        outside = set(range(arena.n)) - res.attracted
        assert outside == {v for v in range(arena.n) if values[v] is PLUS_INF}
        for v in outside:
            if arena.owners[v] is Player.MAX:
                assert tau.choice[v] in outside
                dodged += 1
            else:
                assert all(d in outside for d, _ in arena.successors(v))
    assert dodged > 10


def test_classify_matches_oracle():
    rng = random.Random(9)
    for _ in range(40):
        arena = normalize_target(random_arena(rng, 4, 2, Objective.MCR))
        inf_set = classify_plus_infinity(arena)
        vals = mcr_oracle(arena)
        assert inf_set == frozenset(
            v for v in range(arena.n) if vals[v] is PLUS_INF
        )


def test_classify_examples():
    assert classify_plus_infinity(fig2a(5)) == frozenset()
    lsp = generate(FamilySpec("lsp_fig5"))
    assert classify_plus_infinity(lsp) == frozenset({lsp.index("v4")})
