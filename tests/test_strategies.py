import random

import pytest

from quantgames import strategies
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF, is_finite
from quantgames.mcr import solve_mcr, sweep_bound
from quantgames.oracle import enumerate_memoryless
from quantgames.strategies import (
    MemorylessStrategy,
    TraceMissingError,
    best_response,
    extract_max_memoryless,
    extract_max_tp,
    extract_min_mcr,
    make_switching,
    play_out,
    project_tp_min,
    strategy_json,
)
from quantgames.tp import build_game_Y, solve_tp

from conftest import fig2a
from quantgames.gamefile import FamilySpec, generate


def _mcr_setup(arena):
    res = solve_mcr(arena, with_trace=True)
    return res


def test_max_choice_fig2a():
    arena = fig2a(5)
    res = _mcr_setup(arena)
    sigma = extract_max_memoryless(arena, res.values)
    assert arena.names[sigma.choice[arena.index("v1")]] == "v3"


def test_max_choice_lsp():
    arena = generate(FamilySpec("lsp_fig5"))
    res = _mcr_setup(arena)
    sigma = extract_max_memoryless(arena, res.values)
    assert arena.names[sigma.choice[arena.index("v4")]] == "v4"  # dodge forever
    assert arena.names[sigma.choice[arena.index("v1")]] == "v2"  # -1+3 beats 0+1


def test_extract_min_requires_trace():
    arena = fig2a(3)
    res = solve_mcr(arena)
    with pytest.raises(TraceMissingError):
        extract_min_mcr(arena, res)


def test_min_trio_fig2a():
    arena = fig2a(3)
    res = _mcr_setup(arena)
    sigma1, sigma2, star = extract_min_mcr(arena, res)
    v2 = arena.index("v2")
    assert arena.names[sigma2.choice[v2]] == "v3"  # rank-1 attractor edge
    assert arena.names[sigma1.choice[v2]] == "v1"
    # rewind machine: first W visits return, then exit
    cycling = MemorylessStrategy(Player.MAX, {0: 1})
    lasso, payoff = play_out(arena, cycling, star, 0)
    play = list(lasso.prefix) + list(lasso.cycle)
    visits = [i for i, v in enumerate(play) if v == v2]
    assert len(visits) == 4  # three returns, then leave
    assert payoff <= -3
    assert star.size <= sweep_bound(arena.n, 3) + 2


def test_sigma_star_best_response_is_optimal():
    arena = fig2a(5)
    res = _mcr_setup(arena)
    _, _, star = extract_min_mcr(arena, res)
    br = best_response(arena, star)
    assert list(br)[:2] == [-5, -5]


def test_fixed_min_memoryless_responses():
    arena = fig2a(5)
    always_v1 = MemorylessStrategy(Player.MIN, {1: 0})
    always_v3 = MemorylessStrategy(Player.MIN, {1: 2})
    assert list(best_response(arena, always_v1))[:2] == [PLUS_INF, PLUS_INF]
    assert list(best_response(arena, always_v3))[:2] == [-1, 0]


def test_sigma_star_memory_collapses_on_target_only():
    arena = make_arena(["t"], [Player.MAX], [(0, 0, 0)], [0], Objective.MCR)
    res = _mcr_setup(arena)
    _, _, star = extract_min_mcr(arena, res)
    assert star.size == 1


def test_switching_fig2a():
    arena = fig2a(3)
    res = _mcr_setup(arena)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    sw = make_switching(sigma1, sigma2, res.values, arena)
    cycling = MemorylessStrategy(Player.MAX, {0: 1})
    lasso, payoff = play_out(arena, cycling, sw, 0)
    assert payoff == -3
    br = best_response(arena, sw)
    assert list(br)[:2] == [-3, -3]


def test_switching_from_target_trivial():
    arena = fig2a(3)
    res = _mcr_setup(arena)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    sw = make_switching(sigma1, sigma2, res.values, arena)
    opt_max = extract_max_memoryless(arena, res.values)
    _, payoff = play_out(arena, opt_max, sw, arena.index("v3"))
    assert payoff == 0


def test_switching_needs_threshold_for_minus_inf():
    arena = make_arena(
        ["a", "t"],
        [Player.MIN, Player.MAX],
        [(0, 0, -1), (0, 1, 0), (1, 1, 0)],
        [1],
        Objective.MCR,
    )
    res = _mcr_setup(arena)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    sw = make_switching(sigma1, sigma2, res.values, arena)
    with pytest.raises(ValueError):
        sw.goal(0)
    sw = make_switching(sigma1, sigma2, res.values, arena, threshold=-25)
    dummy_max = MemorylessStrategy(Player.MAX, {})
    _, payoff = play_out(arena, dummy_max, sw, 0)
    assert payoff <= -25


def test_switching_optimal_on_random_corpus():
    rng = random.Random(41)
    done = 0
    for _ in range(120):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        res = _mcr_setup(arena)
        if any(v is MINUS_INF for v in res.values):
            continue
        sigma1, sigma2, _ = extract_min_mcr(arena, res)
        sw = make_switching(sigma1, sigma2, res.values, arena)
        br = best_response(arena, sw)
        assert list(br) == list(res.values)
        br_max = best_response(arena, extract_max_memoryless(arena, res.values))
        assert list(br_max) == list(res.values)
        done += 1
    assert done >= 40


def _random_memoryless(rng, arena, player):
    return MemorylessStrategy(
        player,
        {v: rng.choice(arena.successor_ids(v)) for v in range(arena.n) if arena.owners[v] is player},
    )


def _check_against_brute_force(rng, draw, fixed_player):
    """On 100 drawn arenas where the free player has more than one
    memoryless reply, ``best_response`` to a random memoryless strategy
    of ``fixed_player`` equals, per start, the best payoff of those
    replies (max for a free Max player, min for a free Min player)."""
    free, best = (Player.MAX, max) if fixed_player is Player.MIN else (Player.MIN, min)
    done = 0
    while done < 100:
        arena = draw()
        replies = [MemorylessStrategy(free, tau) for tau in enumerate_memoryless(arena, free)]
        if len(replies) < 2:
            continue
        sigma = _random_memoryless(rng, arena, fixed_player)
        profiles = [(r, sigma) if free is Player.MAX else (sigma, r) for r in replies]
        want = [best(play_out(arena, *pair, v)[1] for pair in profiles) for v in range(arena.n)]
        assert list(best_response(arena, sigma)) == want
        done += 1


def test_best_response_to_random_memoryless_min_is_brute_force():
    """Against a memoryless Min strategy Max plays a one-player game,
    dodging the target along a cycle or taking a longest path to it, both
    memoryless, so the best of Max's memoryless replies is the value."""
    rng = random.Random(43)
    _check_against_brute_force(
        rng, lambda: normalize_target(random_arena(rng, 6, 3, Objective.MCR)), Player.MIN
    )


def test_best_response_to_random_memoryless_max_is_brute_force():
    """With weights >= 0 Min's shortest paths are simple, so against a
    memoryless Max strategy the best of Min's memoryless replies is the
    value."""
    rng = random.Random(44)

    def draw():
        drawn = random_arena(rng, 6, 3, Objective.MCR)
        edges = [(s, d, abs(w)) for s, d, w in drawn.edges]
        return normalize_target(
            make_arena(drawn.names, drawn.owners, edges, sorted(drawn.targets), Objective.MCR)
        )

    _check_against_brute_force(rng, draw, Player.MAX)


def test_best_response_refuses_a_product_above_the_cap(monkeypatch):
    arena = fig2a(3)
    res = _mcr_setup(arena)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    sw = make_switching(sigma1, sigma2, res.values, arena)
    machine = sw.as_moore()
    starts = [(v, machine.update(machine.initial, v)) for v in range(arena.n)]
    size = len(strategies._product_reach(arena, machine, starts)[0])
    assert size > arena.n
    monkeypatch.setattr(strategies, "PRODUCT_CAP", size)
    assert list(best_response(arena, sw)) == list(res.values)
    monkeypatch.setattr(strategies, "PRODUCT_CAP", size - 1)
    with pytest.raises(ValueError, match="product of arena and strategy memory too large"):
        best_response(arena, sw)


def test_optimal_profile_non_looping():
    rng = random.Random(42)
    for _ in range(60):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        res = _mcr_setup(arena)
        if any(v is MINUS_INF for v in res.values):
            continue
        sigma_max = extract_max_memoryless(arena, res.values)
        _, _, star = extract_min_mcr(arena, res)
        for v in range(arena.n):
            if not is_finite(res.values[v]):
                continue
            lasso, payoff = play_out(arena, sigma_max, star, v)
            seq = list(lasso.prefix) + list(lasso.cycle)
            assert len(set(seq)) == len(seq)
            assert payoff == res.values[v]


def test_project_tp_min_fig1a():
    arena = generate(FamilySpec("fig1a"))
    tpv = solve_tp(arena).values
    gy = build_game_Y(arena, tpv)
    gy_res = solve_mcr(gy, with_trace=True)
    sigma1, _, _ = extract_min_mcr(gy, gy_res)
    proj = project_tp_min(arena, sigma1)
    names = {arena.names[v]: arena.names[d] for v, d in proj.choice.items()}
    assert names["v2"] == "v3"
    assert names["v3"] == "v4"  # forced
    assert names["v5"] == "v4"  # forced
    # sup over enumerated Max replies realizes the values
    for v in range(arena.n):
        worst = None
        for sm in enumerate_memoryless(arena, Player.MAX):
            _, p = play_out(arena, MemorylessStrategy(Player.MAX, sm), proj, v, kind="tp")
            if worst is None or p > worst:
                worst = p
        assert worst == tpv[v]


def test_extract_max_tp_fig1a():
    arena = generate(FamilySpec("fig1a"))
    tpv = solve_tp(arena).values
    sigma = extract_max_tp(arena, tpv)
    assert arena.names[sigma.choice[arena.index("v4")]] == "v5"
    for v in range(arena.n):
        worst = None
        for sn in enumerate_memoryless(arena, Player.MIN):
            _, p = play_out(arena, sigma, MemorylessStrategy(Player.MIN, sn), v, kind="tp")
            if worst is None or p < worst:
                worst = p
        assert worst == tpv[v]


def test_argmax_choices_invariant_under_scaling():
    from quantgames.arena import scale_weights

    rng = random.Random(43)
    for _ in range(40):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        res = solve_mcr(arena)
        base = extract_max_memoryless(arena, res.values)
        scaled_arena = scale_weights(arena, 3)
        scaled = extract_max_memoryless(scaled_arena, solve_mcr(scaled_arena).values)
        assert base.choice == scaled.choice


def test_play_out_target_start():
    arena = fig2a(4)
    res = _mcr_setup(arena)
    sigma_max = extract_max_memoryless(arena, res.values)
    _, _, star = extract_min_mcr(arena, res)
    _, payoff = play_out(arena, sigma_max, star, arena.index("v3"))
    assert payoff == 0


def test_strategy_json_deterministic():
    arena = fig2a(4)
    res = _mcr_setup(arena)
    sigma = extract_max_memoryless(arena, res.values)
    blob = strategy_json(sigma, arena)
    assert blob == strategy_json(sigma, arena)
    assert b'"kind": "memoryless"' in blob
