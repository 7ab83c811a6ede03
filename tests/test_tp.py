import random

import pytest

from quantgames.arena import (
    CapExceededError,
    Objective,
    Player,
    ValueVector,
    make_arena,
)
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF, is_finite
from quantgames.mcr import solve_mcr
from quantgames.oracle import tp_oracle
from quantgames.tp import (
    build_game_Y,
    build_unfolding,
    classify_tp_infinities,
    k_bound,
    solve_tp,
)

from conftest import fig2a, fig2b, single_vertex
from quantgames.gamefile import FamilySpec, generate


def test_fig1a_values():
    res = solve_tp(generate(FamilySpec("fig1a")))
    assert list(res.values) == [2, 0, 1, -1, 0]


def test_fig2b_values_and_outer_growth():
    small = solve_tp(fig2b(10))
    assert list(small.values) == [0, 10, 0]
    big = solve_tp(fig2b(40))
    assert list(big.values) == [0, 40, 0]
    growth = big.stats.outer_iterations - small.stats.outer_iterations
    assert growth == 30  # outer passes grow one per weight unit


def test_positive_loop_is_plus_inf():
    assert solve_tp(single_vertex(Player.MAX, 1)).values[0] is PLUS_INF


def test_negative_loop_is_minus_inf():
    assert solve_tp(single_vertex(Player.MIN, -1)).values[0] is MINUS_INF


def test_k_bound_formula():
    assert k_bound(fig2a(50, Objective.TP)) == 3 * (2 * 2 * 50 + 1)
    assert k_bound(single_vertex(Player.MAX, 7)) == 1
    five = make_arena(
        [f"v{i}" for i in range(5)],
        [Player.MAX] * 5,
        [(i, (i + 1) % 5, 2) for i in range(5)],
        [],
        Objective.TP,
    )
    assert k_bound(five) == 5 * 17


def test_outer_bounded_by_k():
    rng = random.Random(21)
    for _ in range(40):
        arena = random_arena(rng, 5, 3, Objective.TP)
        res = solve_tp(arena)
        assert res.stats.outer_iterations <= k_bound(arena) + 1


def test_matches_oracle_small():
    rng = random.Random(22)
    for _ in range(80):
        arena = random_arena(rng, 4, 2, Objective.TP)
        assert list(solve_tp(arena).values) == list(tp_oracle(arena))


def test_game_y_all_minus_inf_offers_free_stop():
    arena = fig2a(4, Objective.TP)
    y = ValueVector(arena, [MINUS_INF] * arena.n)
    gy = build_game_Y(arena, y)
    n = arena.n
    for v in range(n):
        assert gy.weight(n + v, 2 * n) == 0


def test_game_y_all_plus_inf_unreachable():
    arena = fig2a(4, Objective.TP)
    y = ValueVector(arena, [PLUS_INF] * arena.n)
    gy = build_game_Y(arena, y)
    vals = solve_mcr(gy).values
    for v in range(arena.n):
        assert vals[v] is PLUS_INF


def test_game_y_fixed_point():
    for W in (3, 7):
        arena = fig2a(W, Objective.TP)
        tpv = solve_tp(arena).values
        gy = build_game_Y(arena, tpv)
        gyv = solve_mcr(gy).values
        for v in range(arena.n):
            assert gyv[v] == tpv[v] or gyv[v] is tpv[v]


def test_game_y_fixed_point_random():
    rng = random.Random(23)
    for _ in range(40):
        arena = random_arena(rng, 4, 2, Objective.TP)
        tpv = solve_tp(arena).values
        gyv = solve_mcr(build_game_Y(arena, tpv)).values
        for v in range(arena.n):
            assert gyv[v] == tpv[v] or gyv[v] is tpv[v]


def test_unfolding_size_fig2a():
    arena = fig2a(4, Objective.TP)
    unf, top = build_unfolding(arena, 3)
    assert unf.n == 3 * 3 * 3 + 1  # three copies of three roles, plus target
    assert top == {0: 18, 1: 19, 2: 20}


def test_unfolding_depth_one_has_no_down_edges():
    arena = fig2a(4, Objective.TP)
    unf, _ = build_unfolding(arena, 1)
    # exterior vertices may only accept (single edge to the target)
    n = arena.n
    for v in range(n):
        ext = unf.index(f"ex_{arena.names[v]}_c1")
        assert unf.successor_ids(ext) == (unf.n - 1,)


def test_unfolding_cap_guard(monkeypatch):
    monkeypatch.setenv("QG_MAX_VERTICES", "10")
    with pytest.raises(CapExceededError):
        build_unfolding(fig2a(4, Objective.TP), 5)


def _assert_unfolding_reproduces_tp_values(arena):
    unf, top = build_unfolding(arena, k_bound(arena))
    uv = solve_mcr(unf).values
    tv = solve_tp(arena).values
    W = max(abs(w) for _, _, w in arena.edges)
    cut = (arena.n - 1) * W + 1
    for v in range(arena.n):
        if tv[v] is PLUS_INF:
            assert uv[top[v]] is PLUS_INF or uv[top[v]] >= cut
        else:
            got = uv[top[v]]
            assert got == tv[v] or got is tv[v]
            if is_finite(tv[v]):
                assert got < cut


def test_unfolding_reproduces_tp_values():
    rng = random.Random(24)
    for _ in range(12):
        _assert_unfolding_reproduces_tp_values(random_arena(rng, 3, 2, Objective.TP))


def test_unfolding_names_role_prefixed_vertices_apart():
    # The interior of `a` in copy 1 and the copy of `in_a` both want the
    # name in_a_c1 (and ex_a_c1 likewise); the later one gets a suffix.
    arena = make_arena(
        ["a", "in_a", "ex_a"],
        [Player.MAX, Player.MIN, Player.MAX],
        [(0, 1, 1), (1, 0, -1), (1, 2, 2), (2, 0, 0), (2, 2, -1)],
        [],
        Objective.TP,
    )
    unf, top = build_unfolding(arena, 2)
    assert unf.names[:9] == (
        "a_c1", "in_a_c1", "ex_a_c1",
        "in_a_c10", "in_in_a_c1", "in_ex_a_c1",
        "ex_a_c10", "ex_in_a_c1", "ex_ex_a_c1",
    )
    assert len(set(unf.names)) == unf.n and unf.names[-1] == "t"
    assert top == {0: 9, 1: 10, 2: 11}
    _assert_unfolding_reproduces_tp_values(arena)


def test_game_y_names_interiors_and_target_apart():
    arena = make_arena(
        ["t", "in_t"], [Player.MAX, Player.MIN], [(0, 1, 2), (1, 0, -1), (1, 1, 0)], [], Objective.TP
    )
    tpv = solve_tp(arena).values
    gy = build_game_Y(arena, tpv)
    assert gy.names == ("t", "in_t", "in_t0", "in_in_t", "t0")
    assert gy.targets == frozenset([4])
    gyv = solve_mcr(gy).values
    assert [gyv[v] for v in range(arena.n)] == list(tpv)


def test_classify_examples():
    arena = generate(FamilySpec("fig1a"))
    assert set(classify_tp_infinities(arena).values()) == {"finite"}
    assert classify_tp_infinities(single_vertex(Player.MAX, 2))[0] == "+inf"
    assert classify_tp_infinities(single_vertex(Player.MIN, -2))[0] == "-inf"


def test_classify_matches_solver():
    rng = random.Random(25)
    for _ in range(50):
        arena = random_arena(rng, 4, 2, Objective.TP)
        cls = classify_tp_infinities(arena)
        vals = solve_tp(arena).values
        for v in range(arena.n):
            want = (
                "+inf" if vals[v] is PLUS_INF else "-inf" if vals[v] is MINUS_INF else "finite"
            )
            assert cls[v] == want


def test_naive_single_operator_iteration_diverges():
    # The one-step optimality operator alone cannot solve these games: on
    # the three-vertex tail of the five-vertex example, iterating it from
    # the zero vector oscillates with period two and never visits the true
    # values (1, -1, 0), although they are one of its fixed points.
    sub = make_arena(
        ["v3", "v4", "v5"],
        [Player.MIN, Player.MAX, Player.MIN],
        [(0, 1, 2), (1, 0, -2), (1, 2, -1), (2, 1, 1)],
        [],
        Objective.TP,
    )

    def step(x):
        out = []
        for v in range(sub.n):
            cands = [w + x[d] for d, w in sub.successors(v)]
            out.append(max(cands) if sub.owners[v] is Player.MAX else min(cands))
        return tuple(out)

    true_values = (1, -1, 0)
    assert step(true_values) == true_values  # a fixed point, yet unreachable
    seen = []
    x = (0, 0, 0)
    for _ in range(12):
        seen.append(x)
        x = step(x)
    assert seen[2:] and all(s != true_values for s in seen)
    assert seen[1::2] == [(2, -1, 1)] * len(seen[1::2])
    assert seen[2::2] == [(1, 0, 0)] * len(seen[2::2])
