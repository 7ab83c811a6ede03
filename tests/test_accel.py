import random

from quantgames.accel import (
    no_clamp_oracle,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF
from quantgames.mcr import solve_mcr
from quantgames.tp import solve_tp

from conftest import fig2a, layered


def test_scc_layered():
    arena = layered(4, 3)
    dec = scc_decompose(arena)
    assert len(dec) == 2 * 4 + 1
    comps = {frozenset(c) for c in dec.components}
    t = arena.index("t")
    assert frozenset({t}) in comps
    for k in range(4):
        a, b, c = arena.index(f"a{k}"), arena.index(f"b{k}"), arena.index(f"c{k}")
        assert frozenset({a, b}) in comps
        assert frozenset({c}) in comps


def test_scc_fig2a():
    arena = fig2a(3)
    dec = scc_decompose(arena)
    assert dec.components == ((2,), (0, 1))
    assert dec.comp_of[2] == 0  # target component first


def test_scc_dag_every_vertex_alone():
    arena = make_arena(
        ["a", "b", "c"],
        [Player.MAX, Player.MIN, Player.MAX],
        [(0, 1, 1), (1, 2, 1), (2, 2, 0)],
        [],
        Objective.TP,
    )
    dec = scc_decompose(arena)
    assert len(dec) == 3
    assert all(len(c) == 1 for c in dec.components)


def test_scc_invariants_random():
    rng = random.Random(51)
    for _ in range(100):
        arena = random_arena(rng, 6, 2, Objective.MCR)
        norm = normalize_target(arena)
        dec = scc_decompose(norm)
        # every index inhabited, total
        assert sorted(set(dec.comp_of)) == list(range(len(dec)))
        # edges never ascend
        for s, d, _ in norm.edges:
            assert dec.comp_of[s] >= dec.comp_of[d]
        # normalized target is component 0
        (t,) = norm.targets
        assert dec.components[0] == (t,)
        # each component is a maximal SCC: mutual reachability inside
        for comp in dec.components:
            inside = set(comp)
            for v in comp:
                seen = {v}
                stack = [v]
                while stack:
                    u = stack.pop()
                    for w, _ in norm.successors(u):
                        if w in inside and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen == inside


def test_mcr_accelerated_agrees_with_plain():
    rng = random.Random(52)
    for _ in range(80):
        arena = normalize_target(random_arena(rng, 6, 3, Objective.MCR))
        plain = solve_mcr(arena).values
        for oracle in (simple_path_oracle, no_clamp_oracle):
            acc = solve_mcr_accelerated(arena, oracle)
            assert list(acc.values) == list(plain)


def test_tp_accelerated_agrees_with_plain():
    rng = random.Random(53)
    for _ in range(80):
        arena = random_arena(rng, 5, 3, Objective.TP)
        plain = solve_tp(arena).values
        for oracle in (simple_path_oracle, no_clamp_oracle):
            acc = solve_tp_accelerated(arena, oracle)
            assert list(acc.values) == list(plain)


def test_layered_values_and_count_freeze():
    arena = layered(20, 7, Objective.MCR)
    norm = normalize_target(arena)
    plain = solve_mcr(norm)
    acc = solve_mcr_accelerated(norm)
    assert list(acc.values) == list(plain.values)
    for k in range(20):
        assert acc.values[f"a{k}"] == 0
        assert acc.values[f"b{k}"] == 0
        assert acc.values[f"c{k}"] == 7
    # one pass per non-target component: 2 sweeps for the one-vertex loops,
    # 5 for the two-vertex components (frozen from the implementation)
    assert acc.stats.inner_iterations == 7 * 20
    other = solve_mcr_accelerated(normalize_target(layered(20, 19, Objective.MCR)))
    assert other.stats.inner_iterations == 7 * 20  # independent of weights


def test_mcr_accelerated_layered_100_counts():
    # Weight-independent 7 sweeps per layer; half of the nested solver's
    # total because the reachability form has no confirmation pass.
    for W in (50, 200):
        norm = normalize_target(layered(100, W, Objective.MCR))
        acc = solve_mcr_accelerated(norm)
        assert acc.stats.inner_iterations == 7 * 100
        plain = solve_mcr(norm)
        assert list(acc.values) == list(plain.values)


def test_no_clamp_oracle_matches_per_component_plain():
    arena = normalize_target(layered(6, 4, Objective.MCR))
    a = solve_mcr_accelerated(arena, no_clamp_oracle)
    b = solve_mcr_accelerated(arena, no_clamp_oracle)
    assert list(a.values) == list(solve_mcr(arena).values)
    assert a.stats.inner_iterations == b.stats.inner_iterations


def test_simple_path_oracle_layered_component():
    arena = normalize_target(layered(2, 5, Objective.MCR))
    dec = scc_decompose(arena)
    vals = solve_mcr(arena).values
    # component of {a1, b1} (the layer nearest the target comes first)
    for q in range(1, len(dec)):
        members = dec.components[q]
        finalized = [
            vals[v] if dec.comp_of[v] < q else None for v in range(arena.n)
        ]
        view = [vals[v] for v in range(arena.n)]
        sets = simple_path_oracle(arena, dec, q, view)
        names = {arena.names[v] for v in members}
        if names == {"a1", "b1"}:
            by_name = dict(zip(members, sets))
            a1 = arena.index("a1")
            # exits: a->c directly (-W + W = 0) and via b (-1 + 0 + W = W-1)
            assert {0, 5 - 1, MINUS_INF, PLUS_INF} <= set(by_name[a1])


def test_simple_path_oracle_single_exit_vertex():
    arena = make_arena(
        ["a", "t"],
        [Player.MIN, Player.MAX],
        [(0, 1, 4), (0, 0, 1), (1, 1, 0)],
        [1],
        Objective.MCR,
    )
    dec = scc_decompose(arena)
    sets = simple_path_oracle(arena, dec, 1, [0, 0])
    assert set(sets[0]) == {4, MINUS_INF, PLUS_INF}


def test_simple_path_oracle_soundness():
    # The solved value is always among the candidates it returns.
    rng = random.Random(54)
    for _ in range(60):
        arena = normalize_target(random_arena(rng, 6, 3, Objective.MCR))
        vals = solve_mcr(arena).values
        dec = scc_decompose(arena)
        for q in range(1, len(dec)):
            sets = simple_path_oracle(arena, dec, q, list(vals))
            for v, s in zip(dec.components[q], sets):
                if s is not None:
                    assert vals[v] in s


def test_simple_path_oracle_cap_degrades():
    arena = normalize_target(fig2a(3))
    dec = scc_decompose(arena)
    sets = simple_path_oracle(arena, dec, 1, [0] * arena.n, cap=1)
    assert sets == [None, None]


def test_tp_accel_table_counts():
    r = solve_tp_accelerated(layered(10, 7))
    assert r.stats.outer_iterations == 4 * 10 + 2
    assert r.stats.inner_iterations == 14 * 10 + 4
    r2 = solve_tp_accelerated(layered(10, 99))
    assert r2.stats.outer_iterations == 4 * 10 + 2
    assert r2.stats.inner_iterations == 14 * 10 + 4
