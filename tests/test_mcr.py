import random
from types import SimpleNamespace

import numpy as np
import pytest

from quantgames import _engine as eng

from quantgames import arena as arena_mod
from quantgames import mcr as mcr_mod
from quantgames import tp as tp_mod
from quantgames.arena import (
    ArenaError,
    Objective,
    Player,
    ValueVector,
    make_arena,
    normalize_target,
    scale_weights,
)
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF, is_finite
from quantgames.mcr import Sign, make_bipartite, mp_sign, mp_to_mcr, solve_mcr, sweep_bound
from quantgames.tp import build_game_Y, build_unfolding
from quantgames.oracle import mcr_oracle, mp_oracle

from conftest import fig2a, layered, prune_to_attractor, single_vertex
from quantgames.gamefile import FamilySpec, generate


def test_fig2a_values_and_trace():
    arena = fig2a(50)
    res = solve_mcr(arena, with_trace=True)
    assert list(res.values) == [-50, -50, 0]
    head = [tuple(vec.values[:2]) for vec in list(res.trace)[:4]]
    assert head == [
        (PLUS_INF, PLUS_INF),
        (PLUS_INF, 0),
        (-1, 0),
        (-1, -1),
    ]
    assert res.trace[4].values[:2] == [-2, -1]
    assert res.stats.sweeps == 2 * 50 + 2
    assert res.stats.inner_iterations == res.stats.sweeps
    assert res.stats.outer_iterations == 1


def test_lsp_values():
    arena = generate(FamilySpec("lsp_fig5"))
    res = solve_mcr(arena)
    assert list(res.values) == [2, 3, 1, PLUS_INF, 0]


def test_min_pump_is_minus_inf():
    arena = make_arena(
        ["a", "t"],
        [Player.MIN, Player.MAX],
        [(0, 0, -1), (0, 1, 0), (1, 1, 0)],
        [1],
        Objective.MCR,
    )
    assert solve_mcr(arena).values["a"] is MINUS_INF


def test_requires_normalized():
    arena = make_arena(
        ["a", "b"],
        [Player.MAX, Player.MIN],
        [(0, 1, 1), (1, 0, 1)],
        [1],
        Objective.MCR,
    )
    with pytest.raises(ArenaError):
        solve_mcr(arena)


def test_trace_non_increasing_and_bounded():
    rng = random.Random(13)
    for _ in range(40):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        res = solve_mcr(arena, with_trace=True)
        n, W = arena.n, max(abs(w) for _, _, w in arena.edges)
        assert res.stats.sweeps <= sweep_bound(n, W)
        vecs = list(res.trace)
        for a, b in zip(vecs, vecs[1:]):
            assert b.pointwise_le(a)
        # after |V| sweeps every finite iterate sits in the proven window
        # (values on maximal-cost simple paths reach the lower edge exactly)
        for vec in vecs[n:]:
            for v in vec:
                if is_finite(v):
                    assert -(n - 1) * W <= v <= n * W


def test_trace_is_one_int64_matrix(monkeypatch):
    arena = normalize_target(layered(6, 9, Objective.MCR))
    ca = eng.CompiledArena(arena)
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    (t,) = arena.targets
    x[t] = 0
    rows = [x.copy()]
    copies = SimpleNamespace(append=lambda y: rows.append(y.copy()))
    eng.fixpoint(ca, x, 10**6, cutoff=ca.cutoff, trace=copies)
    real = eng.from_array
    calls = []
    monkeypatch.setattr(eng, "from_array", lambda a, y: calls.append(len(y)) or real(a, y))
    res = solve_mcr(arena, with_trace=True)
    assert calls == []  # neither the iterates nor the final values yet
    res.values, res.values
    assert calls == [arena.n]  # the final values, once, when first read
    raw = res.trace.raw
    assert raw.dtype == np.int64 and raw.shape == (res.stats.sweeps + 1, arena.n)
    assert len(raw) > 64  # the buffer grew past its first 64 rows
    assert np.array_equal(raw, np.array(rows))
    assert len(res.trace) == len(rows) and list(res.trace[-1]) == list(res.values)


@pytest.mark.parametrize("solver", ["solve_mcr", "solve_mcr_accelerated", "solve_tp", "solve_tp_accelerated"])
def test_values_are_built_from_raw_when_first_read(solver):
    from quantgames import accel

    solve = getattr(accel, solver, None) or {"solve_mcr": solve_mcr, "solve_tp": tp_mod.solve_tp}[solver]
    objective = Objective.MCR if "mcr" in solver else Objective.TP
    rng = random.Random(27)
    kinds = set()
    for _ in range(40):
        arena = random_arena(rng, 7, 4, objective)
        game = normalize_target(arena) if objective is Objective.MCR else arena
        res = solve(game)
        assert "values" not in vars(res)  # the solve builds no ExtValue
        assert res.raw.dtype == np.int64 and not res.raw.flags.writeable
        assert res.values == eng.from_array(game, res.raw) and res.values.arena is game
        assert res.values is res.values
        kinds.update(v if v in (PLUS_INF, MINUS_INF) else int for v in res.values)
    assert kinds == {PLUS_INF, MINUS_INF, int}


def test_converged_values_are_fixed_point():
    rng = random.Random(14)
    for _ in range(40):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        vals = solve_mcr(arena).values
        (t,) = arena.targets
        for v in range(arena.n):
            if v == t or not is_finite(vals[v]):
                continue
            cands = [
                w + vals[d] if is_finite(vals[d]) else vals[d]
                for d, w in arena.successors(v)
            ]
            best = max(cands) if arena.owners[v] is Player.MAX else min(cands)
            assert best == vals[v]


def test_matches_oracle_small():
    rng = random.Random(15)
    for _ in range(80):
        arena = normalize_target(random_arena(rng, 4, 2, Objective.MCR))
        assert list(solve_mcr(arena).values) == list(mcr_oracle(arena))


def test_weight_scaling():
    rng = random.Random(16)
    for _ in range(30):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        scaled = scale_weights(arena, 5)
        base = solve_mcr(arena).values
        big = solve_mcr(scaled).values
        for a, b in zip(base, big):
            if is_finite(a):
                assert b == 5 * a
            else:
                assert b is a


def test_mp_sign_trivial():
    assert mp_sign(single_vertex(Player.MAX, 3))[0] is Sign.POSITIVE
    assert mp_sign(single_vertex(Player.MAX, 0))[0] is Sign.ZERO
    assert mp_sign(single_vertex(Player.MIN, -2))[0] is Sign.NEGATIVE


def test_mp_sign_takes_weights_up_to_the_cap():
    # |V|^2 W far above 10**14: the stop-request fixpoint's iterates stay
    # within (|V|-1)W + W of 0, so no weight bound applies beyond the cap.
    assert mp_sign(single_vertex(Player.MAX, 10**9))[0] is Sign.POSITIVE
    assert mp_sign(single_vertex(Player.MIN, -(10**9)))[0] is Sign.NEGATIVE
    assert mp_sign(single_vertex(Player.MIN, 10**9))[0] is Sign.POSITIVE


def test_mp_sign_fig1a_all_zero():
    arena = generate(FamilySpec("fig1a"))
    signs = mp_sign(arena)
    assert all(s is Sign.ZERO for s in signs.values())
    # agrees with the exact oracle
    exact = mp_oracle(arena)
    assert all(m == 0 for m in exact)


def test_mp_sign_matches_oracle():
    rng = random.Random(17)
    for _ in range(60):
        arena = random_arena(rng, 4, 3, Objective.TP)
        signs = mp_sign(arena)
        exact = mp_oracle(arena)
        for v in range(arena.n):
            want = (
                Sign.POSITIVE if exact[v] > 0 else Sign.NEGATIVE if exact[v] < 0 else Sign.ZERO
            )
            assert signs[v] is want


def test_minus_inf_matches_negative_sign_on_attracted_region():
    rng = random.Random(18)
    for _ in range(60):
        arena = normalize_target(random_arena(rng, 5, 3, Objective.MCR))
        vals = solve_mcr(arena).values
        pruned, remap = prune_to_attractor(arena)
        signs = mp_sign(pruned)
        for v, pv in remap.items():
            assert (vals[v] is MINUS_INF) == (signs[pv] is Sign.NEGATIVE)


def test_mp_to_mcr_trivial_cases():
    pump = single_vertex(Player.MIN, -1)
    img = mp_to_mcr(pump)
    assert solve_mcr(img).values[0] is MINUS_INF
    gain = single_vertex(Player.MAX, 1)
    img = mp_to_mcr(gain)
    assert solve_mcr(img).values[0] is not MINUS_INF


def test_mp_to_mcr_random():
    rng = random.Random(19)
    for _ in range(60):
        arena = random_arena(rng, 5, 3, Objective.TP)
        img = mp_to_mcr(arena)
        vals = solve_mcr(img).values
        exact = mp_oracle(arena)
        for v in range(arena.n):
            assert (exact[v] < 0) == (vals[v] is MINUS_INF)


# construction -> (module whose fresh_names it calls, call, allocator calls)
CONSTRUCTIONS = {
    "make_bipartite": (mcr_mod, make_bipartite, 1),
    "mp_to_mcr": (mcr_mod, mp_to_mcr, 2),  # its bipartite image, then its target
    "build_game_Y": (tp_mod, lambda a: build_game_Y(a, ValueVector(a, [0] * a.n)), 1),
    "build_unfolding": (tp_mod, lambda a: build_unfolding(a, 2)[0], 1),
    "normalize_target": (arena_mod, normalize_target, 1),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_derived_games_name_fresh_vertices_with_one_allocator_call(name, monkeypatch):
    """The allocator runs a fixed number of times per construction and
    reads O(|result|) names, at every size; every edge of the all-Max
    arena below needs a relay in ``make_bipartite``."""
    module, build, expected_calls = CONSTRUCTIONS[name]
    real = arena_mod.fresh_names
    work = []

    def counting(taken, wanted):
        taken, wanted = list(taken), list(wanted)
        work.append(len(taken) + len(wanted))
        return real(taken, wanted)

    monkeypatch.setattr(module, "fresh_names", counting)
    for n in (30, 300):
        work.clear()
        edges = [(v, (v + k) % n, 1) for v in range(n) for k in (1, 2)]
        arena = make_arena([f"v{i}" for i in range(n)], [Player.MAX] * n, edges, [0, 1], Objective.MCR)
        result = build(arena)
        assert len(work) == expected_calls
        assert sum(work) <= 2 * result.n
        assert len(set(result.names)) == result.n
