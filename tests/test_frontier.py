"""Frontier sweeps compute the same iterates as full sweeps.

After its first sweep, ``_engine.fixpoint`` recomputes only the members
with a successor that changed, on one vector over a slice of at least
``FRONTIER_MIN_EDGES`` edges.  Each case runs once with every slice swept
in full and once with every slice on the frontier (floor 0), and requires
the same values, counts, traces and bound errors.  The arenas cover the
whole-arena slice and component views, ``ytrans`` (the total-payoff inner
loop), ``lift`` (the negative-certificate re-solve), oracle tables and
members with more out-edges than their slice's column width.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.mcr import solve_mcr
from quantgames.tp import solve_tp

from test_differential import block_arena, zero_loop_chain

FULL, FRONTIER = 10**18, 0


@pytest.fixture(autouse=True)
def numpy_sweeps(monkeypatch):
    """Every slice sweeps in numpy here, in full or on the frontier; the
    scalar form of small slices is checked in tests/test_scalar.py."""
    monkeypatch.setattr(eng, "SCALAR_MAX_EDGES", 0)


MCR_SOLVERS = {
    "plain": lambda a: solve_mcr(a, with_trace=True),
    "scc": lambda a: solve_mcr_accelerated(a, no_clamp_oracle),
    "scc+paths": lambda a: solve_mcr_accelerated(a, simple_path_oracle),
}
TP_SOLVERS = {
    "plain": solve_tp,
    "scc": lambda a: solve_tp_accelerated(a, no_clamp_oracle),
    "scc+paths": lambda a: solve_tp_accelerated(a, simple_path_oracle),
}


def outcome(solve, arena):
    """What a solve shows: values, counts and trace, or its error type."""
    try:
        res = solve(arena)
    except (AssertionError, UnsoundOracleError) as exc:
        return type(exc)
    trace = getattr(res, "trace", None)
    stats = res.stats
    return (
        list(res.values), stats.sweeps, stats.inner_iterations, stats.outer_iterations,
        None if trace is None else trace.raw.tolist(),
    )


def assert_floor_blind(monkeypatch, solvers, arenas):
    for arena in arenas:
        for name, solve in solvers.items():
            got = []
            for floor in (FULL, FRONTIER):
                monkeypatch.setattr(eng, "FRONTIER_MIN_EDGES", floor)
                got.append(outcome(solve, arena))
            assert got[0] == got[1], (name, arena.n)


def skewed_arena(rng: random.Random, n: int, wmax: int, objective: Objective):
    """Mostly one or two out-edges, and a few vertices with up to six, so
    that some slices spill edges past their column width."""
    edges = []
    for v in range(n):
        deg = rng.choice((1, 1, 1, 2, 2, 3)) if rng.random() < 0.9 else rng.randint(4, 6)
        for d in rng.sample(range(n), min(deg, n)):
            edges.append((v, d, rng.randint(-wmax, wmax)))
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = rng.sample(range(n), rng.randint(1, min(3, n))) if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def test_mcr_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(7)
    arenas = [normalize_target(skewed_arena(rng, rng.randint(1, 40), rng.choice((1, 3, 20)),
                                            Objective.MCR)) for _ in range(60)]
    rng = random.Random(92)  # the corpus of tests/test_differential.py
    arenas += [normalize_target(block_arena(rng, Objective.MCR)) for _ in range(30)]
    assert_floor_blind(monkeypatch, MCR_SOLVERS, arenas)


def test_tp_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(8)
    arenas = [skewed_arena(rng, rng.randint(1, 9), rng.choice((1, 2)), Objective.TP)
              for _ in range(40)]
    rng = random.Random(91)  # the corpus of tests/test_differential.py
    blocks = [block_arena(rng, Objective.TP) for _ in range(4)]
    arenas += [zero_loop_chain(rng, 120)] + [a for a in blocks if a.n <= 100]
    assert_floor_blind(monkeypatch, TP_SOLVERS, arenas)
    # Plain solve_tp makes 88k and 260k sweeps (2 and 7 s) on the two
    # block arenas above 100 vertices, so only the accelerated solvers
    # see those.
    accelerated = {k: TP_SOLVERS[k] for k in ("scc", "scc+paths")}
    assert_floor_blind(monkeypatch, accelerated, [a for a in blocks if a.n > 100])


@pytest.mark.parametrize("module, name", [
    (mcr, "sweep_bound"), (tp, "sweep_bound"), (tp, "k_bound"),
    (accel, "sweep_bound"), (accel, "k_bound"),
])
def test_bound_errors_ignore_the_floor(monkeypatch, module, name):
    """A bound cut to a few sweeps or passes fails the same way on both
    loops, or passes on both."""
    rng = random.Random(9)
    cases = [(normalize_target(skewed_arena(rng, 30, 20, Objective.MCR)), MCR_SOLVERS)
             for _ in range(4)]
    cases += [(skewed_arena(rng, 9, 2, Objective.TP), TP_SOLVERS) for _ in range(4)]
    errors = set()
    for small in (-1, 0, 3, 10):
        monkeypatch.setattr(module, name, lambda *args, small=small: small)
        for arena, solvers in cases:
            for solve in solvers.values():
                got = []
                for floor in (FULL, FRONTIER):
                    monkeypatch.setattr(eng, "FRONTIER_MIN_EDGES", floor)
                    got.append(outcome(solve, arena))
                assert got[0] == got[1]
                errors.add(got[0] if isinstance(got[0], type) else None)
    assert AssertionError in errors


def fixpoint_run(monkeypatch, floor, sl, x, bound, **kw):
    """The iterates of one ``fixpoint`` call and how it ended."""
    rows = []
    trace = SimpleNamespace(append=lambda y: rows.append(y.copy()))
    monkeypatch.setattr(eng, "FRONTIER_MIN_EDGES", floor)
    try:
        end = eng.fixpoint(sl, x, bound, trace=trace, **kw)
    except (AssertionError, UnsoundOracleError) as exc:
        end = type(exc)
    return end, np.array(rows)


def test_fixpoint_post_steps_ignore_the_floor(monkeypatch):
    """``fixpoint`` itself, with every post-step and input it takes, on the
    whole arena and on component views: cutoff or lift, ``ytrans``,
    candidate tables that clamp, and sweep bounds that cut it short."""
    rng = random.Random(10)
    outcomes = set()
    for _ in range(40):
        arena = skewed_arena(rng, rng.randint(2, 80), rng.choice((2, 9)), Objective.TP)
        ca = eng.CompiledArena(arena)
        dec = accel.scc_decompose(arena)
        layout = eng.ComponentLayout(ca, dec.components)
        big = max(range(len(dec)), key=lambda q: len(dec.components[q]))
        for sl in (ca, layout.view(big)):
            k = len(sl.starts)
            wide = int(ca.W) * arena.n
            x0 = np.array([rng.choice((eng.POS, eng.NEG, rng.randint(-wide, wide)))
                           for _ in range(arena.n)], dtype=np.int64)
            y = np.array([rng.choice((eng.POS, rng.randint(-wide, wide)))
                          for _ in range(arena.n)], dtype=np.int64)
            tables = [None if rng.random() < 0.3 else np.array(
                sorted({int(eng.NEG), int(eng.POS), *rng.sample(range(-wide, wide + 1), 3)}),
                dtype=np.int64) for _ in range(k)]
            kw = {"cutoff": ca.cutoff} if rng.random() < 0.5 else {"lift": -ca.cutoff}
            kw["ytrans"] = y if rng.random() < 0.5 else None
            kw["tables"] = tables if rng.random() < 0.5 else None
            bound = rng.choice((0, 2, 300))
            full = fixpoint_run(monkeypatch, FULL, sl, x0.copy(), bound, **kw)
            front = fixpoint_run(monkeypatch, FRONTIER, sl, x0.copy(), bound, **kw)
            assert full[0] == front[0]
            assert np.array_equal(full[1], front[1])
            outcomes.add(full[0] if isinstance(full[0], type) else "stable")
    assert outcomes == {"stable", AssertionError, UnsoundOracleError}


def random_mcr_arena(seed: int, n: int):
    """A seeded random reachability arena: out-degree 1-3, weights 0..20,
    about 1% targets."""
    rng = random.Random(seed)
    owners = [Player.MAX if rng.random() < 0.5 else Player.MIN for _ in range(n)]
    targets = [0] + [v for v in range(1, n) if rng.random() < 0.01]
    edges = [(v, d, rng.randint(0, 20)) for v in range(n)
             for d in rng.sample(range(n), rng.randint(1, 3))]
    return normalize_target(
        make_arena([f"v{i}" for i in range(n)], owners, edges, targets, Objective.MCR)
    )


def test_default_floor_trace_matches_full_sweeps(monkeypatch):
    arena = random_mcr_arena(1, 20_000)
    assert len(arena.edge_array) >= eng.FRONTIER_MIN_EDGES
    front = solve_mcr(arena, with_trace=True)
    monkeypatch.setattr(eng, "FRONTIER_MIN_EDGES", FULL)
    full = solve_mcr(arena, with_trace=True)
    assert front.stats.sweeps == full.stats.sweeps > 10
    assert np.array_equal(front.trace.raw, full.trace.raw)
    assert list(front.values) == list(full.values)
