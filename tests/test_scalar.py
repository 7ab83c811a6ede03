"""Scalar sweeps compute the same iterates as numpy sweeps.

On one vector over a slice of at most ``SCALAR_MAX_EDGES`` edges, and
without a trace, ``_engine.fixpoint`` and ``nested_fixpoint`` run on
Python ints.  Each case runs once with every slice in numpy (floor 0) and
once with every slice in scalar form (floor 10**18), and requires the same
values, counts, traces and bound errors.  The cases cover the whole-arena
slice and component views, exit edges into finished vertices, ``ytrans``
with sentinel entries, ``cutoff`` and ``lift``, oracle tables that clamp,
and weights of +-10**9.
"""

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.mcr import mp_sign
from quantgames.tp import solve_tp

from conftest import layered
from test_differential import block_arena, zero_loop_chain
from test_frontier import MCR_SOLVERS, TP_SOLVERS, outcome, skewed_arena

NUMPY, SCALAR = 0, 10**18
BIG = 10**9  # the weight cap

SIGN_SOLVERS = {
    "mp_sign": lambda a: SimpleNamespace(values=mp_sign(a).items(), stats=mcr.SolveStats()),
}


def both_floors(monkeypatch, run):
    """``run()`` with every slice in numpy, then with every slice in scalar
    form."""
    got = []
    for floor in (NUMPY, SCALAR):
        monkeypatch.setattr(eng, "SCALAR_MAX_EDGES", floor)
        got.append(run())
    return got


def assert_floor_blind(monkeypatch, solvers, arenas):
    for arena in arenas:
        for name, solve in solvers.items():
            numpy_run, scalar_run = both_floors(monkeypatch, lambda: outcome(solve, arena))
            assert numpy_run == scalar_run, (name, arena.n)


def big_weight_arena(rng: random.Random, n: int, objective: Objective):
    """Out-degree 1-3 and weights in {-10**9, 0, 10**9}: every cycle weighs
    a multiple of 10**9, so descents take few sweeps even at the cap."""
    edges = [(v, d, rng.choice((-BIG, 0, BIG))) for v in range(n)
             for d in rng.sample(range(n), rng.randint(1, min(3, n)))]
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = rng.sample(range(n), rng.randint(1, min(3, n))) if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def test_mcr_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(7)  # the small corpus of tests/test_frontier.py
    arenas = [normalize_target(skewed_arena(rng, rng.randint(1, 40), rng.choice((1, 3, 20)),
                                            Objective.MCR)) for _ in range(60)]
    rng = random.Random(92)  # the corpus of tests/test_differential.py
    arenas += [normalize_target(block_arena(rng, Objective.MCR)) for _ in range(30)]
    rng = random.Random(21)
    arenas += [normalize_target(big_weight_arena(rng, rng.randint(2, 30), Objective.MCR))
               for _ in range(30)]
    assert_floor_blind(monkeypatch, MCR_SOLVERS, arenas)


def test_tp_solvers_and_signs_ignore_the_floor(monkeypatch):
    rng = random.Random(8)  # the small corpus of tests/test_frontier.py
    arenas = [skewed_arena(rng, rng.randint(1, 9), rng.choice((1, 2)), Objective.TP)
              for _ in range(40)]
    rng = random.Random(91)  # the corpus of tests/test_differential.py
    blocks = [block_arena(rng, Objective.TP) for _ in range(4)]
    arenas += [zero_loop_chain(rng, 120)] + [a for a in blocks if a.n <= 100]
    rng = random.Random(22)
    arenas += [big_weight_arena(rng, rng.randint(2, 8), Objective.TP) for _ in range(20)]
    assert_floor_blind(monkeypatch, {**TP_SOLVERS, **SIGN_SOLVERS}, arenas)
    # Plain solve_tp makes 88k and 260k sweeps on the two block arenas
    # above 100 vertices, so only the accelerated solvers see those.
    accelerated = {k: TP_SOLVERS[k] for k in ("scc", "scc+paths")}
    assert_floor_blind(monkeypatch, {**accelerated, **SIGN_SOLVERS},
                       [a for a in blocks if a.n > 100])


@pytest.mark.parametrize("module, name", [
    (mcr, "sweep_bound"), (tp, "sweep_bound"), (tp, "k_bound"),
    (accel, "sweep_bound"), (accel, "k_bound"),
])
def test_bound_errors_ignore_the_floor(monkeypatch, module, name):
    """A bound cut to a few sweeps or passes fails the same way in both
    forms, or passes in both."""
    rng = random.Random(9)
    cases = [(normalize_target(skewed_arena(rng, 30, 20, Objective.MCR)), MCR_SOLVERS)
             for _ in range(4)]
    cases += [(skewed_arena(rng, 9, 2, Objective.TP), TP_SOLVERS) for _ in range(4)]
    cases += [(big_weight_arena(rng, 6, Objective.TP), TP_SOLVERS) for _ in range(2)]
    errors = set()
    for small in (-1, 0, 3, 10):
        monkeypatch.setattr(module, name, lambda *args, small=small: small)
        for arena, solvers in cases:
            for solve in solvers.values():
                numpy_run, scalar_run = both_floors(monkeypatch, lambda: outcome(solve, arena))
                assert numpy_run == scalar_run
                errors.add(numpy_run if isinstance(numpy_run, type) else None)
    assert AssertionError in errors


def test_oracle_bound_errors_ignore_the_floor(monkeypatch):
    """Tables that cannot hold the values make a clamped component fail
    to stabilize: ``UnsoundOracleError`` in both forms, at the same bound."""
    def bad_oracle(arena, dec, q, finalized):
        k = len(dec.components[q])
        return [np.array([eng.NEG, -1, 1, eng.POS], dtype=np.int64)] * k

    rng = random.Random(11)
    arenas = [normalize_target(skewed_arena(rng, 12, 5, Objective.MCR)) for _ in range(8)]
    seen = set()
    for arena in arenas:
        for small in (-1, 0, 3, 10):
            monkeypatch.setattr(accel, "sweep_bound", lambda *args, small=small: small)
            numpy_run, scalar_run = both_floors(
                monkeypatch, lambda: outcome(functools.partial(solve_mcr_accelerated,
                                                               oracle=bad_oracle), arena))
            assert numpy_run == scalar_run
            seen.add(numpy_run if isinstance(numpy_run, type) else None)
    assert UnsoundOracleError in seen


def fixpoint_run(monkeypatch, floor, sl, x, bound, **kw):
    """The final vector and count of one ``fixpoint`` call, or its error
    with the vector it left."""
    monkeypatch.setattr(eng, "SCALAR_MAX_EDGES", floor)
    try:
        end = eng.fixpoint(sl, x, bound, **kw)
    except (AssertionError, UnsoundOracleError) as exc:
        end = type(exc)
    return end, x.tolist()


def random_inputs(rng, ca, k, wide):
    x0 = np.array([rng.choice((eng.POS, eng.NEG, rng.randint(-wide, wide)))
                   for _ in range(ca.n)], dtype=np.int64)
    y = np.array([rng.choice((eng.POS, eng.NEG, rng.randint(-wide, wide)))
                  for _ in range(ca.n)], dtype=np.int64)
    tables = [None if rng.random() < 0.3 else np.array(
        sorted({int(eng.NEG), int(eng.POS), *rng.sample(range(-wide, wide + 1), 3)}),
        dtype=np.int64) for _ in range(k)]
    return x0, y, tables


@pytest.mark.parametrize("wmax", [9, BIG])
def test_fixpoint_post_steps_ignore_the_floor(monkeypatch, wmax):
    """``fixpoint`` itself on the whole arena and on component views, whose
    exit edges read vertices outside them: cutoff or lift, ``ytrans`` with
    both sentinels, tables that clamp, and bounds that cut it short."""
    rng = random.Random(12 + wmax)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 20)
        arena = (skewed_arena(rng, n, wmax, Objective.TP) if wmax < BIG
                 else big_weight_arena(rng, n, Objective.TP))
        ca = eng.CompiledArena(arena)
        dec = accel.scc_decompose(arena)
        layout = eng.ComponentLayout(ca, dec.components)
        for sl in (ca, *(layout.view(q) for q in rng.sample(range(len(dec)), min(3, len(dec))))):
            k = len(sl.starts)
            x0, y, tables = random_inputs(rng, ca, k, int(ca.W) * arena.n)
            kw = {"cutoff": ca.cutoff} if rng.random() < 0.5 else {"lift": -ca.cutoff}
            kw["ytrans"] = y if rng.random() < 0.5 else None
            kw["tables"] = tables if rng.random() < 0.5 else None
            bound = rng.choice((0, 2, 300))
            numpy_run = fixpoint_run(monkeypatch, NUMPY, sl, x0.copy(), bound, **kw)
            scalar_run = fixpoint_run(monkeypatch, SCALAR, sl, x0.copy(), bound, **kw)
            assert numpy_run == scalar_run
            outcomes.add(numpy_run[0] if isinstance(numpy_run[0], type) else "stable")
    assert outcomes == {"stable", AssertionError, UnsoundOracleError}


def test_nested_fixpoint_ignores_the_floor(monkeypatch):
    """The outer loop on component views in topological order, from the
    solver's start vectors, with outer bounds that cut it short."""
    rng = random.Random(13)
    outcomes = set()
    for _ in range(40):
        arena = skewed_arena(rng, rng.randint(2, 9), rng.choice((1, 2)), Objective.TP)
        ca = eng.CompiledArena(arena)
        dec = accel.scc_decompose(arena)
        layout = eng.ComponentLayout(ca, dec.components)
        outer_bound = rng.choice((0, 2, tp.k_bound(arena) + 1))

        def solve():
            x = np.full(arena.n, eng.POS, dtype=np.int64)
            y = np.full(arena.n, eng.NEG, dtype=np.int64)
            counts = []
            try:
                for q in range(len(dec)):
                    counts.append(eng.nested_fixpoint(
                        layout.view(q), x, y, cutoff=ca.cutoff, lift=-ca.cutoff,
                        inner_bound=mcr.sweep_bound(arena.n, ca.W) + 1, outer_bound=outer_bound,
                    ))
            except AssertionError:
                counts.append(AssertionError)
            return counts, x.tolist(), y.tolist()

        numpy_run, scalar_run = both_floors(monkeypatch, solve)
        assert numpy_run == scalar_run
        outcomes.add(numpy_run[0][-1] if numpy_run[0][-1] is AssertionError else "stable")
    assert outcomes == {"stable", AssertionError}


def test_default_floor_is_scalar_on_small_components(monkeypatch):
    """At the default floor the layered table's components sweep in scalar
    form and never take their column form, and the counts stay frozen."""
    taken = []
    form = eng.ComponentView.cols.func
    monkeypatch.setattr(eng.ComponentView, "cols", property(lambda v: taken.append(1) or form(v)))
    res = solve_tp_accelerated(layered(10, 7))
    assert (res.stats.outer_iterations, res.stats.inner_iterations) == (4 * 10 + 2, 14 * 10 + 4)
    assert taken == []
    assert solve_tp_accelerated(layered(10, 7), no_clamp_oracle).values == solve_tp(
        layered(10, 7)).values
