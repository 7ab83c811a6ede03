"""Every solver gives the same outcome in every sweep form: weights at the
cap, oracle bound errors and the scalar floor.

The forms (``numpy-full``, ``frontier`` and ``scalar``) and the helpers
are those of ``tests/test_forms.py``.  Each case runs in all three forms
and requires the same values, counts, traces and bound errors, on arenas
whose weights are in {-10**9, 0, 10**9}.  The small corpora are in
``tests/test_frontier.py``.
"""

import functools
import random

import numpy as np
import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, normalize_target
from quantgames.tp import solve_tp

from conftest import components, layered, skewed_arena
from test_forms import (
    MCR_SOLVERS,
    SIGN_SOLVERS,
    TP_SOLVERS,
    across_forms,
    assert_bound_errors_form_blind,
    assert_form_blind,
    big_weight_arena,
    outcome,
)


def test_mcr_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(21)
    arenas = [normalize_target(big_weight_arena(rng, rng.randint(2, 30), Objective.MCR))
              for _ in range(30)]
    assert_form_blind(monkeypatch, MCR_SOLVERS, arenas)


def test_tp_solvers_and_signs_ignore_the_floor(monkeypatch):
    rng = random.Random(22)
    arenas = [big_weight_arena(rng, rng.randint(2, 8), Objective.TP) for _ in range(20)]
    assert_form_blind(monkeypatch, {**TP_SOLVERS, **SIGN_SOLVERS}, arenas)


@pytest.mark.parametrize("module, name", [
    (mcr, "sweep_bound"), (tp, "sweep_bound"), (tp, "k_bound"),
    (accel, "sweep_bound"), (accel, "k_bound"),
])
def test_bound_errors_ignore_the_floor(monkeypatch, module, name):
    rng = random.Random(9)
    cases = [(normalize_target(big_weight_arena(rng, 12, Objective.MCR)), MCR_SOLVERS)
             for _ in range(2)]
    cases += [(big_weight_arena(rng, 6, Objective.TP), TP_SOLVERS) for _ in range(2)]
    assert_bound_errors_form_blind(monkeypatch, module, name, cases)


def test_oracle_bound_errors_ignore_the_floor(monkeypatch):
    """Tables that cannot hold the values make a clamped component fail
    to stabilize: ``UnsoundOracleError`` in every form, at the same bound,
    in both accelerated solvers; the scalar form sends their small
    components through the list pass, the numpy forms through views."""
    def bad_oracle(arena, dec, q, finalized):
        k = len(components(dec)[q])
        return [np.array([eng.NEG, -1, 1, eng.POS], dtype=np.int64)] * k

    rng = random.Random(11)
    cases = [(normalize_target(skewed_arena(rng, 12, 5, Objective.MCR)), solve_mcr_accelerated)
             for _ in range(8)]
    cases += [(skewed_arena(rng, 12, 5, Objective.TP), solve_tp_accelerated) for _ in range(8)]
    seen = {solve_mcr_accelerated: set(), solve_tp_accelerated: set()}
    for arena, solver in cases:
        solve = functools.partial(solver, oracle=bad_oracle)
        for small in (-1, 0, 3, 10):
            monkeypatch.setattr(accel, "sweep_bound", lambda *args, small=small: small)
            got = across_forms(monkeypatch, lambda: outcome(solve, arena))
            seen[solver].add(got if isinstance(got, type) else None)
    assert all(UnsoundOracleError in errors for errors in seen.values())


def test_default_floor_is_scalar_on_small_components(monkeypatch):
    """At the default floor the layered table's components sweep in scalar
    form and never take their column form (one weight row; the cycle-sign
    certificate's batch has two), and the counts stay frozen."""
    taken = []
    form = eng.EdgeSlice.cols.func
    monkeypatch.setattr(eng.EdgeSlice, "cols",
                        property(lambda v: (v.wt.ndim == 1 and taken.append(1)) or form(v)))
    res = solve_tp_accelerated(layered(10, 7))
    assert (res.stats.outer_iterations, res.stats.inner_iterations) == (4 * 10 + 2, 14 * 10 + 4)
    assert taken == []
    assert solve_tp_accelerated(layered(10, 7), no_clamp_oracle).values == solve_tp(
        layered(10, 7)).values
