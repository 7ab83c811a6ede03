"""Every solver gives the same outcome in every sweep form: small corpora.

The forms (``numpy-full``, ``frontier`` and ``scalar``) and the helpers
are those of ``tests/test_forms.py``.  Each case runs in all three forms
and requires the same values, counts, traces and bound errors, on skewed
random arenas (a few vertices with 4-6 out-edges, so some slices spill
edges past their column width) and the ``tests/test_differential.py``
corpora.  Weights at the cap are in ``tests/test_scalar.py``.
"""

import random

import numpy as np
import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.mcr import solve_mcr

from conftest import skewed_arena
from test_differential import block_arena, zero_loop_chain
from test_forms import (
    MCR_SOLVERS,
    NEVER,
    SIGN_SOLVERS,
    TP_SOLVERS,
    assert_bound_errors_form_blind,
    assert_form_blind,
)


def test_mcr_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(7)
    arenas = [normalize_target(skewed_arena(rng, rng.randint(1, 40), rng.choice((1, 3, 20)),
                                            Objective.MCR)) for _ in range(60)]
    rng = random.Random(92)  # the corpus of tests/test_differential.py
    arenas += [normalize_target(block_arena(rng, Objective.MCR)) for _ in range(30)]
    assert_form_blind(monkeypatch, MCR_SOLVERS, arenas)


def test_tp_solvers_ignore_the_floor(monkeypatch):
    rng = random.Random(8)
    arenas = [skewed_arena(rng, rng.randint(1, 9), rng.choice((1, 2)), Objective.TP)
              for _ in range(40)]
    rng = random.Random(91)  # the corpus of tests/test_differential.py
    blocks = [block_arena(rng, Objective.TP) for _ in range(4)]
    arenas += [zero_loop_chain(rng, 120)] + [a for a in blocks if a.n <= 100]
    assert_form_blind(monkeypatch, {**TP_SOLVERS, **SIGN_SOLVERS}, arenas)
    # Plain solve_tp makes 88k and 260k sweeps (2 and 7 s) on the two
    # block arenas above 100 vertices, so only the accelerated solvers
    # see those.
    accelerated = {k: TP_SOLVERS[k] for k in ("scc", "scc+paths")}
    assert_form_blind(monkeypatch, {**accelerated, **SIGN_SOLVERS},
                      [a for a in blocks if a.n > 100])


@pytest.mark.parametrize("module, name", [
    (mcr, "sweep_bound"), (tp, "sweep_bound"), (tp, "k_bound"),
    (accel, "sweep_bound"), (accel, "k_bound"),
])
def test_bound_errors_ignore_the_floor(monkeypatch, module, name):
    rng = random.Random(9)
    cases = [(normalize_target(skewed_arena(rng, 30, 20, Objective.MCR)), MCR_SOLVERS)
             for _ in range(4)]
    cases += [(skewed_arena(rng, 9, 2, Objective.TP), TP_SOLVERS) for _ in range(4)]
    assert_bound_errors_form_blind(monkeypatch, module, name, cases)


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
    monkeypatch.setattr(eng, "FRONTIER_MIN_EDGES", NEVER)
    full = solve_mcr(arena, with_trace=True)
    assert front.stats.sweeps == full.stats.sweeps > 10
    assert np.array_equal(front.trace.raw, full.trace.raw)
    assert list(front.values) == list(full.values)
