"""Every solver loop enforces its bound.

Each case shrinks one bound function in the module that uses it and checks
that the solver raises instead of iterating on.  A sweep bound of 0 lets a
loop run two sweeps; -1 lets it run one.
"""

import pytest

from quantgames import accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    scc_decompose,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena, normalize_target

from conftest import fig2a, layered, single_vertex

# One component whose cycles have both signs (Min's -1 loop, Max's +1
# loop), so the accelerated solver takes the generic nested iteration.
MIXED = make_arena(
    ["a", "b"],
    [Player.MIN, Player.MAX],
    [(0, 0, -1), (0, 1, 2), (1, 0, 0), (1, 1, 1)],
    [],
    Objective.TP,
)

CASES = {
    "solve_mcr sweeps": (
        mcr, "sweep_bound", -1, AssertionError,
        lambda: mcr.solve_mcr(normalize_target(fig2a(5))),
    ),
    "solve_tp inner sweeps": (
        tp, "sweep_bound", -1, AssertionError, lambda: tp.solve_tp(layered(2, 5)),
    ),
    "solve_tp outer passes": (
        tp, "k_bound", -1, AssertionError, lambda: tp.solve_tp(layered(2, 5)),
    ),
    "solve_mcr_accelerated sweeps": (
        accel, "sweep_bound", -1, UnsoundOracleError,
        lambda: solve_mcr_accelerated(normalize_target(fig2a(5)), no_clamp_oracle),
    ),
    # The zero self-loop of fig2a's sink is generic and stabilizes in two
    # sweeps per pass; the signed component {v1, v2} descends for longer.
    "solve_tp_accelerated signed sweeps": (
        accel, "sweep_bound", 0, UnsoundOracleError,
        lambda: solve_tp_accelerated(fig2a(5, Objective.TP), no_clamp_oracle),
    ),
    "solve_tp_accelerated signed passes": (
        accel, "k_bound", -1, AssertionError,
        lambda: solve_tp_accelerated(single_vertex(Player.MAX, 1)),
    ),
    "solve_tp_accelerated generic sweeps": (
        accel, "sweep_bound", -1, AssertionError, lambda: solve_tp_accelerated(MIXED),
    ),
    "solve_tp_accelerated generic passes": (
        accel, "k_bound", -1, AssertionError, lambda: solve_tp_accelerated(MIXED),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_is_enforced(case, monkeypatch):
    module, name, small, error, solve = CASES[case]
    solve()  # finishes with the real bound
    monkeypatch.setattr(module, name, lambda *args: small)
    with pytest.raises(error):
        solve()


def test_accelerated_cases_reach_the_component_kind_they_name():
    def last_certificate(arena):
        members = scc_decompose(arena).components[-1]
        return accel._cycle_sign_certificate(arena, members)

    assert last_certificate(fig2a(5, Objective.TP)) == "negative"
    assert last_certificate(single_vertex(Player.MAX, 1)) == "positive"
    assert last_certificate(MIXED) is None
