"""Every solver loop enforces its bound.

Each case shrinks one bound function in the module that uses it and checks
that the solver raises instead of iterating on.  A sweep bound of 0 lets a
loop run two sweeps; -1 lets it run one.
"""

import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, normalize_target

from conftest import MIXED, fig2a, layered, single_vertex

CASES = {
    "solve_mcr sweeps": (
        mcr, "sweep_bound", -1, AssertionError,
        lambda: mcr.solve_mcr(normalize_target(fig2a(5))),
    ),
    "solve_tp inner sweeps": (
        tp, "sweep_bound", -1, AssertionError, lambda: tp.solve_tp(layered(2, 5)),
    ),
    "mp_sign sweeps": (
        mcr, "sweep_bound", -1, AssertionError, lambda: mcr.mp_sign(layered(2, 5)),
    ),
    "solve_tp outer passes": (
        tp, "k_bound", -1, AssertionError, lambda: tp.solve_tp(layered(2, 5)),
    ),
    # A component without candidate tables sweeps unclamped, so it fails
    # like the plain solver; one with tables blames the oracle.
    "solve_mcr_accelerated sweeps": (
        accel, "sweep_bound", -1, AssertionError,
        lambda: solve_mcr_accelerated(normalize_target(fig2a(5)), no_clamp_oracle),
    ),
    "solve_mcr_accelerated clamped sweeps": (
        accel, "sweep_bound", -1, UnsoundOracleError,
        lambda: solve_mcr_accelerated(normalize_target(fig2a(5)), simple_path_oracle),
    ),
    # The zero self-loop of fig2a's sink is generic and stabilizes in two
    # sweeps per pass; the signed component {v1, v2} descends for longer.
    "solve_tp_accelerated signed sweeps": (
        accel, "sweep_bound", 0, AssertionError,
        lambda: solve_tp_accelerated(fig2a(5, Objective.TP), no_clamp_oracle),
    ),
    "solve_tp_accelerated clamped signed sweeps": (
        accel, "sweep_bound", 0, UnsoundOracleError,
        lambda: solve_tp_accelerated(fig2a(5, Objective.TP), simple_path_oracle),
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
        layout = scc_decompose(arena)
        return accel.cycle_sign_certificates(layout)[-1]

    assert last_certificate(fig2a(5, Objective.TP)) == "negative"
    assert last_certificate(single_vertex(Player.MAX, 1)) == "positive"
    assert last_certificate(MIXED) is None
