"""Nested value iteration for total-payoff games.

The outer vector climbs from -inf toward the game values; each outer pass
runs a reachability-style inner iteration in which every successor value is
truncated by the current outer vector (Min's standing offer to stop).  The
stop-request game constructions used to validate the solver are also here:
the one-copy game Y and the n-copy unfolding.  Both are built from the
input's int64 edge array, read the outer vector as raw int64, and name
their new vertices through ``arena.fresh_names``.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from . import _engine as eng
from .arena import (
    Arena,
    ArenaError,
    CapExceededError,
    Objective,
    Player,
    ValueVector,
    edge_rows,
    fresh_names,
    make_arena,
    max_abs_weight,
    validate,
    vertex_cap,
)
from .mcr import Sign, SolveResult, SolveStats, finish, mp_sign, sweep_bound


def k_bound(arena: Arena) -> int:
    """Outer passes sufficient for stabilization: |V| (2(|V|-1) W + 1)."""
    n = arena.n
    return n * (2 * (n - 1) * max_abs_weight(arena) + 1)


def solve_tp(arena: Arena) -> SolveResult:
    """Solve a total-payoff game exactly.

    stats.outer_iterations counts outer bodies, stats.inner_iterations the
    total inner bodies (both include the final stabilizing pass).
    """
    validate(arena)
    if arena.objective is not Objective.TP:
        raise ArenaError("solve_tp expects a TP arena")
    started = time.perf_counter()
    ca = eng.CompiledArena(arena)
    n = arena.n
    x = np.full(n, eng.POS, dtype=np.int64)
    y = np.full(n, eng.NEG, dtype=np.int64)
    outer, inner = eng.nested_fixpoint(
        ca, x, y, cutoff=ca.cutoff, lift=(n - 1) * ca.W,
        inner_bound=sweep_bound(n, ca.W) + 1, outer_bound=k_bound(arena) + 1,
    )
    return finish(arena, y, SolveStats(inner_iterations=inner, outer_iterations=outer), started)


def classify_tp_infinities(arena: Arena) -> Dict[int, str]:
    """Partition vertices into 'finite', '+inf', '-inf' via mean-payoff signs."""
    if arena.objective is not Objective.TP:
        raise ArenaError("classification needs a TP arena")
    signs = mp_sign(arena)
    label = {Sign.POSITIVE: "+inf", Sign.NEGATIVE: "-inf", Sign.ZERO: "finite"}
    return {v: label[s] for v, s in signs.items()}


def build_game_Y(arena: Arena, y: ValueVector) -> Arena:
    """One-copy stop-request game: an MCR arena whose solution is the next
    outer vector.

    Layout contract: vertex i is the original vertex i, vertex n+i is the
    interior stop-request vertex of i, vertex 2n is the target.  Moving
    along an original edge enters the successor's interior vertex, where
    Min chooses between continuing (free) and stopping for max(0, y).
    Stopping is unavailable where y is +inf.  The interiors are named
    ``in_<name>`` and the target ``t`` unless those names are taken.
    """
    validate(arena)
    n = arena.n
    t = 2 * n
    wanted = [f"in_{name}" for name in arena.names] + ["t"]
    names = arena.names + tuple(fresh_names(arena.names, wanted))
    owners = arena.owners + (Player.MIN,) * n + (Player.MAX,)
    src, dst, w = arena.edge_array.T
    v = np.arange(n)
    raw = eng.to_array(y)
    stops = np.flatnonzero(raw != eng.POS)
    edges = np.concatenate((
        edge_rows(src, n + dst, w),
        edge_rows(n + v, v),
        edge_rows(n + stops, t, np.maximum(raw[stops], 0)),
        edge_rows(t, t),
    ))
    return make_arena(names, owners, edges, [t], Objective.MCR)


def build_unfolding(arena: Arena, n_copies: int) -> Tuple[Arena, Dict[int, int]]:
    """Layered reachability game with n stop requests.

    Copy j in 1..n holds three vertices per original vertex v, at indices
    3n(j-1) + v, + n + v and + 2n + v: the copy (v,j), named
    ``<name>_c<j>``; its interior (in,v,j), ``in_<name>_c<j>``, where Min
    may request to stop; and its exterior (ex,v,j), ``ex_<name>_c<j>``,
    where Max either accepts (to the target ``t``, the last vertex) or
    vetoes (down to copy j-1; absent for j=1).  A name that an earlier
    vertex already holds gets a numeric suffix.  Only copy edges carry the
    original weights.  Returns the arena and the map v -> index of (v, n).
    """
    validate(arena)
    if n_copies < 1:
        raise ValueError("need at least one copy")
    n = arena.n
    total = 3 * n * n_copies + 1
    if total > vertex_cap():
        raise CapExceededError(f"unfolding needs {total} vertices, cap is {vertex_cap()}")
    t = total - 1
    wanted = [
        f"{role}{name}_c{j}"
        for j in range(1, n_copies + 1)
        for role in ("", "in_", "ex_")
        for name in arena.names
    ]
    names = fresh_names((), wanted + ["t"])
    owners = (arena.owners + (Player.MIN,) * n + (Player.MAX,) * n) * n_copies + (Player.MAX,)
    src, dst, w = arena.edge_array.T
    base = 3 * n * np.arange(n_copies)[:, None]
    copy = base + np.arange(n)
    inner = copy + n
    outer = copy + 2 * n
    edges = np.concatenate((
        edge_rows(base + src, base + n + dst, w),
        edge_rows(inner, copy),
        edge_rows(inner, outer),
        edge_rows(outer, t),
        edge_rows(outer[1:], copy[:-1]),
        edge_rows(t, t),
    ))
    unfolded = make_arena(names, owners, edges, [t], Objective.MCR)
    return unfolded, dict(enumerate(copy[-1].tolist()))
