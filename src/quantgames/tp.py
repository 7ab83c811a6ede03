"""Nested value iteration for total-payoff games.

The outer vector climbs from -inf toward the game values; each outer pass
runs a reachability-style inner iteration in which every successor value is
truncated by the current outer vector (Min's standing offer to stop).  The
stop-request game constructions used to validate the solver are also here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    make_arena,
    max_abs_weight,
    validate,
    vertex_cap,
)
from .extvalue import MINUS_INF, PLUS_INF
from .mcr import Sign, SolveStats, mp_sign, sweep_bound


@dataclass
class TpResult:
    values: ValueVector
    stats: SolveStats


def k_bound(arena: Arena) -> int:
    """Outer passes sufficient for stabilization: |V| (2(|V|-1) W + 1)."""
    n = arena.n
    return n * (2 * (n - 1) * max_abs_weight(arena) + 1)


def solve_tp(arena: Arena) -> TpResult:
    """Solve a total-payoff game exactly.

    stats.outer_iterations counts outer bodies, stats.inner_iterations the
    total inner bodies (both include the final stabilizing pass).
    """
    if arena.objective is not Objective.TP:
        raise ArenaError("solve_tp expects a TP arena")
    validate(arena)
    started = time.perf_counter()
    ca = eng.CompiledArena(arena)
    n = arena.n
    x = np.full(n, eng.POS, dtype=np.int64)
    y = np.full(n, eng.NEG, dtype=np.int64)
    outer, inner = eng.nested_fixpoint(
        ca, x, y, cutoff=ca.cutoff, lift=(n - 1) * ca.W,
        inner_bound=sweep_bound(n, ca.W) + 1, outer_bound=k_bound(arena) + 1,
    )
    stats = SolveStats(sweeps=inner, inner_iterations=inner, outer_iterations=outer)
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    return TpResult(eng.from_array(arena, y), stats)


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
    Stopping is unavailable where y is +inf.
    """
    validate(arena)
    n = arena.n
    taken = set(arena.names)
    int_names = []
    for name in arena.names:
        cand = f"in_{name}"
        while cand in taken:
            cand += "_"
        taken.add(cand)
        int_names.append(cand)
    t_name = "t"
    while t_name in taken:
        t_name += "_"
    names = arena.names + tuple(int_names) + (t_name,)
    owners = arena.owners + tuple(Player.MIN for _ in range(n)) + (Player.MAX,)
    t = 2 * n
    edges = [(s, n + d, w) for s, d, w in arena.edges]
    for v in range(n):
        edges.append((n + v, v, 0))
        yv = y[v]
        if yv is not PLUS_INF:
            stop = 0 if yv is MINUS_INF else max(0, yv)
            edges.append((n + v, t, stop))
    edges.append((t, t, 0))
    return make_arena(names, owners, edges, [t], Objective.MCR)


def build_unfolding(arena: Arena, n_copies: int) -> Tuple[Arena, Dict[int, int]]:
    """Layered reachability game with n stop requests.

    Copy j in 1..n holds three vertices per original vertex v: the copy
    (v,j), its interior (in,v,j) where Min may request to stop, and its
    exterior (ex,v,j) where Max either accepts (to the target) or vetoes
    (down to copy j-1; absent for j=1).  Only copy edges carry the original
    weights.  Returns the arena and the map v -> index of (v, n).
    """
    validate(arena)
    if n_copies < 1:
        raise ValueError("need at least one copy")
    n = arena.n
    total = 3 * n * n_copies + 1
    if total > vertex_cap():
        raise CapExceededError(f"unfolding needs {total} vertices, cap is {vertex_cap()}")

    def copy_ix(v: int, j: int) -> int:
        return 3 * n * (j - 1) + v

    def int_ix(v: int, j: int) -> int:
        return 3 * n * (j - 1) + n + v

    def ext_ix(v: int, j: int) -> int:
        return 3 * n * (j - 1) + 2 * n + v

    t = 3 * n * n_copies
    names = []
    owners = []
    for j in range(1, n_copies + 1):
        for v in range(n):
            names.append(f"{arena.names[v]}_c{j}")
            owners.append(arena.owners[v])
        for v in range(n):
            names.append(f"in_{arena.names[v]}_c{j}")
            owners.append(Player.MIN)
        for v in range(n):
            names.append(f"ex_{arena.names[v]}_c{j}")
            owners.append(Player.MAX)
    names.append("t")
    owners.append(Player.MAX)
    edges = [(t, t, 0)]
    for j in range(1, n_copies + 1):
        for s, d, w in arena.edges:
            edges.append((copy_ix(s, j), int_ix(d, j), w))
        for v in range(n):
            edges.append((int_ix(v, j), copy_ix(v, j), 0))
            edges.append((int_ix(v, j), ext_ix(v, j), 0))
            edges.append((ext_ix(v, j), t, 0))
            if j > 1:
                edges.append((ext_ix(v, j), copy_ix(v, j - 1), 0))
    unfolded = make_arena(names, owners, edges, [t], Objective.MCR)
    top = {v: copy_ix(v, n_copies) for v in range(n)}
    return unfolded, top
