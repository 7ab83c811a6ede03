"""Value iteration for min-cost reachability games.

The solver iterates the one-step optimality operator from above (Knaster-
Tarski greatest fixed point), with an early drop to -inf once a vertex is
provably improvable without bound.  Also home to the mean-payoff sign
classifier and the mean-payoff-to-reachability reduction used to validate
the -inf rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from . import _engine as eng
from .arena import (
    Arena,
    ArenaError,
    CapExceededError,
    Objective,
    Player,
    ValueVector,
    fresh_name,
    is_normalized_mcr,
    make_arena,
    max_abs_weight,
)


@dataclass
class SolveStats:
    """Loop-body counts; every execution of a repeat body counts, including
    the final pass that confirms stabilization."""

    sweeps: int = 0
    inner_iterations: int = 0
    outer_iterations: int = 0
    wall_ms: int = 0

    COUNTING_CONVENTION = "repeat-body"


@dataclass
class IterationTrace:
    """Recorded iterate sequence x_0, x_1, ...; pointwise non-increasing."""

    vectors: List[ValueVector]

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> ValueVector:
        return self.vectors[i]


@dataclass
class McrResult:
    values: ValueVector
    stats: SolveStats
    trace: Optional[IterationTrace] = None


def sweep_bound(n: int, W: int) -> int:
    """Upper bound on sweeps until stabilization (finite case plus the
    per-vertex -inf drops)."""
    return (2 * n - 1) * W * n + 2 * n


def solve_mcr(arena: Arena, *, with_trace: bool = False) -> McrResult:
    """Solve a normalized min-cost reachability game exactly.

    The target keeps value 0; vertices that cannot be forced into the
    target are +inf; vertices Min can improve below -(|V|-1)W are -inf;
    all other values are the greatest fixed point of the update operator.
    """
    if not is_normalized_mcr(arena):
        raise ArenaError("solve_mcr expects a normalized MCR arena")
    started = time.perf_counter()
    (t,) = arena.targets
    ca = eng.CompiledArena(arena)
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    x[t] = 0
    raw_trace: Optional[List[np.ndarray]] = [x.copy()] if with_trace else None
    sweeps = eng.fixpoint(ca, x, sweep_bound(arena.n, ca.W) + 1, cutoff=ca.cutoff, trace=raw_trace)
    stats = SolveStats(sweeps=sweeps, inner_iterations=sweeps, outer_iterations=1)
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    trace = (
        IterationTrace([eng.from_array(arena, v) for v in raw_trace]) if with_trace else None
    )
    return McrResult(eng.from_array(arena, x), stats, trace)


class Sign(Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


MP_CAP = 10**14


def mp_sign(arena: Arena) -> Dict[int, Sign]:
    """Sign of the mean-payoff value of every vertex (targets ignored).

    Runs the finite-horizon optimal-sum recurrence for N = 4|V|^2 W + 1
    steps; a nonzero mean payoff has magnitude >= 1/|V| while the horizon
    error is below 1/(2|V|), so comparing 2|V| x_N(v) against +/-N decides
    the sign exactly.
    """
    n = arena.n
    W = max_abs_weight(arena)
    if n * n * W > MP_CAP:
        raise CapExceededError(f"|V|^2 W = {n * n * W} exceeds {MP_CAP}")
    steps = 4 * n * n * W + 1
    ca = eng.CompiledArena(arena)
    x = np.zeros(n, dtype=np.int64)
    for _ in range(steps):
        cand = ca.wt + x[ca.dst]
        red_max = np.maximum.reduceat(cand, ca.starts)
        red_min = np.minimum.reduceat(cand, ca.starts)
        x = np.where(ca.is_max, red_max, red_min)
    out: Dict[int, Sign] = {}
    for v in range(n):
        lhs = 2 * n * int(x[v])
        if lhs > steps:
            out[v] = Sign.POSITIVE
        elif lhs < -steps:
            out[v] = Sign.NEGATIVE
        else:
            out[v] = Sign.ZERO
    return out


def make_bipartite(arena: Arena) -> Arena:
    """Insert a relay of the opposite owner on every same-owner edge."""
    names = list(arena.names)
    owners = list(arena.owners)
    edges = []
    for s, d, w in arena.edges:
        if arena.owners[s] is arena.owners[d]:
            r = len(names)
            names.append(fresh_name(names, f"r{s}_{d}"))
            owners.append(arena.owners[s].opponent())
            edges.append((s, r, w))
            edges.append((r, d, 0))
        else:
            edges.append((s, d, w))
    return make_arena(names, owners, edges, arena.targets, arena.objective)


def mp_to_mcr(arena: Arena) -> Arena:
    """Reduce a mean-payoff game to min-cost reachability.

    The image is bipartite with a fresh Max target; every Min vertex gains
    a free escape to the target.  A vertex has negative mean payoff exactly
    when its image has reachability value -inf.  Original vertices keep
    their indices.
    """
    bip = make_bipartite(
        make_arena(arena.names, arena.owners, arena.edges, [], Objective.TP)
    )
    t = bip.n
    names = bip.names + (fresh_name(bip.names, "t"),)
    owners = bip.owners + (Player.MAX,)
    edges = list(bip.edges)
    for v in range(bip.n):
        if bip.owners[v] is Player.MIN:
            edges.append((v, t, 0))
    edges.append((t, t, 0))
    return make_arena(names, owners, edges, [t], Objective.MCR)
