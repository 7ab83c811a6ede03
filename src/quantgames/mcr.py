"""Value iteration for min-cost reachability games.

The solver iterates the one-step optimality operator from above (Knaster-
Tarski greatest fixed point), with an early drop to -inf once a vertex is
provably improvable without bound.  Also home to the mean-payoff sign
classifier, two runs of the kernel's stop-request fixpoint (on the arena
and on its dual, with owners swapped and weights negated), and the
mean-payoff-to-reachability reduction used to validate the -inf rule; the
reduction is built on the input's int64 edge array.
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
    Objective,
    Player,
    ValueVector,
    edge_rows,
    fresh_names,
    is_normalized_mcr,
    make_arena,
    validate,
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
    """Recorded iterate sequence x_0, x_1, ..., x_sweeps; pointwise
    non-increasing.  Row k of the int64 matrix ``raw`` is x_k, with the
    ``_engine`` sentinels for +-inf: 8 bytes per vertex per sweep.
    Indexing and ``vectors`` build ``ValueVector``s on demand."""

    arena: Arena
    raw: np.ndarray

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, i: int) -> ValueVector:
        return eng.from_array(self.arena, self.raw[i])

    @property
    def vectors(self) -> List[ValueVector]:
        return [self[i] for i in range(len(self))]


class _TraceRows:
    """The int64 matrix ``fixpoint`` appends the iterates to.  It grows in
    place by a quarter (``ndarray.resize``), so it never holds two copies
    and its capacity stays within 1.25 times the rows stored."""

    def __init__(self, x0: np.ndarray) -> None:
        self.raw = np.empty((64, len(x0)), dtype=np.int64)
        self.rows = 0
        self.append(x0)

    def append(self, x: np.ndarray) -> None:
        if self.rows == len(self.raw):
            self.raw.resize((self.rows + self.rows // 4, self.raw.shape[1]), refcheck=False)
        self.raw[self.rows] = x
        self.rows += 1

    def matrix(self) -> np.ndarray:
        self.raw.resize((self.rows, self.raw.shape[1]), refcheck=False)
        return self.raw


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
    rows = _TraceRows(x) if with_trace else None
    sweeps = eng.fixpoint(ca, x, sweep_bound(arena.n, ca.W) + 1, cutoff=ca.cutoff, trace=rows)
    stats = SolveStats(sweeps=sweeps, inner_iterations=sweeps, outer_iterations=1)
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    trace = IterationTrace(arena, rows.matrix()) if with_trace else None
    return McrResult(eng.from_array(arena, x), stats, trace)


class Sign(Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


def mp_sign(arena: Arena) -> Dict[int, Sign]:
    """Sign of the mean-payoff value of every vertex (targets ignored).

    Each side runs ``solve_tp``'s first inner pass: the stop-request
    fixpoint x = op(min(x, 0)) from +inf, values below the cutoff
    -(|V|-1)W dropping to -inf; the least-credit fixpoint of energy games
    (Brim, Chaloupka, Doyen, Gentilini and Raskin, "Faster algorithms for
    mean-payoff games", FMSD 2011).  If MP(v) >= 0, a memoryless Max
    strategy closes only non-negative cycles, so every partial sum from v,
    and every iterate from +inf, is at least the cutoff: v never drops.
    If MP(v) < 0, v's total payoff is -inf, and ``solve_tp``'s outer
    vector, which only climbs, holds -inf there after this first pass.  So
    MP < 0 exactly where the run reaches -inf.  The dual slice (owners
    swapped, weights negated) negates every mean payoff, so there reaching
    -inf means MP > 0.
    """
    n = arena.n
    ca = eng.CompiledArena(arena)
    dual = eng.EdgeSlice(ca.dst, -ca.wt, ca.starts, ~ca.is_max)
    bound = sweep_bound(n, ca.W) + 1
    drops = []
    for sl in (ca, dual):
        x = np.full(n, eng.POS, dtype=np.int64)
        eng.fixpoint(sl, x, bound, cutoff=ca.cutoff, ytrans=np.zeros(n, dtype=np.int64))
        drops.append(x <= eng.NEG)
    neg, pos = drops
    return {v: Sign(s) for v, s in enumerate(np.where(neg, -1, pos).tolist())}


def make_bipartite(arena: Arena) -> Arena:
    """Insert a relay of the opposite owner on every same-owner edge.

    The relay of the k-th same-owner edge (s, d), in edge order, is vertex
    n + k, named ``r{s}_{d}`` unless that name is taken; it takes the
    edge's weight in and forwards to d for free.
    """
    validate(arena)
    src, dst, _ = arena.edge_array.T
    is_max = np.array([o is Player.MAX for o in arena.owners])
    same = np.flatnonzero(is_max[src] == is_max[dst])
    pairs = arena.edge_array[same, :2].tolist()
    relays = np.arange(arena.n, arena.n + len(same))
    names = arena.names + tuple(fresh_names(arena.names, [f"r{s}_{d}" for s, d in pairs]))
    owners = arena.owners + tuple(arena.owners[s].opponent() for s, _ in pairs)
    edges = arena.edge_array.copy()
    edges[same, 1] = relays
    edges = np.concatenate((edges, edge_rows(relays, dst[same])))
    return make_arena(names, owners, edges, arena.targets, arena.objective)


def mp_to_mcr(arena: Arena) -> Arena:
    """Reduce a mean-payoff game to min-cost reachability.

    The image is ``make_bipartite``'s with a fresh Max target; every Min
    vertex gains a free escape to the target.  A vertex has negative mean
    payoff exactly when its image has reachability value -inf.  Original
    vertices keep their indices.
    """
    bip = make_bipartite(arena)
    t = bip.n
    names = bip.names + tuple(fresh_names(bip.names, ["t"]))
    owners = bip.owners + (Player.MAX,)
    mins = np.flatnonzero([o is Player.MIN for o in bip.owners])
    edges = np.concatenate((bip.edge_array, edge_rows(mins, t), edge_rows(t, t)))
    return make_arena(names, owners, edges, [t], Objective.MCR)
