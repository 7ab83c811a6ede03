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
from typing import Dict, Optional

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


class IterationTrace:
    """Recorded iterate sequence x_0, x_1, ..., x_sweeps, pointwise
    non-increasing, as ``fixpoint`` appends it.  Row k of the int64 matrix
    ``raw`` is x_k, with the ``_engine`` sentinels for +-inf: 8 bytes per
    vertex per sweep; indexing builds ``ValueVector``s.  The matrix grows in
    place by a quarter (``ndarray.resize``), never holding two copies, and
    ``finish`` trims it to the rows stored before the values are built."""

    def __init__(self, arena: Arena, x0: np.ndarray) -> None:
        self.arena = arena
        self.raw = np.empty((64, len(x0)), dtype=np.int64)
        self._rows = 0
        self.append(x0)

    def append(self, x: np.ndarray) -> None:
        if self._rows == len(self.raw):
            self.raw.resize((self._rows + self._rows // 4, self.raw.shape[1]), refcheck=False)
        self.raw[self._rows] = x
        self._rows += 1

    def trim(self) -> None:
        self.raw.resize((self._rows, self.raw.shape[1]), refcheck=False)

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, i: int) -> ValueVector:
        return eng.from_array(self.arena, self.raw[i])


@dataclass
class SolveResult:
    """The values, loop counts and, from a traced ``solve_mcr``, iterates."""

    values: ValueVector
    stats: SolveStats
    trace: Optional[IterationTrace] = None


def finish(arena: Arena, raw, stats: SolveStats, started: float, trace=None) -> SolveResult:
    """Every solver's epilogue: sweeps are the inner loop bodies, the clock
    runs from ``started``, a trace is trimmed and one conversion reads ``raw``."""
    stats.sweeps = stats.inner_iterations
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    if trace is not None:
        trace.trim()
    return SolveResult(eng.from_array(arena, np.asarray(raw, dtype=np.int64)), stats, trace)


def sweep_bound(n: int, W: int) -> int:
    """Upper bound on sweeps until stabilization (finite case plus the
    per-vertex -inf drops)."""
    return (2 * n - 1) * W * n + 2 * n


def solve_mcr(arena: Arena, *, with_trace: bool = False) -> SolveResult:
    """Solve a normalized min-cost reachability game exactly.

    The target keeps value 0; vertices that cannot be forced into the
    target are +inf; vertices Min can improve below -(|V|-1)W are -inf;
    all other values are the greatest fixed point of the update operator.
    """
    validate(arena)
    if not is_normalized_mcr(arena):
        raise ArenaError("solve_mcr expects a normalized MCR arena")
    started = time.perf_counter()
    (t,) = arena.targets
    ca = eng.CompiledArena(arena)
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    x[t] = 0
    trace = IterationTrace(arena, x) if with_trace else None
    sweeps = eng.fixpoint(ca, x, sweep_bound(arena.n, ca.W) + 1, cutoff=ca.cutoff, trace=trace)
    return finish(arena, x, SolveStats(inner_iterations=sweeps, outer_iterations=1), started, trace)


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
    validate(arena)
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
