"""The value-iteration kernel behind every solver loop.

Vectors are int64 numpy arrays with saturated sentinels for the two
infinities.  Finite solver values are bounded by |V|*W + W, far below the
sentinel magnitude, so ``weight + sentinel`` cannot wrap and a mask pass
restores exact sentinels after each sweep.

The kernel works over an *edge slice*: member vertices with their
out-edges.  ``CompiledArena`` is the whole-arena slice, ``ComponentView``
the slice of one strongly connected component.  Contract:

- ``sweep`` is one Jacobi pass: the members' new values, all computed from
  the old vector.  Vertices outside the slice are read, never written.  It
  does one reduction, not a max and a min: each candidate is multiplied by
  its edge's sign (+1 from a Max vertex, -1 from a Min vertex), one
  ``np.maximum.reduceat`` runs, and the result is multiplied by the
  vertex's sign, since min(a) = -max(-a).  That is exact on the sentinels
  only because ``NEG == -POS``.  Both sign arrays are derived when the
  slice is built, so every sweep of a slice shares them.
- ``fixpoint`` sweeps until the members stop changing.  After each sweep a
  post-step touches the members only: values below ``cutoff`` drop to -inf
  (descending) or values above ``lift`` rise to +inf (ascending), then the
  optional candidate tables clamp them.  The returned count includes the
  final sweep that confirms stabilization.  Members still changing after
  more than ``bound`` sweeps raise ``UnsoundOracleError`` when tables
  clamp, ``AssertionError`` otherwise.
- ``nested_fixpoint`` is the outer total-payoff loop (inner solve, lift,
  compare with the previous outer vector), counted and bounded the same
  way by ``outer_bound``, raising ``AssertionError``.  A pass touches the
  slice and its out-edges only, so solving the components of an arena one
  after another costs time linear in the arena, not quadratic.

Every operation broadcasts over a leading axis of weight rows: with ``wt``
of shape ``[rows, E]``, vectors ``[rows, n]`` and ``cutoff``/``lift``
columns ``[rows, 1]``, one call solves every weight assignment of a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .arena import Arena, Player, ValueVector, max_abs_weight
from .extvalue import ExtValue, MINUS_INF, PLUS_INF

POS = np.int64(2**62)
NEG = np.int64(-(2**62))


class UnsoundOracleError(RuntimeError):
    """A component clamped onto candidate tables failed to stabilize."""


@dataclass(eq=False)
class EdgeSlice:
    """Member vertices and their out-edges; member i owns the edges
    ``starts[i]`` up to ``starts[i + 1]`` of ``dst`` and ``wt``."""

    members: Union[np.ndarray, slice]  # slice(None) for every vertex
    dst: np.ndarray
    wt: np.ndarray
    starts: np.ndarray
    is_max: np.ndarray
    sign: np.ndarray = field(init=False)  # per member: +1 Max, -1 Min
    edge_sign: np.ndarray = field(init=False)  # sign of each edge's source

    def __post_init__(self) -> None:
        self.sign = np.where(self.is_max, 1, -1).astype(np.int64, copy=False)
        self.edge_sign = np.repeat(self.sign, out_degrees(self))


def out_degrees(sl: EdgeSlice) -> np.ndarray:
    """Edge count of each member of the slice."""
    return np.concatenate((sl.starts[1:], [len(sl.dst)])) - sl.starts


class CompiledArena(EdgeSlice):
    """The whole-arena slice: edge arrays sorted by (src, dst)."""

    def __init__(self, arena: Arena) -> None:
        self.arena = arena
        n = arena.n
        self.n = n
        self.W = max_abs_weight(arena)
        # One contiguous row each for src, dst and w, sorted by (src, dst).
        self.src, dst, wt = arena.edge_array.T.copy()
        super().__init__(
            slice(None),
            dst,
            wt,
            np.searchsorted(self.src, np.arange(n, dtype=np.int64)),
            np.fromiter((o is Player.MAX for o in arena.owners), dtype=bool, count=n),
        )
        self.cutoff = np.int64(-(n - 1) * self.W)


class ComponentView(EdgeSlice):
    """The slice of a set of members of ``ca``, such as one strongly
    connected component; built in time linear in its members and edges."""

    def __init__(self, ca: CompiledArena, members: Sequence[int]) -> None:
        marr = np.asarray(sorted(members), dtype=np.int64)
        lo = ca.starts[marr]
        hi = np.where(marr + 1 < ca.n, ca.starts.take(marr + 1, mode="clip"), len(ca.dst))
        counts = hi - lo
        starts = np.cumsum(counts) - counts
        # Edge j of member i sits at ca index lo[i] + (j - starts[i]).
        self.edge_idx = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        super().__init__(
            marr,
            ca.dst[self.edge_idx],
            ca.wt[self.edge_idx],
            starts,
            ca.is_max[marr],
        )


def candidates(sl: EdgeSlice, cont: np.ndarray) -> np.ndarray:
    """Each edge's weight plus the continuation ``cont`` at its
    destination, saturated: a sentinel continuation stays that sentinel."""
    cand = sl.wt + cont
    np.copyto(cand, POS, where=cont >= POS)
    np.copyto(cand, NEG, where=cont <= NEG)
    return cand


def sweep(sl: EdgeSlice, x: np.ndarray, ytrans: Optional[np.ndarray] = None) -> np.ndarray:
    """One Jacobi update of the slice's members; returns their new values.

    With ``ytrans`` the continuation of each successor is min(x, ytrans)
    (the stop-request form used by the total-payoff inner loop); without it
    the continuation is x itself.
    """
    cont = x.take(sl.dst, axis=-1)
    if ytrans is not None:
        cont = np.minimum(cont, ytrans.take(sl.dst, axis=-1))
    cand = candidates(sl, cont)
    cand *= sl.edge_sign
    best = np.maximum.reduceat(cand, sl.starts, axis=-1)
    best *= sl.sign
    return best


def _clamp(new: np.ndarray, tables: Sequence[Optional[np.ndarray]], up: bool) -> None:
    """Snap each member onto its sorted table: to the largest entry not
    above it going down, the smallest not below it going up.  Tables always
    hold both sentinels, so both searches stay in range."""
    for i, table in enumerate(tables):
        if table is not None:
            if up:
                new[i] = table[np.searchsorted(table, new[i], side="left")]
            else:
                new[i] = table[np.searchsorted(table, new[i], side="right") - 1]


def _member_index(sl: EdgeSlice, x: np.ndarray):
    """Index of the slice's members along the last axis of ``x``; a plain
    index on one vector, which numpy applies faster than ``(..., members)``."""
    return sl.members if x.ndim == 1 else (..., sl.members)


def fixpoint(
    sl: EdgeSlice,
    x: np.ndarray,
    bound: int,
    *,
    cutoff=None,
    lift=None,
    ytrans: Optional[np.ndarray] = None,
    tables: Optional[Sequence[Optional[np.ndarray]]] = None,
    trace=None,
) -> int:
    """Sweep the slice until its members are stable, updating ``x`` in
    place; descending with ``cutoff``, ascending with ``lift``.  Calls
    ``trace.append(x)`` after every sweep when given; the callee copies.
    Returns the sweep count."""
    m = _member_index(sl, x)
    sweeps = 0
    while True:
        new = sweep(sl, x, ytrans)
        if lift is None:
            np.copyto(new, NEG, where=new < cutoff)
        else:
            np.copyto(new, POS, where=new > lift)
        if tables is not None:
            _clamp(new, tables, up=lift is not None)
        sweeps += 1
        stable = np.array_equal(new, x[m])
        x[m] = new
        if trace is not None:
            trace.append(x)
        if stable:
            return sweeps
        if sweeps > bound:
            if tables is not None:
                raise UnsoundOracleError("component failed to stabilize")
            raise AssertionError("value iteration exceeded its sweep bound")


def nested_fixpoint(
    sl: EdgeSlice,
    x: np.ndarray,
    y: np.ndarray,
    *,
    cutoff,
    lift,
    inner_bound: int,
    outer_bound: int,
    inner: Optional[Callable[[], int]] = None,
) -> Tuple[int, int]:
    """Climb the outer vector ``y`` on the slice's members until a pass
    leaves it unchanged; ``x`` ends equal to ``y`` there.

    Each pass re-solves ``x`` on the members by ``inner`` (by default the
    stop-request iteration: from +inf down, each successor capped by
    max(y, 0)), lifts values above ``lift`` to +inf and stores the result
    in ``y``.  Returns (passes, inner sweeps), both counting the final
    confirming pass.

    Successors outside the slice must be finished, with ``x`` equal to
    ``y`` there, as a previous call leaves them.  The cap is then a no-op
    outside the members, so the default pass caps ``y`` in place on the
    members and reads it as the cap: O(slice) per pass, not O(n).
    """
    m = _member_index(sl, x)
    if inner is None:
        def inner() -> int:
            y[m] = np.maximum(y[m], 0)
            x[m] = POS
            return fixpoint(sl, x, inner_bound, cutoff=cutoff, ytrans=y)
    passes = sweeps = 0
    while True:
        prev = y[m].copy()
        sweeps += inner()
        new = x[m]
        np.copyto(new, POS, where=new > lift)
        x[m] = new
        passes += 1
        stable = np.array_equal(new, prev)
        y[m] = new
        if stable:
            return passes, sweeps
        if passes > outer_bound:
            raise AssertionError("outer iteration exceeded its pass bound")


def ext_of_raw(raw: int) -> ExtValue:
    if raw >= POS:
        return PLUS_INF
    if raw <= NEG:
        return MINUS_INF
    return int(raw)


def raw_of_ext(v: ExtValue) -> int:
    if v is PLUS_INF:
        return int(POS)
    if v is MINUS_INF:
        return int(NEG)
    return int(v)


def to_array(values: Sequence[ExtValue]) -> np.ndarray:
    return np.array([raw_of_ext(v) for v in values], dtype=np.int64)


def from_array(arena: Arena, x: np.ndarray) -> ValueVector:
    return ValueVector(arena, [ext_of_raw(raw) for raw in x.tolist()])
