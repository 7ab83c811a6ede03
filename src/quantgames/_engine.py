"""The value-iteration kernel behind every solver loop.

Vectors are int64 numpy arrays with saturated sentinels for the two
infinities, ``POS = 2**62`` and ``NEG = -POS``.

Sentinel contract.  A sweep adds weights to sentinel continuations
without masking them: ``POS + w`` and ``NEG + w`` land within |w| of their
sentinel.  Exact sentinels are restored once per member, on the reduced
values: anything at or beyond +-``SNAP`` (2**61) becomes the sentinel on
its side.  That is exact while every finite value and every finite sum
stays strictly inside +-2**61 and every weight is far smaller than 2**61.
Under the caps |V| <= 10**6 and |w| <= 10**9, finite solver values are
bounded by |V|*W + W, about 10**15, and a sentinel plus a weight stays
within 10**9 of the sentinel; 2**61 is about 2.3 * 10**18, so neither side
can cross it, and ``POS + w`` cannot wrap past 2**63.  Callers whose sums
grow beyond the solver bound (``mcr.mp_sign``) check their own bound
against ``SNAP``.

The kernel works over an *edge slice*: member vertices with their
out-edges.  ``CompiledArena`` is the whole-arena slice, ``ComponentView``
the slice of one strongly connected component.  Contract:

- ``sweep`` is one Jacobi pass: the members' new values, all computed from
  the old vector.  Vertices outside the slice are read, never written.  It
  does one reduction, not a max and a min: each candidate is multiplied by
  its edge's sign (+1 from a Max vertex, -1 from a Min vertex), one
  ``np.maximum.reduceat`` runs, and the result is multiplied by the
  vertex's sign, since min(a) = -max(-a).  The sign is folded into the
  weights when the slice is built (``swt = wt * edge_sign``), so a
  candidate costs one multiply and one add.  Saturation survives the sign
  flip only because ``NEG == -POS``.
- ``fixpoint`` sweeps until the members stop changing.  After each sweep a
  post-step touches the members only: values below ``cutoff`` drop to -inf
  (descending) or values above ``lift`` rise to +inf (ascending), fused
  with the sentinel snap on the other side, then the optional candidate
  tables clamp them.  The returned count includes the final sweep that
  confirms stabilization.  Members still changing after more than
  ``bound`` sweeps raise ``UnsoundOracleError`` when tables clamp,
  ``AssertionError`` otherwise.
- ``nested_fixpoint`` is the outer total-payoff loop (inner solve, lift,
  compare with the previous outer vector), counted and bounded the same
  way by ``outer_bound``, raising ``AssertionError``.  A pass touches the
  slice and its out-edges only, so solving the components of an arena one
  after another costs time linear in the arena, not quadratic.

Component layout.  ``ComponentLayout`` copies the compiled edge arrays
once, sorted by component: vertices in the order of the concatenated
components, each component's members sorted, and every vertex's edges
after it.  The signs, the signed weights and the cycle-sign certificate's
local indices are computed on that copy, so the view of one component is
a set of basic slices of it, O(1) to build and sharing its memory.

Every operation broadcasts over a leading axis of weight rows: with ``wt``
of shape ``[rows, E]``, vectors ``[rows, n]`` and ``cutoff``/``lift``
columns ``[rows, 1]``, one call solves every weight assignment of a graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .arena import Arena, Player, ValueVector, max_abs_weight
from .extvalue import ExtValue, MINUS_INF, PLUS_INF

POS = np.int64(2**62)
NEG = np.int64(-(2**62))
SNAP = np.int64(2**61)  # finite values stay strictly inside +-SNAP


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
    swt: np.ndarray = field(init=False)  # wt * edge_sign

    def __post_init__(self) -> None:
        self.sign = np.where(self.is_max, 1, -1).astype(np.int64, copy=False)
        self.edge_sign = np.repeat(self.sign, out_degrees(self))
        self.swt = self.wt * self.edge_sign


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


class ComponentLayout:
    """The edge arrays of ``ca`` copied once in component order, so that
    ``view(q)`` is O(1).

    Vertices are ordered as the concatenation of ``components`` with each
    component's members sorted, so oracle tables line up with them; each
    vertex's edges follow in ``ca``'s order.  Per vertex: ``members``,
    ``is_max``, ``sign`` and ``starts`` (relative to the vertex's
    component).  Per edge: ``dst``, ``wt``, ``swt``, ``edge_sign``,
    ``edge_idx`` (the edge's index in ``ca``) and, for the cycle-sign
    certificate, ``inside`` (the edge stays in its component) with
    ``local_src``/``local_dst``, the endpoints' positions within it
    (``local_dst`` is meaningless off ``inside``).
    """

    VERTEX_FIELDS = ("members", "is_max", "sign", "starts")
    EDGE_FIELDS = ("dst", "wt", "swt", "edge_sign", "edge_idx", "inside", "local_src", "local_dst")

    def __init__(self, ca: CompiledArena, components: Sequence[Sequence[int]]) -> None:
        sizes = np.fromiter(map(len, components), dtype=np.int64, count=len(components))
        flat = np.fromiter(
            itertools.chain.from_iterable(components), dtype=np.int64, count=int(sizes.sum())
        )
        comp = np.repeat(np.arange(len(sizes)), sizes)
        order = flat[np.lexsort((flat, comp))]
        vstart = np.concatenate(([0], np.cumsum(sizes)))
        deg = out_degrees(ca)[order]
        ecum = np.concatenate(([0], np.cumsum(deg)))
        estart = ecum[vstart]
        # Edge j of the vertex at layout position p sits at ca index
        # ca.starts[order[p]] + (j - ecum[p]).
        edge_idx = np.repeat(ca.starts[order] - ecum[:-1], deg) + np.arange(ecum[-1])
        pos = np.arange(len(order)) - np.repeat(vstart[:-1], sizes)  # within its component
        comp_of = np.full(ca.n, -1, dtype=np.int64)
        comp_of[order] = comp
        local = np.zeros(ca.n, dtype=np.int64)
        local[order] = pos
        self.members = order
        self.is_max = ca.is_max[order]
        self.sign = ca.sign[order]
        self.starts = ecum[:-1] - np.repeat(estart[:-1], sizes)
        self.dst = ca.dst[edge_idx]
        self.wt = ca.wt[edge_idx]
        self.swt = ca.swt[edge_idx]
        self.edge_sign = ca.edge_sign[edge_idx]
        self.edge_idx = edge_idx
        self.inside = comp_of[self.dst] == np.repeat(comp, deg)
        self.local_src = np.repeat(pos, deg)
        self.local_dst = local[self.dst]
        self._bounds = list(zip(vstart.tolist(), vstart[1:].tolist(),
                                estart.tolist(), estart[1:].tolist()))

    def view(self, q: int) -> ComponentView:
        """Component ``q``'s slice: basic slices of the layout arrays."""
        view = ComponentView.__new__(ComponentView)
        self._fill(view, q)
        return view

    def _fill(self, view: ComponentView, q: int) -> None:
        v0, v1, e0, e1 = self._bounds[q]
        for name in self.VERTEX_FIELDS:
            setattr(view, name, getattr(self, name)[v0:v1])
        for name in self.EDGE_FIELDS:
            setattr(view, name, getattr(self, name)[e0:e1])


class ComponentView(EdgeSlice):
    """The slice of a set of members of ``ca``, such as one strongly
    connected component: the one view of a layout over that member set.
    Carries the ``ComponentLayout`` fields, sliced to the component."""

    def __init__(self, ca: CompiledArena, members: Sequence[int]) -> None:
        ComponentLayout(ca, [members])._fill(self, 0)


def candidates(sl: EdgeSlice, cont: np.ndarray) -> np.ndarray:
    """Each edge's weight plus the continuation ``cont`` at its
    destination, saturated: a sentinel continuation stays that sentinel."""
    cand = sl.wt + cont
    np.copyto(cand, POS, where=cont >= POS)
    np.copyto(cand, NEG, where=cont <= NEG)
    return cand


def _reduce(sl: EdgeSlice, x: np.ndarray, ytrans: Optional[np.ndarray]) -> np.ndarray:
    """The members' new values before the sentinel snap: values at or
    beyond +-``SNAP`` stand for the sentinel on their side."""
    cont = x.take(sl.dst, axis=-1)
    if ytrans is not None:
        np.minimum(cont, ytrans.take(sl.dst, axis=-1), out=cont)
    cont *= sl.edge_sign
    cont += sl.swt
    best = np.maximum.reduceat(cont, sl.starts, axis=-1)
    best *= sl.sign
    return best


def sweep(sl: EdgeSlice, x: np.ndarray, ytrans: Optional[np.ndarray] = None) -> np.ndarray:
    """One Jacobi update of the slice's members; returns their new values.

    With ``ytrans`` the continuation of each successor is min(x, ytrans)
    (the stop-request form used by the total-payoff inner loop); without it
    the continuation is x itself.
    """
    new = _reduce(sl, x, ytrans)
    new[new >= SNAP] = POS
    new[new <= -SNAP] = NEG
    return new


def _clamp(new: np.ndarray, tables: Sequence[Optional[np.ndarray]], up: bool) -> None:
    """Snap each member onto its sorted table: to the largest entry not
    above it going down, the smallest not below it going up.  Tables always
    hold both sentinels, so both searches stay in range."""
    for i, table in enumerate(tables):
        if table is not None:
            if up:
                new[i] = table[table.searchsorted(new[i], side="left")]
            else:
                new[i] = table[table.searchsorted(new[i], side="right") - 1]


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
        new = _reduce(sl, x, ytrans)
        # cutoff and lift lie inside +-SNAP, so each also restores one
        # sentinel; one more masked copy restores the other.
        if lift is None:
            new[new < cutoff] = NEG
            new[new >= SNAP] = POS
        else:
            new[new > lift] = POS
            new[new <= -SNAP] = NEG
        if tables is not None:
            _clamp(new, tables, up=lift is not None)
        sweeps += 1
        stable = not (new != x[m]).any()
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
        new[new > lift] = POS
        x[m] = new
        passes += 1
        stable = not (new != prev).any()
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
