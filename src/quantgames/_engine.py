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
can cross it, and ``POS + w`` cannot wrap past 2**63.

The kernel works over an *edge slice*: k member vertices with their
out-edges, swept on a vector whose first k entries are the members.  An
edge's destination is a position in that vector: a member below k, an
*exit* from k on, a finished vertex outside the slice.  ``CompiledArena``
is the whole-arena slice, every vertex a member at its own id and no
exit; ``ComponentLayout.view`` gives the slice of one strongly connected
component, in the component's local numbering.  Contract:

- ``sweep`` is one Jacobi pass: the members' new values, all computed from
  the old vector.  Exits are read, never written.  It takes one maximum,
  not a max and a min, since min(a) = -max(-a): it gathers from the
  *signed buffer* [z, -z] (z = min(x, ytrans), or x), a Max member's
  edges from z and a Min member's from -z with their weights negated, so
  one gather and one add give each candidate signed, and it multiplies
  each member's maximum by its sign (+1 Max, -1 Min).  Saturation
  survives the negation only because ``NEG == -POS``.
  ``accel.cycle_sign_certificates`` runs it for a counted number of
  rounds, where a fixpoint would not stop.
- ``fixpoint`` sweeps until the members stop changing.  It builds the signed
  buffer once a call, and after each sweep rewrites only the members'
  entries (one minimum with ``ytrans``, one negation).  Each sweep's
  post-step touches the members only: values below ``cutoff`` drop to -inf
  (descending) or values above ``lift`` rise to +inf (ascending), fused with
  the sentinel snap on the other side, then the optional candidate tables
  clamp them.  The returned count includes the final sweep that confirms
  stabilization.  Members still changing after more than ``bound`` sweeps
  raise ``UnsoundOracleError`` when tables clamp, ``AssertionError``
  otherwise.  From +inf with ``ytrans`` = 0 and the cutoff, it is the
  stop-request fixpoint that ``mcr.mp_sign`` reads mean-payoff signs from.
- ``nested_fixpoint`` is the outer total-payoff loop (the stop-request
  solve, lift, compare with the previous outer vector), counted and
  bounded the same way by ``outer_bound``, raising ``AssertionError``.  A
  pass touches the slice's vectors only, so solving the components of an
  arena one after another costs time linear in the arena, not quadratic.

Column form.  A sweep reads the edges in the padded-column (ELL) layout of
Bell and Garland, "Implementing sparse matrix-vector multiplication on
throughput-oriented processors" (SC 2009), not in CSR order.  A slice of
k members and E edges has width D = min(max out-degree, ceil(2E/k)), and
its ``cols`` (a ``ColumnForm``, built by ``_column_form`` on the first
numpy sweep of the slice and kept) hold its edges as row-major ``[D, k]``
tables: row j holds each member's j-th out-edge, and a member with fewer
than D edges repeats its last one.  A repeated candidate changes neither
a max nor a min, so the padding is exact.  ``cdst`` holds each edge's
position in the signed buffer, its destination d for a Max member and
``span`` + d for a Min member, and ``cswt`` its weight times the member's
sign; ``span``, max(k, largest destination + 1), is the length of vector
the slice reads.

The per-member maximum is then a halving over the rows: ``np.maximum`` of
the top half of the live rows into the bottom half, ceil(log2 D) calls in
all (one for D = 2), each in place.  Each call is elementwise over whole
rows, where ``np.maximum.reduceat`` pays a fixed cost per member however
short its edge list.  Edges past column D go to a CSR ``overflow`` that
only members with more than D edges use; one ``reduceat`` over it runs
only when it is not empty.  Each table holds D*k <= 2E + k entries, even on
a star graph, and the overflow at most E.  ``dst``, ``wt`` and ``starts``
stay for the scalar form, the in-edge index and the certificate.

Component layout.  ``ComponentLayout`` copies the compiled edge arrays
once, sorted by component from one label per vertex: vertices by label,
each component's members ascending (a stable argsort of the labels), and
every vertex's edges after it.  It gives every component one local
numbering: its k members at 0..k-1, then one slot per exit edge, k on,
in edge order, so two exit edges to one vertex take two slots.  Each
edge's destination in that numbering (``ldst``) and each component's
vertex at each position (``ids``: its members, then its exits'
destinations) are computed for the whole layout at once, so the view of
one component is a set of basic slices of it, O(1) to build and sharing
its memory.  A solver gathers a component's local vector from its
finished values by ``ids``, sweeps it and writes the first k entries
back, so it holds finished values in one place.  The layout keeps no
column form: like every slice, a view builds its own on its first numpy
sweep, so a view that only sweeps in scalar form (below) never builds
one, and a view above the floor builds it once for all the passes of its
``nested_fixpoint``.

Frontier sweeps.  On one vector over a slice of at least
``FRONTIER_MIN_EDGES`` edges, ``fixpoint`` keeps a worklist of the members
that can change, as the mean-payoff solver of Brim, Chaloupka, Doyen,
Gentilini and Raskin ("Faster algorithms for mean-payoff games", FMSD
2011) keeps its inconsistent vertices.  A sweep computes a member from its
successors' values, ``ytrans`` (fixed for the call), its table and
``cutoff``/``lift``.  So a member none of whose successors changed in the
last sweep gets back the value it holds, and only the *dirty* members,
those with an edge into a member that just changed, are recomputed: their
columns are taken from the column form and reduced, snapped and clamped as
in a full sweep, and only their entries of the signed buffer are
rewritten.  Every iterate, trace row, sweep count, stop test and bound
error is the same as with full sweeps.  The first sweep stays full, since
the start vector is not the output of any sweep; a sweep after one that
changed an eighth of the members, or with a third of them dirty, runs in
full too, which costs less then.  The dirty set comes from the slice's
in-edge index, built on first use from its edges between members: an exit
leads to a finished vertex that no sweep of the slice changes.  The floor
is tested once per call, and one loop serves both forms: a full sweep is a
frontier sweep with every member dirty.  The floor sits near the measured
crossover: on seeded random reachability arenas the two loops cost the
same at about 3,000 edges, and below it the frontier's extra numpy calls
(about 19 us a sweep) cost more than the member updates they save.
``sweep`` stays full, and so do weight-row batches.

Scalar sweeps.  A numpy sweep makes about thirteen array calls (take,
add, maximum, sign multiply, snaps, compare, store, buffer refresh,
count), which cost about 6-7.5 us whatever the slice size (on one core
of a 2-vCPU x86 VM, as are the times below), so on the one- and
two-vertex components of a chain condensation that fixed cost is nearly
all of a solve.  On one vector over a slice of at most
``SCALAR_MAX_EDGES`` edges, and without a trace, ``fixpoint`` therefore
runs its Jacobi sweeps on Python ints, by ``scalar_sweeps``, the one
scalar loop.  It takes ``fixpoint``'s arguments as lists in the slice's
numbering, with the slice's scalar form in place of the slice: it folds
each member's exit edges (whose values the call never writes) into its
start, each continuation min(x, ytrans), sweeps lists, compares the old
and new lists with ``==`` and leaves the members' values in the first k
entries of its list, which ``fixpoint`` stores into ``x`` once.
``nested_fixpoint``'s passes call ``fixpoint``, so a small slice's inner
sweeps take this form inside the numpy outer loop.  The accelerated
solvers run ``scalar_sweeps`` on a small component's scalar form and its
values gathered from their list of finished values: no view and no
numpy call.  Python ints are exact, so a candidate on a sentinel
continuation lands within a weight of the sentinel as in int64, and the
same post-step follows in the same order: the cutoff or the lift fused
with the snap at +-``SNAP``, then the clamp, by ``bisect`` on the
tables, sorted lists (``_clamp``, which the numpy loop shares).  So every
iterate, sweep count, stop test and bound error equals the numpy loop's.
A slice's lists (its ``scalar`` form) are taken on first use and kept
for its later calls.  A component pass and the path oracle take them
from the layout, which builds the forms of a run of up to
``ComponentLayout.SCALAR_RUN`` consecutive components, all small but
perhaps the first, in one pass: one ``tolist`` per layout field and one
Python loop over their members, where building each view's lists from
its own slices cost about 6.5 us a component in numpy calls.  The layout
keeps the run it built last, so that a component's oracle and pass
share its form, until it builds the next, so it never holds the lists of
more than one run.  On a 20,000-vertex random reachability game with
4,372 one-vertex components, runs of up to 4,096 components, which hold
nearly all of them at once, raised the peak memory of the process around
the solve by about 2 MB (3.5%) over runs of 64.  The floor sits at the
measured crossover: on seeded random reachability arenas a scalar sweep
costs 2.2-3.1 us at up to 11 edges against 6.8-7.5 us in numpy, and the
two meet at about 48 edges, where a numpy sweep costs 7-7.5 us whatever
the size.  ``sweep``, weight-row batches and traced solves stay in numpy.

Every operation broadcasts over a leading axis of weight rows: with ``wt``
of shape ``[rows, E]``, vectors ``[rows, n]`` and ``cutoff``/``lift``
columns ``[rows, 1]``, one call solves every weight assignment of a graph.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arena import Arena, ValueVector, max_abs_weight
from .extvalue import ExtValue, MINUS_INF, PLUS_INF

POS = np.int64(2**62)
NEG = np.int64(-(2**62))
SNAP = np.int64(2**61)  # finite values stay strictly inside +-SNAP
_POS, _NEG, _SNAP = int(POS), int(NEG), int(SNAP)  # for scalar sweeps
# A Max member's scalar sweep starts below every candidate, a Min member's above.
_BELOW, _ABOVE = -(2**64), 2**64

# The snap bounds as 0-d arrays, which numpy compares faster than scalars.
_SNAP0, _NSNAP0 = np.array(SNAP), np.array(-SNAP)


class UnsoundOracleError(RuntimeError):
    """A component clamped onto candidate tables failed to stabilize."""


class Overflow(NamedTuple):
    """The out-edges past a slice's column width, in CSR form over the
    members that have them: ``members`` are positions within the slice,
    member i's edges run from ``starts[i]`` to ``starts[i + 1]``, and
    ``dst`` and ``swt`` are signed as the column form's tables."""

    members: np.ndarray
    dst: np.ndarray
    swt: np.ndarray
    starts: np.ndarray


class ColumnForm(NamedTuple):
    """What a sweep reads of a slice (see the module docstring): the
    ``[width, k]`` tables of signed-buffer positions ``cdst`` and signed
    weights ``cswt``, the halving steps ``folds``, the ``span`` of vector
    positions the slice reads, and the ``overflow``, None when empty."""

    cdst: np.ndarray
    cswt: np.ndarray
    folds: tuple
    width: int
    span: int
    overflow: Optional[Overflow]


class ScalarForm(NamedTuple):
    """What a scalar ``fixpoint`` and the path oracle read of a small
    slice of k members, as Python ints and lists: the members' ``is_max``
    flags and each member's ``edges`` as (position, weight) pairs.  A
    layout's form also has ``ids``, the vertex at each position: the
    members, then one destination per exit edge."""

    is_max: list
    edges: list
    ids: Optional[list]


class InEdges(NamedTuple):
    """The edges between members grouped by destination: the members with
    an edge into member i are ``src[starts[i]:starts[i + 1]]``, as
    positions within the slice."""

    starts: np.ndarray
    src: np.ndarray


def _in_edges(src: np.ndarray, dst: np.ndarray, k: int) -> InEdges:
    """The in-edge index of edges ``src -> dst`` into k members; the
    order within one destination does not matter, so any sort does.  Edges
    into exits, destinations from k on, sort after the members' and are
    left out of ``starts``."""
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=k)[:k], out=starts[1:])
    return InEdges(starts, src[dst.argsort()])


@dataclass(eq=False)
class EdgeSlice:
    """k members and their out-edges, swept on a vector whose first k
    entries are the members: member i owns the edges ``starts[i]`` up to
    ``starts[i + 1]`` of ``dst`` and ``wt``, and ``dst`` holds positions in
    that vector, below k for a member and from k on for an exit, a finished
    vertex that no sweep of the slice writes.  The sweep reads ``cols``,
    the slice's column form."""

    dst: np.ndarray
    wt: np.ndarray
    starts: np.ndarray
    is_max: np.ndarray
    sign: Optional[np.ndarray] = None  # per member: +1 Max, -1 Min; from is_max if not given

    def __post_init__(self) -> None:
        if self.sign is None:
            self.sign = (self.is_max.astype(np.int64) << 1) - 1

    @functools.cached_property
    def cols(self) -> ColumnForm:
        """Built on first use, by a numpy sweep only, and kept for the
        slice's later calls: a compiled arena solved one component at a
        time never sweeps whole, and a view that sweeps in scalar form never
        builds one."""
        return _column_form(self.dst, self.wt, self.sign, out_degrees(self))

    @functools.cached_property
    def scalar(self) -> ScalarForm:
        """Built on first use, by a scalar ``fixpoint`` only, and kept
        for the slice's later calls.  A slice knows its positions, not
        the vertices at them, so ``ids`` is None here."""
        ends = self.starts.tolist() + [len(self.dst)]
        pairs = list(zip(self.dst.tolist(), self.wt.tolist()))
        edges = [pairs[a:b] for a, b in zip(ends, ends[1:])]
        return ScalarForm(self.is_max.tolist(), edges, None)

    @functools.cached_property
    def inedges(self) -> InEdges:
        """Built on first use, by a frontier ``fixpoint`` only, from the
        edges between members: an exit leads to a finished vertex, which no
        sweep of the slice changes."""
        k = len(self.starts)
        return _in_edges(np.repeat(np.arange(k), out_degrees(self)), self.dst, k)


def out_degrees(sl: EdgeSlice) -> np.ndarray:
    """Edge count of each member of the slice."""
    return np.concatenate((sl.starts[1:], [len(sl.dst)])) - sl.starts


@functools.lru_cache(maxsize=64)
def _halving(width: int) -> tuple:
    """The in-place steps that fold ``width`` rows into two (or one): each
    a pair of index tuples, the top half of the live rows maxed into the
    bottom half."""
    steps = []
    while width > 2:
        half = width // 2
        steps.append(((Ellipsis, slice(0, half), slice(None)),
                      (Ellipsis, slice(width - half, width), slice(None))))
        width -= half
    return tuple(steps)


def _column_form(dst, wt, sign, deg) -> ColumnForm:
    """The column form of a slice whose members have out-degrees ``deg``
    and signs ``sign``.

    k members and E edges give width D = max(1, min(max degree,
    ceil(2E/k))) and row-major ``[D, k]`` tables, row j holding each
    member's j-th edge, its last edge repeated past its degree.  Edges past
    column D go to the overflow, in member order.  Positions are in the
    signed buffer, and ``cswt`` and the overflow's ``swt`` are ``wt``
    times each edge's sign, with any leading axis of weight rows.
    """
    k = len(deg)
    span = max(k, int(dst.max(initial=-1)) + 1)
    shift = (sign < 0) * span  # a Min member reads the negated half
    ends = np.cumsum(deg)
    top = int(deg.max(initial=0))
    width = max(1, min(top, -(-2 * len(dst) // max(k, 1))))
    cidx = np.minimum((ends - deg) + np.arange(width)[:, None], ends - 1)
    cdst = dst.take(cidx)
    cdst += shift
    cswt = _take(wt, cidx)
    cswt *= sign
    overflow = None
    if width < top:
        extra = deg - width
        ov = np.flatnonzero(extra > 0)
        extra = extra[ov]
        ocum = np.cumsum(extra)
        oidx = np.repeat(ends[ov] - ocum, extra) + np.arange(ocum[-1])
        overflow = Overflow(ov, dst[oidx] + np.repeat(shift[ov], extra),
                            _take(wt, oidx) * np.repeat(sign[ov], extra), ocum - extra)
    return ColumnForm(cdst, cswt, _halving(width), width, span, overflow)


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
            dst,
            wt,
            np.searchsorted(self.src, np.arange(n, dtype=np.int64)),
            arena.is_max,
        )
        self.cutoff = np.int64(-(n - 1) * self.W)


class ComponentLayout:
    """The edge arrays of ``ca`` copied once in component order, each
    component in its local numbering, so that ``view(q)`` is O(1).

    ``comp_of`` labels each vertex with its component, 0 to q - 1, every
    label inhabited.  Vertices are ordered by label, each component's
    members ascending, so oracle tables line up with them; each vertex's
    edges follow in ``ca``'s order.  A component of k members numbers its
    members 0..k-1 and its exit edges k, k + 1, ... in edge order, one
    slot per exit edge.  Per vertex: ``members``, ``is_max``, ``sign`` and
    ``starts`` (relative to the vertex's component).  Per edge: ``wt`` and
    ``ldst``, the destination's local position.  ``ids`` holds each
    component's vertex at each local position, its members and then its
    exits' destinations.  Row q of ``bounds`` holds component q's vertex
    range, edge range and ``ids`` range, and ``edge_counts`` lists each
    component's edge count.  The layout keeps no column form; each view
    builds its own on first use.  The scalar forms are built a run at a
    time (``scalar_form``).
    """

    # The most consecutive components whose scalar forms are built in one
    # pass; the layout holds the forms of one run at a time.
    SCALAR_RUN = 64

    def __init__(self, ca: CompiledArena, comp_of: Sequence[int]) -> None:
        comp_of = np.asarray(comp_of, dtype=np.int64)
        order = np.argsort(comp_of, kind="stable")
        sizes = np.bincount(comp_of)
        comp = comp_of[order]
        vstart = np.concatenate(([0], np.cumsum(sizes)))
        deg = out_degrees(ca)[order]
        ecum = np.concatenate(([0], np.cumsum(deg)))
        estart = ecum[vstart]
        # Edge j of the vertex at layout position p sits at ca index
        # ca.starts[order[p]] + (j - ecum[p]).
        edge_idx = np.repeat(ca.starts[order] - ecum[:-1], deg) + np.arange(ecum[-1])
        dst = ca.dst[edge_idx]
        local = np.empty(ca.n, dtype=np.int64)
        local[order] = np.arange(ca.n) - vstart[comp]  # within its component
        ecomp = np.repeat(comp, deg)
        out = np.flatnonzero(comp_of[dst] != ecomp)  # the exit edges
        ocomp = ecomp[out]
        xstart = np.searchsorted(out, estart)  # exits before each component
        # The i-th exit, in component c, takes slot k_c + i - xstart[c],
        # which sits at vstart[c + 1] + i in ``ids``.
        ldst = local[dst]
        ldst[out] = sizes[ocomp] + np.arange(len(out)) - xstart[ocomp]
        ids = np.empty(ca.n + len(out), dtype=np.int64)
        ids[np.arange(ca.n) + xstart[comp]] = order
        ids[vstart[1:][ocomp] + np.arange(len(out))] = dst[out]
        istart = vstart + xstart
        self.ca = ca
        self.comp_of = comp_of
        self.members = order
        self.is_max = ca.is_max[order]
        self.sign = ca.sign[order]
        self.starts = ecum[:-1] - estart[comp]
        self.wt = ca.wt[edge_idx]
        self.ldst = ldst
        self.ids = ids
        self.bounds = np.stack((vstart[:-1], vstart[1:], estart[:-1], estart[1:],
                                istart[:-1], istart[1:]), axis=1)
        self.edge_counts = (estart[1:] - estart[:-1]).tolist()
        self._scalar: dict = {}  # component -> its scalar form, for the current run

    def __len__(self) -> int:
        return len(self.edge_counts)

    def view(self, q: int) -> EdgeSlice:
        """Component ``q``'s slice: basic slices of the layout arrays."""
        v0, v1, e0, e1 = self.bounds[q, :4].tolist()
        return EdgeSlice(self.ldst[e0:e1], self.wt[e0:e1], self.starts[v0:v1],
                         self.is_max[v0:v1], self.sign[v0:v1])

    def scalar_form(self, q: int) -> ScalarForm:
        """Component q's scalar form.  It is built with those of the
        components after q, up to ``SCALAR_RUN`` of them and up to the
        first with more than ``SCALAR_MAX_EDGES`` edges; the layout keeps
        the run, so that the path oracle and the pass of a component share
        its form, until a component outside it is asked for."""
        form = self._scalar.get(q)
        if form is None:
            self._scalar = self._scalar_run(q)
            form = self._scalar[q]
        return form

    def _scalar_run(self, q: int) -> dict:
        """The scalar forms of a run of components from q, in one pass
        over their edges; the field lists, read through positions within
        the run, are dropped when it returns."""
        bounds = self.bounds[q:q + self.SCALAR_RUN]
        big = np.flatnonzero(bounds[1:, 3] - bounds[1:, 2] > SCALAR_MAX_EDGES)
        if len(big):
            bounds = bounds[:big[0] + 1]
        spans = bounds.tolist()
        (va, _, ea, _, ia, _), (_, vb, _, eb, _, ib) = spans[0], spans[-1]
        # Each member's first edge, relative to the run, then the run's end.
        first = (self.starts[va:vb] + np.repeat(bounds[:, 2] - ea, bounds[:, 1] - bounds[:, 0])
                 ).tolist() + [eb - ea]
        is_max, ids = self.is_max[va:vb].tolist(), self.ids[ia:ib].tolist()
        pairs = list(zip(self.ldst[ea:eb].tolist(), self.wt[ea:eb].tolist()))
        forms = {}
        for c, (v0, v1, _, _, i0, i1) in enumerate(spans, q):
            p0, p1 = v0 - va, v1 - va
            edges = [pairs[first[i]:first[i + 1]] for i in range(p0, p1)]
            forms[c] = ScalarForm(is_max[p0:p1], edges, ids[i0 - ia:i1 - ia])
        return forms


def _take(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``v`` at ``idx`` along the last axis; without the ``axis`` keyword
    on one vector, which saves about 0.5 us per call."""
    return v.take(idx) if v.ndim == 1 else v.take(idx, axis=-1)


def _signed(span: int, x: np.ndarray, ytrans: Optional[np.ndarray]) -> np.ndarray:
    """The signed buffer ``[z, -z]`` of the first ``span`` positions of
    ``x``, along the last axis: z = min(x, ytrans), or x without ``ytrans``."""
    z = x[..., :span] if ytrans is None else np.minimum(x[..., :span], ytrans[..., :span])
    return np.concatenate((z, -z), axis=-1)


def _reduce(cols: ColumnForm, sign: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The new values of the members of ``cols`` (signs ``sign``) from the
    signed buffer ``buf``, before the sentinel snap: values at or beyond
    +-``SNAP`` stand for the sentinel on their side."""
    cdst, cswt, folds, width, _, ovf = cols
    cont = _take(buf, cdst)
    cont += cswt
    for lo, hi in folds:
        np.maximum(cont[lo], cont[hi], out=cont[lo])
    best = cont[..., 0, :]
    if width > 1:
        np.maximum(best, cont[..., 1, :], out=best)
    if ovf is not None:
        more = _take(buf, ovf.dst)
        more += ovf.swt
        at = (Ellipsis, ovf.members)
        best[at] = np.maximum(best[at], np.maximum.reduceat(more, ovf.starts, axis=-1))
    best *= sign
    return best


def sweep(sl: EdgeSlice, x: np.ndarray, ytrans: Optional[np.ndarray] = None) -> np.ndarray:
    """One Jacobi update of the slice's members; returns their new values.

    With ``ytrans`` the continuation of each successor is min(x, ytrans)
    (the stop-request form used by the total-payoff inner loop); without it
    the continuation is x itself.
    """
    cols = sl.cols
    new = _reduce(cols, sl.sign, _signed(cols.span, x, ytrans))
    new[new >= _SNAP0] = POS
    new[new <= _NSNAP0] = NEG
    return new


def _clamp(new: list, tables: Sequence[Optional[list]], up: bool) -> None:
    """Snap each member onto its sorted table: to the largest entry not
    above it going down, the smallest not below it going up.  Values and
    tables are Python ints and lists, searched by ``bisect``; tables always
    hold both sentinels, so both searches stay in range."""
    for i, table in enumerate(tables):
        if table is not None:
            if up:
                new[i] = table[bisect.bisect_left(table, new[i])]
            else:
                new[i] = table[bisect.bisect_right(table, new[i]) - 1]


# Slices with fewer edges sweep in full: below about this many edges the
# frontier's extra numpy calls cost more than the member updates they save
# (see "Frontier sweeps" in the module docstring).
FRONTIER_MIN_EDGES = 4096
# One vector over a slice of at most this many edges sweeps on Python ints:
# below about this size a numpy sweep's fixed call cost is more than the
# Python loop over the edges (see "Scalar sweeps" in the module docstring).
SCALAR_MAX_EDGES = 48


def _settle(new: np.ndarray, cutoff, lift, tables) -> None:
    """The post-step of a ``fixpoint`` sweep, on the members' reduced
    values ``new``: the cutoff or lift, the sentinel snap, the clamp (on
    the values as a list, since ``tables`` are lists)."""
    # cutoff and lift lie inside +-SNAP, so each also restores one
    # sentinel; one more masked copy restores the other.
    if lift is None:
        new[new < cutoff] = NEG
        new[new >= _SNAP0] = POS
    else:
        new[new > lift] = POS
        new[new <= _NSNAP0] = NEG
    if tables is not None:
        vals = new.tolist()
        _clamp(vals, tables, up=lift is not None)
        new[:] = vals


def fixpoint(
    sl: EdgeSlice,
    x: np.ndarray,
    bound: int,
    *,
    cutoff=None,
    lift=None,
    ytrans: Optional[np.ndarray] = None,
    tables: Optional[Sequence[Optional[list]]] = None,
    trace=None,
) -> int:
    """Sweep the slice until its members are stable, updating them in
    ``x`` in place; descending with ``cutoff``, ascending with ``lift``.
    Calls ``trace.append(x)`` after every sweep when given; the callee
    copies.  Returns the sweep count.  One vector on a slice of at least
    ``FRONTIER_MIN_EDGES`` edges takes frontier sweeps, with the same
    iterates: after the first, a sweep recomputes only the members with
    an edge into one that just changed, the *dirty* ones (``None``: all).
    One vector on a slice of at most ``SCALAR_MAX_EDGES`` edges, untraced,
    sweeps on Python ints, with the same iterates too.  ``tables`` hold a
    sorted list of ints, or None, per member.

    ``ytrans`` is read into the signed buffer at the start of the call,
    and at the members again after each sweep, so it must not change
    during the call (no caller changes it: the total-payoff pass caps
    ``y`` before solving, then reads it)."""
    k = len(sl.starts)
    if trace is None and x.ndim == 1 and len(sl.dst) <= SCALAR_MAX_EDGES:
        xs = x.tolist()
        try:
            return scalar_sweeps(sl.scalar, xs, bound, cutoff=cutoff, lift=lift, tables=tables,
                                 caps=None if ytrans is None else ytrans.tolist())
        finally:
            x[:k] = xs[:k]
    cols, sign, span = sl.cols, sl.sign, sl.cols.span
    # 0-d arrays (or [rows, 1] columns), which compare faster than scalars.
    cutoff, lift = (None if b is None else np.asarray(b) for b in (cutoff, lift))
    buf = _signed(span, x, ytrans)
    xm, zm, nm = x[..., :k], buf[..., :k], buf[..., span:span + k]
    ym = None if ytrans is None else ytrans[..., :k]
    frontier = x.ndim == 1 and len(sl.dst) >= FRONTIER_MIN_EDGES
    dirty = None
    sweeps = 0
    while True:
        if dirty is None:
            new = _reduce(cols, sign, buf)
            _settle(new, cutoff, lift, tables)
            moved = new != xm
            xm[...] = new
            if ym is None:
                zm[...] = new
            else:
                np.minimum(new, ym, out=zm)
            np.negative(zm, out=nm)
        else:
            new = _reduce(_restrict(cols, dirty), sign[dirty], buf)
            _settle(new, cutoff, lift, None if tables is None else [tables[i] for i in dirty.tolist()])
            moved = new != x[dirty]
            x[dirty] = new
            z = new if ytrans is None else np.minimum(new, ytrans[dirty])
            buf[dirty] = z
            buf[dirty + span] = -z
        sweeps += 1
        if trace is not None:
            trace.append(x)
        count = np.count_nonzero(moved)  # cheaper than .any() on small slices
        if not count:
            return sweeps
        if sweeps > bound:
            if tables is not None:
                raise UnsoundOracleError("component failed to stabilize")
            raise AssertionError("value iteration exceeded its sweep bound")
        # Once an eighth of the members change, or a third are dirty, a full
        # sweep costs less than finding and taking the dirty ones.
        if frontier and 8 * count < k:
            into = sl.inedges
            changed = moved.nonzero()[0] if dirty is None else dirty[moved]
            dirty = _distinct(into.src[_ranges(into.starts[changed], into.starts[changed + 1])], k)
            if 3 * len(dirty) > k:
                dirty = None
        else:
            dirty = None


def scalar_sweeps(form: ScalarForm, xs: list, bound: int, *, cutoff=None, lift=None,
                  caps: Optional[list] = None, tables=None) -> int:
    """The scalar sweep loop over ``form``, with ``fixpoint``'s arguments
    as lists: ``xs`` holds the values at the form's positions, its k
    members first and then its exits, and ``caps`` is ``ytrans`` alike.
    Returns the sweep count and leaves the members' last values in
    ``xs``, also when it raises, with the iterates, count and bound errors
    of the numpy loop."""
    is_max, edges, _ = form
    k = len(is_max)
    up = lift is not None
    # Each member's row: its sign, its start and its edges to members.
    # Exit edges read vertices that no sweep writes, so the start is the
    # best exit candidate, folded once per call, or else a bound that every
    # candidate passes.
    rows = []
    for mx, es in zip(is_max, edges):
        v = _BELOW if mx else _ABOVE
        inner = []
        for j, w in es:
            if j < k:
                inner.append((j, w))
            else:
                c = xs[j] if caps is None or xs[j] < caps[j] else caps[j]
                c += w
                if c > v if mx else c < v:
                    v = c
        rows.append((mx, v, inner))
    old = xs[:k]
    if caps is not None:
        caps = caps[:k]
    # The post-step drops values below ``lo`` to -inf and lifts those
    # above ``hi`` to +inf: the cutoff or lift and the snap.
    lo, hi = (1 - _SNAP, int(lift)) if up else (int(cutoff), _SNAP - 1)
    sweeps = 0
    while True:
        cont = old if caps is None else [c if c < y else y for c, y in zip(old, caps)]
        new = []
        for mx, v, es in rows:
            for j, w in es:
                c = cont[j] + w
                if c > v if mx else c < v:
                    v = c
            new.append(_NEG if v < lo else _POS if v > hi else v)
        if tables is not None:
            _clamp(new, tables, up)
        sweeps += 1
        if new == old:
            xs[:k] = new
            return sweeps
        if sweeps > bound:
            xs[:k] = new
            if tables is not None:
                raise UnsoundOracleError("component failed to stabilize")
            raise AssertionError("value iteration exceeded its sweep bound")
        old = new


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges ``lo[i]`` up to ``hi[i]``, concatenated; at least
    one range."""
    lens = hi - lo
    ends = lens.cumsum()
    return (hi - ends).repeat(lens) + np.arange(ends[-1])


def _distinct(a: np.ndarray, k: int) -> np.ndarray:
    """The distinct entries of the fresh array ``a``, all in 0..k-1,
    ascending: by a sort when ``a`` is short next to k, else by a mask over
    0..k-1.  (numpy's ``unique`` is several times slower than either on
    int64.)"""
    if 8 * len(a) < k:
        a.sort()
        first = np.empty(len(a), dtype=bool)
        first[:1] = True
        np.not_equal(a[1:], a[:-1], out=first[1:])
        return a[first]
    seen = np.zeros(k, dtype=bool)
    seen[a] = True
    return np.flatnonzero(seen)


def _restrict(cols: ColumnForm, dirty: np.ndarray) -> ColumnForm:
    """The column form of the members at the sorted positions ``dirty``:
    a ``take`` of their columns and of their overflow edges, if any."""
    ovf = cols.overflow
    sub_ovf = None
    if ovf is not None:
        j = ovf.members.searchsorted(dirty)
        hit = np.flatnonzero(ovf.members.take(j, mode="clip") == dirty)
        if len(hit):
            lo = ovf.starts[j[hit]]
            hi = np.append(ovf.starts[1:], len(ovf.dst))[j[hit]]
            oidx = _ranges(lo, hi)
            ostarts = (hi - lo).cumsum() - (hi - lo)
            sub_ovf = Overflow(hit, ovf.dst[oidx], ovf.swt[oidx], ostarts)
    return ColumnForm(cols.cdst.take(dirty, axis=1), cols.cswt.take(dirty, axis=1),
                      cols.folds, cols.width, cols.span, sub_ovf)


def nested_fixpoint(
    sl: EdgeSlice,
    x: np.ndarray,
    y: np.ndarray,
    *,
    cutoff,
    lift,
    inner_bound: int,
    outer_bound: int,
) -> Tuple[int, int]:
    """Climb the outer vector ``y`` on the slice's members until a pass
    leaves it unchanged; ``x`` ends equal to ``y`` there.

    Each pass re-solves ``x`` on the members by the stop-request
    iteration (from +inf down, each successor capped by max(y, 0)), lifts
    values above ``lift`` to +inf and stores the result in ``y``.  Returns
    (passes, inner sweeps), both counting the final confirming pass.

    The exits, the positions from the slice's k members on, must hold
    finished values, equal in ``x`` and ``y``, as a previous call leaves
    them.  The cap is then a no-op there, so a pass caps ``y`` in place on
    the members and reads it as the cap: O(slice) per pass.
    """
    m = (Ellipsis, slice(len(sl.starts)))
    passes = sweeps = 0
    while True:
        prev = y[m].copy()
        y[m] = np.maximum(prev, 0)
        x[m] = POS
        sweeps += fixpoint(sl, x, inner_bound, cutoff=cutoff, ytrans=y)
        new = x[m]  # a view: the lift lands in x
        new[new > lift] = POS
        passes += 1
        stable = not np.count_nonzero(new != prev)
        y[m] = new
        if stable:
            return passes, sweeps
        if passes > outer_bound:
            raise AssertionError("outer iteration exceeded its pass bound")


_RAW_OF_INF = {PLUS_INF: int(POS), MINUS_INF: int(NEG)}


def to_array(values: Sequence[ExtValue]) -> np.ndarray:
    """Extended values as raw int64: ints stay, the infinities become the
    sentinels (one dict lookup per value, keyed by identity for them)."""
    return np.fromiter(map(_RAW_OF_INF.get, values, values), dtype=np.int64, count=len(values))


def from_array(arena: Arena, x: np.ndarray) -> ValueVector:
    """The raw vector ``x`` as extended values: the list of its ints, with
    the infinities written at the sentinel positions."""
    values = x.tolist()
    for at, inf in ((x >= POS, PLUS_INF), (x <= NEG, MINUS_INF)):
        for i in np.flatnonzero(at).tolist():
            values[i] = inf
    return ValueVector(arena, values)
