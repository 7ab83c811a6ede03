"""SCC decomposition and the two per-component acceleration schemes.

The first scheme solves one strongly connected component at a time in
topological order, reusing finished values.  The second additionally asks a
value oracle for a sorted candidate table per vertex and snaps iterates
onto it, collapsing long descents into one jump.

For total-payoff components the candidate tables built from exit paths are a
sound description of the final values only when every internal cycle is
strictly positive or every one strictly negative (otherwise optimal plays
may stay inside forever).  Components certified that way are solved in a
single reachability-style pass; the rest fall back to the plain nested
iteration restricted to the component.  The oracle and its tables are
built only for certified components, since the nested iteration never
reads them.

Both solvers copy the compiled edge arrays once into a
``ComponentLayout`` in component order; each component's view is then a
set of slices of it, built in O(1).  A component of at most
``_engine.SCALAR_MAX_EDGES`` edges that takes a single pass (any
reachability component, a certified total-payoff one) gets no view: its
pass runs on the layout's scalar form (``_list_pass``): one gather of
its members and exits from the value vector, the sweeps on Python lists,
and one store into each vector the solver keeps.  The total-payoff
solver certifies every component before its component loop, in one
batched run of kernel sweeps over the layout's inside edges (a Jacobi
Bellman-Ford with two weight rows, one per sign).  So a solve costs time
linear in |V| + |E| outside the sweeps.
"""

from __future__ import annotations

import array
import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import _engine as eng
from .arena import Arena, ArenaError, Objective, is_normalized_mcr, validate
from .mcr import McrResult, SolveStats, sweep_bound
from .tp import TpResult, k_bound

UnsoundOracleError = eng.UnsoundOracleError

DEFAULT_PATH_CAP = 4096
PATH_WORK_CAP = 200_000

# An oracle maps (arena, dec, q, finalized) to one candidate table per
# member of component q: a sorted int64 array holding both sentinels, or
# None meaning "no clamp" for that vertex.  ``finalized`` is the solver's
# raw int64 vector; only the entries of earlier components are read.
Oracle = Callable[
    [Arena, "SccDecomposition", int, np.ndarray],
    List[Optional[np.ndarray]],
]

_POS, _NEG = int(eng.POS), int(eng.NEG)


class Adjacency(NamedTuple):
    """The arena's sorted edge array as int64 ``array.array``s, indexed as
    fast as lists but 8 bytes an entry, not a list slot plus an int
    object: vertex v's out-edges are entries ``ends[v]`` up to
    ``ends[v + 1]`` of ``dst`` and ``wt``, ascending by destination."""

    ends: array.array
    dst: array.array
    wt: array.array


def _adjacency(arena: Arena) -> Adjacency:
    src, dst, wt = arena.edge_array.T
    ends = np.searchsorted(src, np.arange(arena.n + 1))
    return Adjacency(*(array.array("q", a.astype(np.int64).tobytes()) for a in (ends, dst, wt)))


@dataclass(frozen=True)
class SccDecomposition:
    """Components in reverse topological order: dec(v) >= dec(v') on every
    edge, every index inhabited, each component's members sorted, and
    component 0 the normalized target when one exists.  ``edges`` is the
    adjacency the decomposition walked, which the path oracle walks too."""

    comp_of: Tuple[int, ...]
    components: Tuple[Tuple[int, ...], ...]
    edges: Adjacency = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.components)


def _tarjan_sccs(edges: Adjacency) -> List[Tuple[int, ...]]:
    """Tarjan's algorithm over the adjacency: vertex v's successors are
    ``dst[ends[v]:ends[v + 1]]``, in ascending order."""
    ends, dst, _ = edges
    n = len(ends) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    sccs: List[Tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Each frame is a vertex and the position of its next edge.
        work = [(root, ends[root])]
        while work:
            v, e = work.pop()
            if e == ends[v]:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            end = ends[v + 1]
            while e < end:
                w = dst[e]
                e += 1
                if index[w] == -1:
                    work.append((v, e))
                    work.append((w, ends[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return sccs


def scc_decompose(arena: Arena) -> SccDecomposition:
    """Components in the order Tarjan's algorithm completes them: a
    component completes only after every component it reaches, so that
    order is already reverse topological and needs no condensation graph.
    The normalized target's component, a sink, moves to index 0.  The
    numbering depends only on the arena's vertex and edge order."""
    validate(arena)
    edges = _adjacency(arena)
    sccs = _tarjan_sccs(edges)
    if is_normalized_mcr(arena):
        (t,) = arena.targets
        sccs.remove((t,))
        sccs.insert(0, (t,))
    comp_of = [0] * arena.n
    for q, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = q
    return SccDecomposition(tuple(comp_of), tuple(sccs), edges)


def no_clamp_oracle(
    arena: Arena, dec: SccDecomposition, q: int, finalized: np.ndarray
) -> List[Optional[np.ndarray]]:
    """Trivial oracle: every representable value is possible, so no clamp."""
    return [None] * len(dec.components[q])


def simple_path_oracle(
    arena: Arena,
    dec: SccDecomposition,
    q: int,
    finalized: np.ndarray,
    cap: int = DEFAULT_PATH_CAP,
) -> List[Optional[np.ndarray]]:
    """Candidate values from simple paths that leave the component, as
    sorted int64 tables with the engine's sentinels.

    Each candidate is the path sum plus the finished value at the exit (or
    the sum alone when the path ends in an in-component target).  Both
    sentinels are always included.  If any vertex would exceed ``cap``
    candidates, or the enumeration itself grows too large, the whole
    component degrades to no-clamp, before any walk when the walks would
    pass ``PATH_WORK_CAP`` for sure (``_walks_pass_work_cap``).

    A trivial component, one vertex without a self-loop, gets no table
    and no walk (``_trivial``): its first sweep reads only finished exits,
    so it lands on an exit candidate, which the clamp would keep.

    ``finalized`` is normally the solver's raw vector, but a list of
    extended values (ints, ``PLUS_INF``, ``MINUS_INF``) works too: exit
    values are only compared with the sentinels, and the infinities order
    against ints just as the sentinels do.
    """
    members = dec.components[q]
    inside = set(members)
    ends, dsts, wts = dec.edges
    targets = arena.targets if arena.objective is Objective.MCR else frozenset()
    # k times the arena's edge count bounds k * E_C, so most components
    # skip the sum.
    if len(members) * len(dsts) > PATH_WORK_CAP and _walks_pass_work_cap(members, ends, targets):
        return [None] * len(members)
    if _trivial(members, ends, dsts):
        return [None]
    tables: List[Optional[np.ndarray]] = []
    work = 0
    for v in members:
        cands = {_NEG, _POS}
        if v in targets:
            cands.add(0)
        # Iterative DFS over simple paths from v through the component.  A
        # frame is a vertex, its first edge and the end of the edges left,
        # which are taken last first.
        path_sum = {v: 0}
        stack = [(v, ends[v], ends[v + 1])]
        while stack:
            u, first, e = stack[-1]
            if e == first:
                stack.pop()
                del path_sum[u]
                continue
            e -= 1
            stack[-1] = (u, first, e)
            d = dsts[e]
            work += 1
            s = path_sum[u] + wts[e]
            if d not in inside:
                fv = finalized[d]
                cands.add(_POS if fv >= _POS else _NEG if fv <= _NEG else s + int(fv))
            elif d in targets:
                cands.add(s)
            elif d not in path_sum:
                path_sum[d] = s
                stack.append((d, ends[d], ends[d + 1]))
            if len(cands) > cap or work > PATH_WORK_CAP:
                return [None] * len(members)
        tables.append(np.array(sorted(cands), dtype=np.int64))
    return tables


def _walks_pass_work_cap(members, ends, targets) -> bool:
    """Whether the walks of ``simple_path_oracle`` over a component would
    pass ``PATH_WORK_CAP`` for sure: with no target among its k members,
    each member's walk reaches all of the component and examines every one
    of its E_C out-edges, so they make at least k * E_C steps."""
    return targets.isdisjoint(members) and (
        len(members) * sum(ends[v + 1] - ends[v] for v in members) > PATH_WORK_CAP
    )


def _trivial(members, ends, dsts) -> bool:
    """Whether a component is one vertex without a self-loop."""
    if len(members) != 1:
        return False
    (v,) = members
    return v not in dsts[ends[v]:ends[v + 1]]


def cycle_sign_certificates(layout: eng.ComponentLayout) -> List[Optional[str]]:
    """Per component of the layout: 'positive' / 'negative' when every
    cycle inside it has that strict sign (vacuously 'positive'), else None.

    A component of k members has a cycle with s * weight <= 0 (s = +-1)
    exactly when the weights s * w * (k + 1) - 1 give it a negative cycle,
    as a simple cycle has at most k edges.  One batched Jacobi Bellman-Ford
    decides both signs: ``_engine.sweep`` rounds from x = 0 on an all-Min
    slice of the inside edges, one weight row per sign, with a zero-weight
    stay loop on every vertex, so x_j(v) is the least weight of a walk of
    at most j edges from v.  Without a negative cycle, least walks are
    simple paths, and no round after round k - 1 changes the component.
    With one, no round leaves it unchanged: it reads only its own members,
    and at a fixed point x(a) <= w'(a, b) + x(b) summed round the cycle
    makes it non-negative.  So after max k + 1 rounds, or at a round that
    changes nothing, a component has such a cycle exactly when one of its
    members changed in the last round.

    Guard: a component with (k + 1) * ((k + 1) * W + 1) >= 2**61, W the
    largest |weight|, gets None unswept and takes the generic nested
    iteration.  The rest run at most K + 1 rounds, K their largest size,
    each moving a value by at most (k + 1) * W + 1, so every iterate stays
    in (-2**61, 0] and none settles on a sentinel.
    """
    v0, v1, e0, e1 = layout.bounds[:, :4].T
    sizes = v1 - v0
    W = int(np.abs(layout.wt).max(initial=0))
    fits = (sizes + 1) * W + 1 <= (int(eng.SNAP) - 1) // (sizes + 1)
    certs: List[Optional[str]] = [None] * len(sizes)
    if not fits.any():
        return certs
    n = len(layout.members)
    comp = np.repeat(np.arange(len(sizes)), e1 - e0)  # of each edge
    keep = layout.inside & fits[comp]
    src = np.repeat(np.arange(n), np.diff(layout.starts + np.repeat(e0, sizes), append=len(comp)))
    stay = np.arange(n)
    src = np.concatenate((src[keep], stay))
    order = np.argsort(src, kind="stable")  # each vertex's stay loop after its edges
    dst = np.concatenate(((layout.local_dst + v0[comp])[keep], stay))
    scaled = layout.wt[keep] * (sizes + 1)[comp[keep]]
    wt = np.zeros((2, len(src)), dtype=np.int64)  # the stay loops weigh 0
    wt[:, :len(scaled)] = scaled - 1, -scaled - 1
    sl = eng.EdgeSlice(
        slice(None), dst[order], wt[:, order], np.searchsorted(src[order], stay),
        np.zeros(n, dtype=bool),
    )
    x = np.zeros((2, n), dtype=np.int64)
    for _ in range(int(sizes[fits].max()) + 1):
        new = eng.sweep(sl, x)
        moved = new != x
        if not moved.any():
            break
        x = new
    nonpositive, nonnegative = np.logical_or.reduceat(moved, v0, axis=1).tolist()
    for q in np.flatnonzero(fits).tolist():
        certs[q] = "positive" if not nonpositive[q] else "negative" if not nonnegative[q] else None
    return certs


def _clamping(
    tables: List[Optional[np.ndarray]],
) -> Optional[List[Optional[np.ndarray]]]:
    """The oracle's tables, or None when no member has one (a no-clamp or
    degraded component), so that its sweeps skip the clamp altogether."""
    for table in tables:
        if table is not None:
            return tables
    return None


def solve_mcr_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> McrResult:
    """Per-component reachability solve with candidate clamping.

    Identical output to the plain solver; stats count one outer unit per
    component loop and every restricted sweep as an inner iteration.  A
    component of at most ``_engine.SCALAR_MAX_EDGES`` edges is solved by
    ``_list_pass``, a larger one by ``fixpoint`` on its view.
    """
    if not is_normalized_mcr(arena):
        raise ArenaError("solve_mcr_accelerated expects a normalized MCR arena")
    started = time.perf_counter()
    dec = scc_decompose(arena)
    ca = eng.CompiledArena(arena)
    (t,) = arena.targets
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    x[t] = 0
    layout = eng.ComponentLayout(ca, dec.components)
    edges = _edge_counts(layout)
    stats = SolveStats()
    bound = sweep_bound(arena.n, ca.W) + 1
    for q in range(1, len(dec)):
        tables = _clamping(oracle(arena, dec, q, x))
        stats.outer_iterations += 1
        if edges[q] <= eng.SCALAR_MAX_EDGES:
            sweeps, new, m = _list_pass(layout.scalar_form(q), x, tables, bound, ca.cutoff)
            x[m] = new
        else:
            sweeps = eng.fixpoint(layout.view(q), x, bound, cutoff=ca.cutoff, tables=tables)
        stats.inner_iterations += sweeps
    stats.sweeps = stats.inner_iterations
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    return McrResult(eng.from_array(arena, x), stats)


def solve_tp_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> TpResult:
    """Per-component total-payoff solve.

    Components whose internal cycles all share a strict sign are solved by
    one clamped reachability-style pass (staying inside forever is then
    worth +inf or -inf, so values coincide with the exit-path game).  On a
    'negative' certificate a +inf result can only be an artifact of
    starting from above, so such components are re-solved from below with
    upward clamping.  Values above (n-1)W are then lifted to +inf.
    Everything else runs the plain nested iteration restricted to the
    component.

    A certified component of at most ``_engine.SCALAR_MAX_EDGES`` edges
    runs that pass on its layout's scalar form (``_list_pass``): one
    gather of its members and exits from ``x``, the sweeps on lists, and
    one store of the lifted values into ``x`` and one into ``y``, with no
    view.  A larger one runs it on its view (``_view_pass``).

    The counts are those of the nested iteration's outer loop around the
    pass: one pass when the lifted result is all -inf, which is where the
    outer vector starts on a component not yet solved, else a second that
    repeats the first and confirms it.  That pass reads neither the outer
    vector nor any value the first one changed, so it would take the same
    sweeps to the same values; it is counted in ``k_e``/``k_i`` and held to
    the pass bound, but not run.
    """
    if arena.objective is not Objective.TP:
        raise ArenaError("solve_tp_accelerated expects a TP arena")
    started = time.perf_counter()
    dec = scc_decompose(arena)
    ca = eng.CompiledArena(arena)
    n = arena.n
    lift_at = (n - 1) * ca.W
    y = np.full(n, eng.NEG, dtype=np.int64)
    x = np.full(n, eng.POS, dtype=np.int64)
    stats = SolveStats()
    inner_bound = sweep_bound(n, ca.W) + 1
    outer_bound = k_bound(arena) + 1
    layout = eng.ComponentLayout(ca, dec.components)
    edges = _edge_counts(layout)
    certs = cycle_sign_certificates(layout)
    for q in range(len(dec)):
        certificate = certs[q]
        if certificate is None:
            outer, sweeps = eng.nested_fixpoint(
                layout.view(q), x, y, cutoff=ca.cutoff, lift=lift_at,
                inner_bound=inner_bound, outer_bound=outer_bound,
            )
        else:
            tables = _clamping(oracle(arena, dec, q, x))
            resolve = lift_at if certificate == "negative" else None
            if edges[q] <= eng.SCALAR_MAX_EDGES:
                sweeps, new, m = _list_pass(
                    layout.scalar_form(q), x, tables, inner_bound, ca.cutoff, resolve)
            else:
                sweeps, new, m = _view_pass(
                    layout.view(q), x, tables, inner_bound, ca.cutoff, resolve)
            new = [_POS if v > lift_at else v for v in new]
            outer = 1 if max(new) == _NEG else 2
            x[m] = new
            y[m] = new
            if outer == 2 and outer_bound < 1:  # as nested_fixpoint after pass 1
                raise AssertionError("outer iteration exceeded its pass bound")
            sweeps *= outer
        stats.outer_iterations += outer
        stats.inner_iterations += sweeps
    stats.sweeps = stats.inner_iterations
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    return TpResult(eng.from_array(arena, y), stats)


def _edge_counts(layout: eng.ComponentLayout) -> List[int]:
    """The edge count of each component of the layout."""
    return (layout.bounds[:, 3] - layout.bounds[:, 2]).tolist()


def _list_pass(
    form: eng.ScalarForm,
    x: np.ndarray,
    tables: Optional[List[Optional[np.ndarray]]],
    bound: int,
    cutoff: int,
    resolve: Optional[int] = None,
) -> Tuple[int, list, np.ndarray]:
    """The clamped pass of a small component, from above and without stop
    requests, on its scalar form: one gather of its members and exits from
    ``x``, whose members still hold their start, +inf, as on every
    component not yet solved; the descent with ``cutoff``; and, given the
    lift ``resolve`` (a 'negative' certificate), the ascent from -inf when
    a member stays at +inf.  Returns the sweep count, the members' values
    and the members, which the caller stores; ``x`` is written only before
    a bound error."""
    k = len(form.is_max)
    m = form.gather[:k]
    xs = x[form.gather].tolist()
    sweeps, new = eng.scalar_sweeps(form, xs, bound, x, m, cutoff=cutoff, tables=tables)
    if resolve is not None and _POS in new:
        # Starting from above can strand vertices at +inf; approach the
        # same fixed point from below instead.
        xs[:k] = [_NEG] * k
        more, new = eng.scalar_sweeps(form, xs, bound, x, m, lift=resolve, tables=tables)
        sweeps += more
    return sweeps, new, m


def _view_pass(
    view: eng.ComponentView,
    x: np.ndarray,
    tables: Optional[List[Optional[np.ndarray]]],
    bound: int,
    cutoff: int,
    resolve: Optional[int] = None,
) -> Tuple[int, list, np.ndarray]:
    """``_list_pass`` on the component's view, through ``fixpoint``, which
    solves ``x`` on its members."""
    m = view.members
    x[m] = eng.POS
    sweeps = eng.fixpoint(view, x, bound, cutoff=cutoff, tables=tables)
    if resolve is not None and np.count_nonzero(x[m] >= eng.POS):
        x[m] = eng.NEG
        sweeps += eng.fixpoint(view, x, bound, lift=resolve, tables=tables)
    return sweeps, x[m].tolist(), m
