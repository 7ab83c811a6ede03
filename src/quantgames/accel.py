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

``scc_decompose`` labels each vertex with its component, one int64 array
from Tarjan's algorithm, and copies the compiled edge arrays once into a
``ComponentLayout`` in that order, which both solvers and the path
oracle share; each component's view is then a set of slices of it,
built in O(1).  A component that takes a single pass (any reachability
component, a certified total-payoff one) runs it through
``_component_pass``, which both solvers call.

A solver holds its finished values once, in ``done``, a Python list by
vertex id, +inf until a vertex's component is solved.  Every pass works
on the component's local numbering (``_engine.ComponentLayout``): its
members first, then one slot per exit edge, whose values it gathers from
``done`` by the layout's ``ids``; it writes its members back there.  A
component of at most ``_engine.SCALAR_MAX_EDGES`` edges makes no numpy
call of its own: the path oracle walks the layout's scalar form of it,
reading exits from ``done``, and its pass sweeps the same form on a
list.  A larger one, or an uncertified total-payoff one (the nested
iteration), sweeps a local vector over its view.  The total-payoff
solver certifies every component before its component loop, in one
batched run of kernel sweeps over the layout's inside edges (a Jacobi
Bellman-Ford with two weight rows, one per sign).  So a solve costs time
linear in |V| + |E| outside the sweeps.
"""

from __future__ import annotations

import array
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import _engine as eng
from .arena import Arena, ArenaError, Objective, is_normalized_mcr, validate
from .mcr import SolveResult, SolveStats, finish, sweep_bound
from .tp import k_bound

UnsoundOracleError = eng.UnsoundOracleError

DEFAULT_PATH_CAP = 4096
PATH_WORK_CAP = 200_000

# An oracle maps (arena, dec, q, finalized), ``dec`` the layout of
# ``scc_decompose``, to one candidate table per member of component q: a
# sorted list of ints holding both sentinels, or None meaning "no clamp"
# for that vertex.  ``finalized`` holds values by vertex id; the solvers
# pass ``done``, their list of finished values, whose entries of earlier
# components are final and the only ones read.
Oracle = Callable[
    [Arena, eng.ComponentLayout, int, Sequence[int]],
    List[Optional[List[int]]],
]

_POS, _NEG = int(eng.POS), int(eng.NEG)


def _tarjan_sccs(ends: array.array, dst: array.array) -> array.array:
    """Tarjan's algorithm over the sorted edge array: vertex v's
    successors are ``dst[ends[v]:ends[v + 1]]``, in ascending order.
    Returns each vertex's component, numbered in completion order.  A
    visited vertex is on the stack exactly while it has no component."""
    n = len(ends) - 1
    index = [-1] * n
    low = [0] * n
    comp_of = array.array("q", [-1]) * n
    stack: List[int] = []
    counter = done = 0
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
            end = ends[v + 1]
            while e < end:
                w = dst[e]
                e += 1
                if index[w] == -1:
                    work.append((v, e))
                    work.append((w, ends[w]))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp_of[w] = done
                        if w == v:
                            break
                    done += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comp_of


def scc_decompose(arena: Arena) -> eng.ComponentLayout:
    """The arena's edges laid out by strongly connected component, in the
    order Tarjan's algorithm completes them: a component completes only
    after every component it reaches, so that order is already reverse
    topological (``comp_of`` never rises along an edge) and needs no
    condensation graph.  The normalized target's component, a sink,
    moves to label 0.  The numbering depends only on the arena's vertex
    and edge order.  The solvers and the path oracle share the layout.

    Tarjan walks the edge array as int64 ``array.array``s, indexed as fast
    as lists but 8 bytes an entry, not a list slot plus an int object, and
    writes the labels into one."""
    validate(arena)
    ca = eng.CompiledArena(arena)
    ends = np.append(ca.starts, len(ca.dst))
    labels = _tarjan_sccs(*(array.array("q", a.astype(np.int64).tobytes()) for a in (ends, ca.dst)))
    comp_of = np.frombuffer(labels, dtype=np.int64)
    if is_normalized_mcr(arena):
        (t,) = arena.targets
        comp_of += comp_of < comp_of[t]
        comp_of[t] = 0
    return eng.ComponentLayout(ca, comp_of)


def no_clamp_oracle(
    arena: Arena, dec: eng.ComponentLayout, q: int, finalized: Sequence[int]
) -> List[Optional[List[int]]]:
    """Trivial oracle: every representable value is possible, so no clamp."""
    v0, v1 = dec.bounds[q, :2].tolist()
    return [None] * (v1 - v0)


def simple_path_oracle(
    arena: Arena,
    dec: eng.ComponentLayout,
    q: int,
    finalized: Sequence[int],
    cap: int = DEFAULT_PATH_CAP,
) -> List[Optional[List[int]]]:
    """Candidate values from simple paths that leave the component, as
    sorted lists of ints with the engine's sentinels.

    Each candidate is the path sum plus the finished value at the exit (or
    the sum alone when the path ends in an in-component target).  Both
    sentinels are always included, so an exit to a sentinel adds nothing.
    If any vertex would exceed ``cap`` candidates, or the enumeration
    itself grows too large, the whole component degrades to no-clamp,
    before any walk when the walks would pass ``PATH_WORK_CAP`` for sure
    (``_walks_pass_work_cap``).

    The walks follow the component's scalar form in the layout ``dec``,
    the one its pass sweeps: each member's edges to members by position,
    and its exits.  A trivial component, one vertex without a self-loop,
    gets no table and no walk (``_trivial``): its first sweep reads only
    finished exits, so it lands on an exit candidate, which the clamp
    would keep.

    ``finalized`` is normally the solver's list of finished values, but a
    raw int64 vector or a list of extended values (ints, ``PLUS_INF``,
    ``MINUS_INF``) works too: exit values are only compared with the
    sentinels, and the infinities order against ints just as the
    sentinels do.
    """
    v0, v1 = dec.bounds[q, :2].tolist()
    k = v1 - v0
    targets = arena.targets if arena.objective is Objective.MCR else frozenset()
    has_target = any(dec.comp_of[t] == q for t in targets)
    if _walks_pass_work_cap(k, dec.edge_counts[q], has_target):
        return [None] * k
    form = dec.scalar_form(q)
    if _trivial(form):
        return [None]
    edges, ids = form.edges, form.ids
    is_target = [v in targets for v in ids[:k]] if has_target else None
    on_path = [False] * k
    tables: List[Optional[List[int]]] = []
    work = 0
    for i in range(k):
        cands = {_NEG, _POS}
        if is_target and is_target[i]:
            cands.add(0)
        # Depth first over the simple paths from i.  A path is visited when
        # it is popped, as its last member u, its sum s and the length of
        # the path before u; ``path`` holds the members of the last one.
        path: List[int] = []
        stack = [(i, 0, 0)]
        while stack:
            u, s, depth = stack.pop()
            while len(path) > depth:
                on_path[path.pop()] = False
            path.append(u)
            on_path[u] = True
            es = edges[u]
            work += len(es)
            for j, w in es:
                if j >= k:  # an exit
                    fv = finalized[ids[j]]
                    if _NEG < fv < _POS:
                        cands.add(s + w + int(fv))
                elif is_target and is_target[j]:
                    cands.add(s + w)
                elif not on_path[j]:
                    stack.append((j, s + w, depth + 1))
            if len(cands) > cap or work > PATH_WORK_CAP:
                return [None] * k
        for u in path:
            on_path[u] = False
        tables.append(sorted(cands))
    return tables


def _walks_pass_work_cap(k: int, edges: int, has_target: bool) -> bool:
    """Whether the walks of ``simple_path_oracle`` over a component of k
    members and ``edges`` out-edges would pass ``PATH_WORK_CAP`` for sure:
    with no target among its members, each member's walk reaches all of
    the component and examines every one of its E_C out-edges, so they
    make at least k * E_C steps."""
    return k * edges > PATH_WORK_CAP and not has_target


def _trivial(form: eng.ScalarForm) -> bool:
    """Whether a component is one vertex without a self-loop."""
    return len(form.edges) == 1 and min(form.edges[0])[0] > 0  # position 0 is the vertex


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

    Worst case O(K * E): a component with a cycle changes in every round
    for one of the signs, so one of K members, a ring, runs all K + 1.
    """
    v0, v1, e0, e1 = layout.bounds.T[:4]
    sizes = v1 - v0
    W = int(np.abs(layout.wt).max(initial=0))
    fits = (sizes + 1) * W + 1 <= (int(eng.SNAP) - 1) // (sizes + 1)
    certs: List[Optional[str]] = [None] * len(sizes)
    if not fits.any():
        return certs
    n = len(layout.members)
    comp = np.repeat(np.arange(len(sizes)), e1 - e0)  # of each edge
    keep = (layout.ldst < sizes[comp]) & fits[comp]  # inside edges: to a member
    src = np.repeat(np.arange(n), np.diff(layout.starts + np.repeat(e0, sizes), append=len(comp)))
    stay = np.arange(n)
    src = np.concatenate((src[keep], stay))
    order = np.argsort(src, kind="stable")  # each vertex's stay loop after its edges
    dst = np.concatenate(((layout.ldst + v0[comp])[keep], stay))
    scaled = layout.wt[keep] * (sizes + 1)[comp[keep]]
    wt = np.zeros((2, len(src)), dtype=np.int64)  # the stay loops weigh 0
    wt[:, :len(scaled)] = scaled - 1, -scaled - 1
    sl = eng.EdgeSlice(dst[order], wt[:, order], np.searchsorted(src[order], stay),
                       np.zeros(n, dtype=bool))
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


def _clamping(tables: List[Optional[List[int]]]) -> Optional[List[Optional[List[int]]]]:
    """The oracle's tables, or None when no member has one (a no-clamp or
    degraded component), so that its sweeps skip the clamp altogether."""
    for table in tables:
        if table is not None:
            return tables
    return None


def solve_mcr_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> SolveResult:
    """Per-component reachability solve with candidate clamping.

    Identical output to the plain solver; stats count one outer unit per
    component loop and every restricted sweep as an inner iteration.  Each
    component takes one ``_component_pass``: on its scalar form when it
    has at most ``_engine.SCALAR_MAX_EDGES`` edges, else on its view.
    """
    validate(arena)
    if not is_normalized_mcr(arena):
        raise ArenaError("solve_mcr_accelerated expects a normalized MCR arena")
    started = time.perf_counter()
    layout = scc_decompose(arena)
    ca = layout.ca
    (t,) = arena.targets
    done = [_POS] * arena.n
    done[t] = 0  # component 0 is the target alone
    stats = SolveStats()
    bound = sweep_bound(arena.n, ca.W) + 1
    for q in range(1, len(layout)):
        tables = _clamping(oracle(arena, layout, q, done))
        stats.outer_iterations += 1
        stats.inner_iterations += _component_pass(layout, done, q, tables, bound, ca.cutoff)[0]
    return finish(arena, done, stats, started)


def solve_tp_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> SolveResult:
    """Per-component total-payoff solve.

    Components whose internal cycles all share a strict sign are solved by
    one clamped reachability-style pass (staying inside forever is then
    worth +inf or -inf, so values coincide with the exit-path game).  On a
    'negative' certificate a +inf result can only be an artifact of
    starting from above, so such components are re-solved from below with
    upward clamping.  Values above (n-1)W are then lifted to +inf.
    Everything else runs the plain nested iteration restricted to the
    component, on its view and local vectors.

    A certified component runs that pass as ``_component_pass``, on its
    layout's scalar form with no view when it has at most
    ``_engine.SCALAR_MAX_EDGES`` edges, else on its view.

    The counts are those of the nested iteration's outer loop around the
    pass: one pass when the lifted result is all -inf, which is where the
    outer vector starts on a component not yet solved, else a second that
    repeats the first and confirms it.  That pass reads neither the outer
    vector nor any value the first one changed, so it would take the same
    sweeps to the same values; it is counted in ``k_e``/``k_i`` and held to
    the pass bound, but not run.
    """
    validate(arena)
    if arena.objective is not Objective.TP:
        raise ArenaError("solve_tp_accelerated expects a TP arena")
    started = time.perf_counter()
    layout = scc_decompose(arena)
    ca = layout.ca
    n = arena.n
    lift_at = (n - 1) * ca.W
    done = [_POS] * n
    stats = SolveStats()
    inner_bound = sweep_bound(n, ca.W) + 1
    outer_bound = k_bound(arena) + 1
    certs = cycle_sign_certificates(layout)
    for q in range(len(layout)):
        certificate = certs[q]
        if certificate is None:
            # The outer vector starts at -inf on the members; at the exits
            # it equals x, the finished values.
            view, ids, x = _local(layout, q, done)
            k = len(view.starts)
            y = x.copy()
            y[:k] = eng.NEG
            outer, sweeps = eng.nested_fixpoint(
                view, x, y, cutoff=ca.cutoff, lift=lift_at,
                inner_bound=inner_bound, outer_bound=outer_bound,
            )
            _store(done, ids, y[:k].tolist())
        else:
            tables = _clamping(oracle(arena, layout, q, done))
            sweeps, new = _component_pass(
                layout, done, q, tables, inner_bound, ca.cutoff, lift_at, certificate == "negative")
            outer = 1 if max(new) == _NEG else 2
            if outer == 2 and outer_bound < 1:  # as nested_fixpoint after pass 1
                raise AssertionError("outer iteration exceeded its pass bound")
            sweeps *= outer
        stats.outer_iterations += outer
        stats.inner_iterations += sweeps
    return finish(arena, done, stats, started)


def _component_pass(
    layout: eng.ComponentLayout,
    done: list,
    q: int,
    tables: Optional[List[Optional[List[int]]]],
    bound: int,
    cutoff: int,
    lift: Optional[int] = None,
    resolve: bool = False,
) -> Tuple[int, list]:
    """The clamped pass of component q from above and without stop
    requests: the descent with ``cutoff`` from its members' start, +inf,
    as on every component not yet solved; and, on a 'negative' certificate
    (``resolve``), the ascent from -inf with the lift when a member stays
    at +inf.  Given ``lift``, values above it then rise to +inf.  The pass
    sweeps the component's local values, gathered from ``done``: a list
    over its layout's scalar form when it has at most
    ``_engine.SCALAR_MAX_EDGES`` edges, with no view, else a vector over
    its view, through ``fixpoint``.  Returns the sweep count and the
    members' values, which it writes to ``done``."""
    small = layout.edge_counts[q] <= eng.SCALAR_MAX_EDGES
    if small:
        sl = layout.scalar_form(q)
        ids, k, run = sl.ids, len(sl.edges), eng.scalar_sweeps
        xs = [done[v] for v in ids]
    else:
        sl, ids, xs = _local(layout, q, done)
        k, run = len(sl.starts), eng.fixpoint
    sweeps = run(sl, xs, bound, cutoff=cutoff, tables=tables)
    new = xs[:k] if small else xs[:k].tolist()
    if resolve and _POS in new:
        # Starting from above can strand vertices at +inf; approach the
        # same fixed point from below instead.
        xs[:k] = [_NEG] * k
        sweeps += run(sl, xs, bound, lift=lift, tables=tables)
        new = xs[:k] if small else xs[:k].tolist()
    if lift is not None and max(new) > lift:
        new = [_POS if v > lift else v for v in new]
    _store(done, ids, new)
    return sweeps, new


def _local(layout: eng.ComponentLayout, q: int,
           done: list) -> Tuple[eng.EdgeSlice, list, np.ndarray]:
    """Component q's view, its ``ids`` (its members, then its exits'
    destinations) and the vector of their values in ``done``, which the
    view sweeps."""
    i0, i1 = layout.bounds[q, 4:].tolist()
    ids = layout.ids[i0:i1].tolist()
    return layout.view(q), ids, np.array([done[v] for v in ids], dtype=np.int64)


def _store(done: list, ids: list, values: list) -> None:
    """The members' values into ``done``, by the first of ``ids``."""
    for v, c in zip(ids, values):
        done[v] = c
