"""SCC decomposition and the two per-component acceleration schemes.

The first scheme solves one strongly connected component at a time in
topological order, reusing finished values.  The second additionally asks a
value oracle for a finite candidate set per vertex and snaps iterates onto
it, collapsing long descents into one jump.

For total-payoff components the candidate sets built from exit paths are a
sound description of the final values only when every internal cycle is
strictly positive or every one strictly negative (otherwise optimal plays
may stay inside forever).  Components certified that way are solved in a
single reachability-style pass; the rest fall back to the plain nested
iteration restricted to the component.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import _engine as eng
from .arena import Arena, ArenaError, Objective, is_normalized_mcr, validate
from .extvalue import ExtValue, MINUS_INF, PLUS_INF, is_finite
from .mcr import McrResult, SolveStats, sweep_bound
from .tp import TpResult, k_bound

UnsoundOracleError = eng.UnsoundOracleError

DEFAULT_PATH_CAP = 4096
PATH_WORK_CAP = 200_000

# An oracle maps (arena, dec, q, finalized) to one candidate set per member
# of component q, or None entries meaning "no clamp" for that vertex.
# ``finalized`` is an indexable view of already-final values.
Oracle = Callable[
    [Arena, "SccDecomposition", int, Sequence[ExtValue]],
    List[Optional[FrozenSet[ExtValue]]],
]


class _FinalizedView:
    """Lazy extended-value view over the solver's raw vector."""

    def __init__(self, raw: np.ndarray) -> None:
        self._raw = raw

    def __getitem__(self, i: int) -> ExtValue:
        return eng.ext_of_raw(int(self._raw[i]))

    def __len__(self) -> int:
        return len(self._raw)


@dataclass(frozen=True)
class SccDecomposition:
    """Topologically ordered components: dec(v) >= dec(v') on every edge,
    every index inhabited, component 0 is the normalized target when one
    exists."""

    comp_of: Tuple[int, ...]
    components: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.components)


def _tarjan_sccs(arena: Arena) -> List[List[int]]:
    n = arena.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            succs = arena.successor_ids(v)
            recursed = False
            for k in range(ei, len(succs)):
                w = succs[k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def scc_decompose(arena: Arena) -> SccDecomposition:
    """Deterministic numbering: sinks first (reverse topological), ties by
    smallest member index, the normalized target component always first."""
    validate(arena)
    sccs = _tarjan_sccs(arena)
    raw_of: Dict[int, int] = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            raw_of[v] = i
    out_deg = [0] * len(sccs)
    preds: List[set] = [set() for _ in sccs]
    cross: List[set] = [set() for _ in sccs]
    for s, d, _ in arena.edges:
        a, b = raw_of[s], raw_of[d]
        if a != b and b not in cross[a]:
            cross[a].add(b)
            out_deg[a] += 1
            preds[b].add(a)
    target_comp = -1
    if is_normalized_mcr(arena):
        (t,) = arena.targets
        target_comp = raw_of[t]
    heap = [
        (i != target_comp, comp[0], i)
        for i, comp in enumerate(sccs)
        if out_deg[i] == 0
    ]
    heapq.heapify(heap)
    number: Dict[int, int] = {}
    ordered: List[Tuple[int, ...]] = []
    while heap:
        _, _, i = heapq.heappop(heap)
        number[i] = len(ordered)
        ordered.append(tuple(sccs[i]))
        for p in preds[i]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                heapq.heappush(heap, (p != target_comp, sccs[p][0], p))
    comp_of = [0] * arena.n
    for i, q in number.items():
        for v in sccs[i]:
            comp_of[v] = q
    return SccDecomposition(tuple(comp_of), tuple(ordered))


def no_clamp_oracle(
    arena: Arena, dec: SccDecomposition, q: int, finalized: Sequence[ExtValue]
) -> List[Optional[FrozenSet[ExtValue]]]:
    """Trivial oracle: every representable value is possible, so no clamp."""
    return [None] * len(dec.components[q])


def simple_path_oracle(
    arena: Arena,
    dec: SccDecomposition,
    q: int,
    finalized: Sequence[ExtValue],
    cap: int = DEFAULT_PATH_CAP,
) -> List[Optional[FrozenSet[ExtValue]]]:
    """Candidate values from simple paths that leave the component.

    Each candidate is the path sum plus the finished value at the exit (or
    the sum alone when the path ends in an in-component target).  Both
    infinities are always included.  If any vertex would exceed ``cap``
    candidates, or the enumeration itself grows too large, the whole
    component degrades to no-clamp.
    """
    members = dec.components[q]
    inside = set(members)
    sets: List[Optional[FrozenSet[ExtValue]]] = []
    work = 0
    for v in members:
        cands: set = {MINUS_INF, PLUS_INF}
        # Iterative DFS over simple paths from v through the component.
        path_sum = {v: 0}
        stack: List[Tuple[int, List[Tuple[int, int]]]] = [(v, list(arena.successors(v)))]
        aborted = False
        if arena.is_target(v) and arena.objective is Objective.MCR:
            cands.add(0)
        while stack:
            u, edges_left = stack[-1]
            if not edges_left:
                stack.pop()
                del path_sum[u]
                continue
            d, w = edges_left.pop()
            work += 1
            s = path_sum[u] + w
            if d not in inside:
                fv = finalized[d]
                cands.add(fv if not is_finite(fv) else s + fv)
            elif arena.is_target(d) and arena.objective is Objective.MCR:
                cands.add(s)
            elif d not in path_sum:
                path_sum[d] = s
                stack.append((d, list(arena.successors(d))))
            if len(cands) > cap or work > PATH_WORK_CAP:
                aborted = True
                break
        if aborted:
            return [None] * len(members)
        sets.append(frozenset(cands))
    return sets


def _cycle_sign_certificate(arena: Arena, members: Sequence[int]) -> Optional[str]:
    """'positive' / 'negative' when every internal cycle has that strict
    sign (vacuously 'positive' for cycle-free components), else None."""
    inside = {v: i for i, v in enumerate(members)}
    edges = [
        (inside[s], inside[d], w)
        for s, d, w in arena.edges
        if s in inside and d in inside
    ]
    if not edges:
        return "positive"

    def has_nonpositive(sign: int) -> bool:
        # A cycle with sign*weight <= 0 exists iff the graph with weights
        # sign*w*(k+1) - 1 has a negative cycle (k = member count).
        k = len(members)
        dist = [0] * k
        trans = [(a, b, sign * w * (k + 1) - 1) for a, b, w in edges]
        for _ in range(k):
            changed = False
            for a, b, w in trans:
                if dist[a] + w < dist[b]:
                    dist[b] = dist[a] + w
                    changed = True
            if not changed:
                return False
        for a, b, w in trans:
            if dist[a] + w < dist[b]:
                return True
        return False

    if not has_nonpositive(+1):
        return "positive"
    if not has_nonpositive(-1):
        return "negative"
    return None


def _candidate_tables(
    sets: List[Optional[FrozenSet[ExtValue]]],
) -> List[Optional[np.ndarray]]:
    return [
        None if s is None else np.array(sorted(map(eng.raw_of_ext, s)), dtype=np.int64)
        for s in sets
    ]


def solve_mcr_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> McrResult:
    """Per-component reachability solve with candidate clamping.

    Identical output to the plain solver; stats count one outer unit per
    component loop and every restricted sweep as an inner iteration.
    """
    if not is_normalized_mcr(arena):
        raise ArenaError("solve_mcr_accelerated expects a normalized MCR arena")
    started = time.perf_counter()
    dec = scc_decompose(arena)
    ca = eng.CompiledArena(arena)
    (t,) = arena.targets
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    x[t] = 0
    stats = SolveStats()
    bound = sweep_bound(arena.n, ca.W) + 1
    for q in range(1, len(dec)):
        tables = _candidate_tables(oracle(arena, dec, q, _FinalizedView(x)))
        view = eng.ComponentView(ca, dec.components[q])
        x[view.members] = [eng.POS if tab is None else tab[-1] for tab in tables]
        stats.outer_iterations += 1
        stats.inner_iterations += eng.fixpoint(view, x, bound, cutoff=ca.cutoff, tables=tables)
    stats.sweeps = stats.inner_iterations
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    return McrResult(eng.from_array(arena, x), stats)


def solve_tp_accelerated(
    arena: Arena, oracle: Oracle = simple_path_oracle
) -> TpResult:
    """Per-component total-payoff solve.

    Components whose internal cycles all share a strict sign are solved by
    one clamped reachability-style pass (staying inside forever is then
    worth +inf or -inf, so values coincide with the exit-path game); a
    second outer pass confirms stabilization.  On a 'negative' certificate
    a +inf result can only be an artifact of starting from above, so such
    components are re-solved from below with upward clamping.  Everything
    else runs the plain nested iteration restricted to the component.
    """
    if arena.objective is not Objective.TP:
        raise ArenaError("solve_tp_accelerated expects a TP arena")
    validate(arena)
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
    for q in range(len(dec)):
        members = dec.components[q]
        tables = _candidate_tables(oracle(arena, dec, q, _FinalizedView(x)))
        view = eng.ComponentView(ca, members)
        certificate = _cycle_sign_certificate(arena, members)
        outer, sweeps = eng.nested_fixpoint(
            view, x, y, cutoff=ca.cutoff, lift=lift_at,
            inner_bound=inner_bound, outer_bound=outer_bound,
            inner=None if certificate is None else _signed_pass(ca, view, x, tables, certificate),
        )
        stats.outer_iterations += outer
        stats.inner_iterations += sweeps
    stats.sweeps = stats.inner_iterations
    stats.wall_ms = int((time.perf_counter() - started) * 1000)
    return TpResult(eng.from_array(arena, y), stats)


def _signed_pass(
    ca: eng.CompiledArena,
    view: eng.ComponentView,
    x: np.ndarray,
    tables: List[Optional[np.ndarray]],
    certificate: str,
) -> Callable[[], int]:
    """Inner pass for a certified component: the clamped reachability-style
    iteration from above, without stop requests."""
    marr = view.members
    bound = sweep_bound(ca.n, ca.W) + 1

    def solve() -> int:
        x[marr] = eng.POS
        sweeps = eng.fixpoint(view, x, bound, cutoff=ca.cutoff, tables=tables)
        if certificate == "negative" and np.any(x[marr] >= eng.POS):
            # Starting from above can strand vertices at +inf; approach the
            # same fixed point from below instead.
            x[marr] = eng.NEG
            sweeps += eng.fixpoint(view, x, bound, lift=(ca.n - 1) * ca.W, tables=tables)
        return sweeps

    return solve
