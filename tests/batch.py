"""Vectorized exhaustive-corpus checking.

The tiny-arena corpus (up to three vertices, out-degree at most two, weights
in -2..2, every ownership and target pattern) is too large to push through
the per-arena APIs one game at a time, so shapes (structure + owners +
targets) are enumerated in Python while all weight assignments of a shape
are solved simultaneously as rows of one numpy system.  Both sides of every
comparison are batched.  The solver side is the production value-iteration
kernel itself (``quantgames._engine.fixpoint``/``nested_fixpoint``), given
one weight row per assignment.  The reference side is independent: it
re-implements the brute-force oracles (strategy enumeration + Bellman-Ford /
outcome lassos) row-wise.

test_acceptance cross-validates these batched paths against the public
per-arena APIs on random samples before trusting them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from quantgames import _engine as eng
from quantgames.mcr import sweep_bound

POS = eng.POS
NEG = eng.NEG
WEIGHT_RANGE = range(-2, 3)


def successor_options(nv: int) -> List[Tuple[int, ...]]:
    opts = [(d,) for d in range(nv)]
    opts += [c for c in itertools.combinations(range(nv), 2)]
    return opts


def structures(nv: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    yield from itertools.product(successor_options(nv), repeat=nv)


def owner_patterns(nv: int) -> Iterator[Tuple[bool, ...]]:
    # True = Max
    yield from itertools.product((True, False), repeat=nv)


def target_patterns(nv: int) -> Iterator[Tuple[int, ...]]:
    for k in range(1, nv + 1):
        yield from itertools.combinations(range(nv), k)


@dataclass
class Shape:
    """One normalized structure with its batched weight assignments."""

    nv: int                      # original vertex count
    n: int                       # vertices incl. fresh target (MCR) or nv (TP)
    target: Optional[int]
    is_max: np.ndarray           # [n]
    src: np.ndarray              # [E] sorted by (src, dst)
    dst: np.ndarray
    starts: np.ndarray           # [n]
    wcol: np.ndarray             # [E] index into weight rows, -1 for fixed 0
    weights: np.ndarray          # [M, K] enumerated assignments
    succs: List[List[int]]       # edge indices per vertex

    @property
    def rows(self) -> int:
        return len(self.weights)

    def wfull(self) -> np.ndarray:
        out = np.zeros((self.rows, len(self.src)), dtype=np.int64)
        varying = self.wcol >= 0
        out[:, varying] = self.weights[:, self.wcol[varying]]
        return out

    def row_w(self) -> np.ndarray:
        if self.weights.shape[1] == 0:
            return np.zeros(self.rows, dtype=np.int64)
        return np.abs(self.weights).max(axis=1)


def _weight_grid(k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(WEIGHT_RANGE, repeat=k)), dtype=np.int64)


def _finish(nv, n, target, owners, edges) -> Shape:
    # edges: list of (src, dst, wcol); sort by (src, dst)
    edges = sorted(edges)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    wcol = np.array([e[2] for e in edges], dtype=np.int64)
    starts = np.searchsorted(src, np.arange(n, dtype=np.int64))
    k = int(wcol.max() + 1) if len(wcol) and wcol.max() >= 0 else 0
    succs: List[List[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        succs[e[0]].append(i)
    return Shape(
        nv=nv,
        n=n,
        target=target,
        is_max=np.array(owners + ((True,) if target is not None else ())[: n - nv], dtype=bool),
        src=src,
        dst=dst,
        starts=starts,
        wcol=wcol,
        weights=_weight_grid(k),
        succs=succs,
    )


def mcr_shapes(nv: int) -> Iterator[Shape]:
    """Normalized forms: non-target vertices keep their moves, former
    targets forward to the fresh Max target for free."""
    for succ_sets in structures(nv):
        for owners in owner_patterns(nv):
            for targets in target_patterns(nv):
                tset = set(targets)
                t = nv
                edges = []
                col = 0
                for v in range(nv):
                    if v in tset:
                        edges.append((v, t, -1))
                        continue
                    for d in succ_sets[v]:
                        edges.append((v, d, col))
                        col += 1
                edges.append((t, t, -1))
                yield _finish(nv, nv + 1, t, owners, edges)


def tp_shapes(nv: int) -> Iterator[Shape]:
    for succ_sets in structures(nv):
        for owners in owner_patterns(nv):
            edges = []
            col = 0
            for v in range(nv):
                for d in succ_sets[v]:
                    edges.append((v, d, col))
                    col += 1
            yield _finish(nv, nv, None, owners, edges)


def _slice(shape: Shape) -> eng.EdgeSlice:
    """The whole-graph slice with one weight row per assignment."""
    return eng.EdgeSlice(slice(None), shape.dst, shape.wfull(), shape.starts, shape.is_max)


def solve_mcr_batch(shape: Shape) -> np.ndarray:
    """Every weight row through the production reachability kernel."""
    cutoff = (-(shape.n - 1) * shape.row_w())[:, None]
    x = np.full((shape.rows, shape.n), POS, dtype=np.int64)
    x[:, shape.target] = 0
    eng.fixpoint(_slice(shape), x, sweep_bound(shape.n, 2) + 1, cutoff=cutoff)
    return x


def solve_tp_batch(shape: Shape) -> np.ndarray:
    """Every weight row through the production total-payoff kernel."""
    roww = shape.row_w()[:, None]
    x = np.full((shape.rows, shape.n), POS, dtype=np.int64)
    y = np.full((shape.rows, shape.n), NEG, dtype=np.int64)
    eng.nested_fixpoint(
        _slice(shape),
        x,
        y,
        cutoff=-(shape.n - 1) * roww,
        lift=(shape.n - 1) * roww,
        inner_bound=sweep_bound(shape.n, 2) + 1,
        outer_bound=shape.n * (2 * (shape.n - 1) * 2 + 1) + 1,
    )
    return y


def _max_strategies(shape: Shape) -> Iterator[Dict[int, int]]:
    choosers = [
        v
        for v in range(shape.n)
        if shape.is_max[v] and v != shape.target and len(shape.succs[v]) > 1
    ]
    for combo in itertools.product(*[shape.succs[v] for v in choosers]):
        yield dict(zip(choosers, combo))


def _selected_edges(shape: Shape, sigma: Dict[int, int], player_max: bool) -> np.ndarray:
    keep = []
    for v in range(shape.n):
        if shape.is_max[v] == player_max and v in sigma:
            keep.append(sigma[v])
        elif shape.is_max[v] == player_max and v != shape.target and len(shape.succs[v]) == 1:
            keep.append(shape.succs[v][0])
        elif shape.is_max[v] == player_max and v == shape.target:
            keep.extend(shape.succs[v])
        else:
            keep.extend(shape.succs[v])
    return np.array(sorted(keep), dtype=np.int64)


def oracle_mcr_batch(shape: Shape) -> np.ndarray:
    """Reference values: max over Max strategies of batched Bellman-Ford
    with negative-cycle taint propagation."""
    wfull = shape.wfull()
    best = None
    n = shape.n
    for sigma in _max_strategies(shape):
        sel = _selected_edges(shape, sigma, player_max=True)
        ssrc = shape.src[sel]
        sdst = shape.dst[sel]
        sw = wfull[:, sel]
        sstarts = np.searchsorted(ssrc, np.arange(n, dtype=np.int64))
        dist = np.full((shape.rows, n), POS, dtype=np.int64)
        dist[:, shape.target] = 0

        def relax(d):
            cont = d[:, sdst]
            cand = sw + cont
            np.copyto(cand, POS, where=cont >= POS)
            red = np.minimum.reduceat(cand, sstarts, axis=1)
            red[:, shape.target] = 0
            return np.minimum(d, red)

        for _ in range(n):
            dist = relax(dist)
        tainted = np.zeros_like(dist, dtype=bool)
        for _ in range(2 * n):
            new = relax(dist)
            tainted |= new < dist
            dist = new
        # close the taint backwards along selected edges
        for _ in range(n):
            hit = tainted[:, sdst]
            agg = np.logical_or.reduceat(hit, sstarts, axis=1)
            agg[:, shape.target] = False
            tainted |= agg
        vals = dist.copy()
        vals[tainted] = NEG
        best = vals if best is None else np.maximum(best, vals)
    return best


def _min_strategies(shape: Shape) -> Iterator[Dict[int, int]]:
    choosers = [
        v
        for v in range(shape.n)
        if not shape.is_max[v] and len(shape.succs[v]) > 1
    ]
    for combo in itertools.product(*[shape.succs[v] for v in choosers]):
        yield dict(zip(choosers, combo))


def _forced_edge(shape, sigma_max, sigma_min, v) -> int:
    if shape.is_max[v]:
        if v in sigma_max:
            return sigma_max[v]
        return shape.succs[v][0]
    if v in sigma_min:
        return sigma_min[v]
    return shape.succs[v][0]


def oracle_tp_mp_batch(shape: Shape) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference TP values plus exact mean-payoff (numerator, denominator)
    via max-min over memoryless profiles of outcome lassos."""
    wfull = shape.wfull()
    rows = shape.rows
    n = shape.n
    tp_best = np.full((rows, n), NEG, dtype=np.int64)
    mp_best_num = np.full((rows, n), -1, dtype=np.int64)
    mp_best_den = np.ones((rows, n), dtype=np.int64)
    mp_best_num[:, :] = np.iinfo(np.int64).min // 4  # acts as -infinity
    cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def lasso_payoffs(pre: Tuple[int, ...], cyc: Tuple[int, ...]):
        key = (pre, cyc)
        if key in cache:
            return cache[key]
        cyc_sum = wfull[:, list(cyc)].sum(axis=1) if cyc else np.zeros(rows, dtype=np.int64)
        tp = np.where(cyc_sum > 0, POS, NEG)
        zero = cyc_sum == 0
        if zero.any():
            entry = (
                wfull[:, list(pre)].sum(axis=1)
                if pre
                else np.zeros(rows, dtype=np.int64)
            )
            partial = np.cumsum(wfull[:, list(cyc)], axis=1)
            tp = np.where(zero, entry + partial.min(axis=1), tp)
        result = (tp, cyc_sum, np.int64(len(cyc)))
        cache[key] = result
        return result

    for sigma_max in _max_strategies(shape):
        tp_worst = None
        mp_worst_num = None
        mp_worst_den = None
        for sigma_min in _min_strategies(shape):
            tp_cols = np.empty((rows, n), dtype=np.int64)
            num_cols = np.empty((rows, n), dtype=np.int64)
            den_cols = np.empty((rows, n), dtype=np.int64)
            for start in range(n):
                seen = {}
                seq = []
                v = start
                while v not in seen:
                    seen[v] = len(seq)
                    seq.append(_forced_edge(shape, sigma_max, sigma_min, v))
                    v = int(shape.dst[seq[-1]])
                cut = seen[v]
                pre, cyc = tuple(seq[:cut]), tuple(seq[cut:])
                tp, num, den = lasso_payoffs(pre, cyc)
                tp_cols[:, start] = tp
                num_cols[:, start] = num
                den_cols[:, start] = den
            if tp_worst is None:
                tp_worst, mp_worst_num, mp_worst_den = tp_cols, num_cols, den_cols
            else:
                tp_worst = np.minimum(tp_worst, tp_cols)
                smaller = num_cols * mp_worst_den < mp_worst_num * den_cols
                mp_worst_num = np.where(smaller, num_cols, mp_worst_num)
                mp_worst_den = np.where(smaller, den_cols, mp_worst_den)
        tp_best = np.maximum(tp_best, tp_worst)
        larger = mp_worst_num * mp_best_den > mp_best_num * mp_worst_den
        mp_best_num = np.where(larger, mp_worst_num, mp_best_num)
        mp_best_den = np.where(larger, mp_worst_den, mp_best_den)
    return tp_best, mp_best_num, mp_best_den


def attracted_region(shape: Shape) -> List[int]:
    """Vertices from which Min forces the target (weight-independent)."""
    preds: List[List[int]] = [[] for _ in range(shape.n)]
    for s, d in zip(shape.src.tolist(), shape.dst.tolist()):
        preds[d].append(s)
    counters = [len(shape.succs[v]) for v in range(shape.n)]
    att = {shape.target}
    layer = [shape.target]
    while layer:
        nxt = []
        for v in layer:
            for u in preds[v]:
                if u in att:
                    continue
                if not shape.is_max[u]:
                    att.add(u)
                    nxt.append(u)
                else:
                    counters[u] -= 1
                    if counters[u] == 0:
                        att.add(u)
                        nxt.append(u)
        layer = nxt
    return sorted(att)


def mp_sign_batch(shape: Shape, region: Sequence[int]) -> np.ndarray:
    """Sign (-1/0/+1) of the mean payoff on the induced attracted region."""
    region = list(region)
    pos = {v: i for i, v in enumerate(region)}
    keep = [
        i
        for i in range(len(shape.src))
        if int(shape.src[i]) in pos and int(shape.dst[i]) in pos
    ]
    src = np.array([pos[int(shape.src[i])] for i in keep], dtype=np.int64)
    dst = np.array([pos[int(shape.dst[i])] for i in keep], dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    cols = np.array(keep, dtype=np.int64)[order]
    m = len(region)
    starts = np.searchsorted(src, np.arange(m, dtype=np.int64))
    is_max = shape.is_max[region]
    wfull = shape.wfull()[:, cols]
    steps = 4 * m * m * 2 + 1
    x = np.zeros((shape.rows, m), dtype=np.int64)
    for _ in range(steps):
        cand = wfull + x[:, dst]
        mx = np.maximum.reduceat(cand, starts, axis=1)
        mn = np.minimum.reduceat(cand, starts, axis=1)
        x = np.where(is_max[None, :], mx, mn)
    lhs = 2 * m * x
    return np.where(lhs > steps, 1, np.where(lhs < -steps, -1, 0))
