"""Strategy extraction, representation, simulation, and verification.

Three strategy shapes: memoryless maps, finite Moore machines, and the
two-phase switching strategy for Min (play an almost-perfect memoryless
strategy, track the running sum, hand over to the attractor strategy once
the accumulated debt pays for the dash to the target).

Moore-machine convention used throughout this package: the machine absorbs
every vertex of the play including the first, i.e. memory after v0..vk is
up(...up(up(m0, v0), v1)..., vk), and the decision at vk reads that memory.
This lets machines track edge weights by carrying the previous vertex in
their state.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from . import _engine as eng
from .arena import Arena, Objective, Player, ValueVector, max_abs_weight
from .attractor import backward_attractor, compute_attractor
from .extvalue import ExtValue, MINUS_INF, PLUS_INF, ext_add, is_finite
from .mcr import SolveResult
from .oracle import (
    Lasso,
    TooManyStrategiesError,
    enumerate_memoryless,
    min_cost_reach,
    payoff_of_lasso,
    tp_of_prefix,
)

PRODUCT_CAP = 10**6
# strategy_json writes the decision table of Moore machines up to this many states.
DECISION_TABLE_CAP = 4096


@dataclass(frozen=True)
class MemorylessStrategy:
    player: Player
    choice: Dict[int, int]


@dataclass(frozen=True)
class DecisionTable:
    """A counting Moore machine's decisions: in memory state m it plays
    ``rows[row_of[m]][j]`` at vertex ``cols[j]``, and states past the
    last read the last.  Each distinct row is stored once."""

    cols: List[int]
    rows: List[List[int]]
    row_of: List[int]

    def decide(self, arena: Arena) -> Callable[[int, int], int]:
        """Lookup ``decide(m, v)``; vertices outside ``cols`` take their
        first successor."""
        pos = {v: j for j, v in enumerate(self.cols)}
        rows, row_of, last = self.rows, self.row_of, len(self.row_of) - 1

        def decide(m: int, v: int) -> int:
            j = pos.get(v)
            if j is None:
                return arena.successor_ids(v)[0]
            return rows[row_of[min(m, last)]][j]

        return decide


@dataclass
class MooreStrategy:
    player: Player
    initial: Hashable
    update: Callable[[Hashable, int], Hashable]
    decide: Callable[[Hashable, int], int]
    size: Optional[int] = None
    table: Optional[DecisionTable] = None  # decide's table for states 0..size-1

    @staticmethod
    def of_memoryless(strategy: MemorylessStrategy) -> "MooreStrategy":
        return MooreStrategy(
            player=strategy.player,
            initial=0,
            update=lambda m, v: 0,
            decide=lambda m, v: strategy.choice[v],
            size=1,
        )


AnyStrategy = Union[MemorylessStrategy, MooreStrategy, "SwitchingStrategy"]


def _as_moore(strategy: AnyStrategy) -> MooreStrategy:
    if isinstance(strategy, MooreStrategy):
        return strategy
    if isinstance(strategy, MemorylessStrategy):
        return MooreStrategy.of_memoryless(strategy)
    if isinstance(strategy, SwitchingStrategy):
        return strategy.as_moore()
    raise TypeError(f"not a strategy: {strategy!r}")


def _move(arena: Arena, machine: MooreStrategy, m: Hashable, v: int) -> int:
    """Machine's move at v; forced vertices fall back to their only edge."""
    try:
        return machine.decide(m, v)
    except KeyError:
        succs = arena.successor_ids(v)
        if len(succs) == 1:
            return succs[0]
        raise


def _owned(arena: Arena, player: Player) -> List[int]:
    """The vertices of ``player`` outside the targets, ascending."""
    return [v for v in range(arena.n) if arena.owners[v] is player and not arena.is_target(v)]


def extract_max_memoryless(arena: Arena, values: ValueVector) -> MemorylessStrategy:
    """Max's memoryless optimum from solved values: at each Max vertex
    outside the targets, the argmax successor of weight + value, ties to
    the smallest successor index.

    No attractor is needed: a vertex valued +inf lies off the target's
    attractor, and its argmax, its smallest successor valued +inf, keeps
    the play off it.
    """
    choice = {
        v: max(arena.successors(v), key=lambda e: ext_add(e[1], values[e[0]]))[0]
        for v in _owned(arena, Player.MAX)
    }
    return MemorylessStrategy(Player.MAX, choice)


class TraceMissingError(ValueError):
    pass


def _argmin(wt: np.ndarray, starts: np.ndarray, cont: np.ndarray, tiekey: np.ndarray,
            n: int) -> np.ndarray:
    """Per member (along the last axis), the successor that minimizes
    (weight + ``cont``, ``tiekey``), sentinels saturated: member i owns the
    edges ``starts[i]`` up to the next member's start, of weights ``wt``.
    ``tiekey`` is distinct among a member's edges, below ``POS``, and
    congruent to the edge's destination modulo ``n``."""
    val = wt + cont
    np.copyto(val, eng.POS, where=cont >= eng.POS)
    np.copyto(val, eng.NEG, where=cont <= eng.NEG)
    best = np.minimum.reduceat(val, starts, axis=-1)
    deg = np.diff(starts, append=len(wt))
    key = np.where(val == np.repeat(best, deg, axis=-1), tiekey, eng.POS)
    return np.minimum.reduceat(key, starts, axis=-1) % n


BLOCK_ENTRIES = 1 << 18  # candidate entries per block of the rewind table


def _min_rows(arena: Arena) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Min's non-target vertices ``cols`` and the rows of the sorted edge
    array from them, ``src``, ``dst`` and ``wt``, with each one's first
    row ``starts``."""
    cols = _owned(arena, Player.MIN)
    mine = np.zeros(arena.n, dtype=bool)
    mine[cols] = True
    edges = arena.edge_array
    src, dst, wt = edges[mine[edges[:, 0]]].T
    return cols, src, dst, wt, np.searchsorted(src, np.flatnonzero(mine))


def extract_min_sigma1(arena: Arena, result: SolveResult) -> MemorylessStrategy:
    """sigma1 of ``extract_min_mcr`` alone, from a traced reachability
    solve: at each Min vertex, the argmin of weight + value against the
    iterate preceding the vertex's last change in the trace (the last
    iterate if it never changed), value ties to the smallest successor.
    The last changes come from one comparison of consecutive rows."""
    if result.trace is None:
        raise TraceMissingError("solve_mcr must be run with with_trace=True")
    raw = result.trace.raw
    cols, src, dst, wt, starts = _min_rows(arena)
    changed = raw[1:] != raw[:-1]
    last = np.where(changed.any(axis=0), len(changed) - changed[::-1].argmax(axis=0), 0)
    against = np.where(last > 0, last - 1, len(raw) - 1)
    pick1 = _argmin(wt, starts, raw[against[src], dst], dst, arena.n)
    return MemorylessStrategy(Player.MIN, dict(zip(cols, pick1.tolist())))


def extract_min_mcr(
    arena: Arena, result: SolveResult
) -> Tuple[MemorylessStrategy, MemorylessStrategy, MooreStrategy]:
    """Min's strategy trio from a traced reachability solve.

    sigma1 is ``extract_min_sigma1``'s.  sigma2 is the attractor reach
    strategy, completed by sigma1 off the attractor.  The Moore strategy
    is the rewind machine: it counts play length m and plays the argmin
    against iterate x_{sweeps - m} (x_0 once m passes sweeps), value ties
    to the successor of smallest attractor rank, then smallest index, so
    it never idles in a zero-weight cycle; it reaches the target within
    ``sweeps`` steps at optimal cost.

    Everything is computed from the trace matrix: the rewind machine's
    decision table (one row per iterate) by two segmented minima per
    block of iterates.  A machine whose rows are all equal collapses to
    one state.
    """
    sigma1 = extract_min_sigma1(arena, result)
    cols, _, dst, wt, starts = _min_rows(arena)
    raw = result.trace.raw
    sweeps = result.stats.sweeps
    n = arena.n
    att = compute_attractor(arena, arena.targets)
    choice2 = dict(sigma1.choice)
    choice2.update(att.min_reach)
    sigma2 = MemorylessStrategy(Player.MIN, choice2)

    rank = np.full(n, n + 1, dtype=np.int64)
    rank[list(att.rank)] = list(att.rank.values())
    tiekey = rank[dst] * n + dst
    # Row k is the argmin against x_k; the machine reads rows 0..sweeps-1.
    read = raw[:sweeps]
    table = np.empty((sweeps, len(cols)), dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // max(len(dst), 1))
    for lo in range(0, sweeps, step):
        block = read[lo : lo + step].take(dst, axis=1)
        table[lo : lo + step] = _argmin(wt, starts, block, tiekey, n)
    # Rows change at few iterates, so only the first row of each run of
    # equal rows goes through the (slow) row-wise np.unique.
    heads = np.flatnonzero(np.r_[True, (table[1:] != table[:-1]).any(axis=1)])
    rows, head_row = np.unique(table[heads], axis=0, return_inverse=True)
    inverse = np.repeat(head_row.reshape(-1), np.diff(np.r_[heads, sweeps]))
    if len(rows) <= 1:
        size, update, row_of = 1, (lambda m, v: 0), [0]
    else:
        top = sweeps + 1  # memory saturates here; play length sweeps and beyond
        # Memory m has absorbed m vertices: m - 1 edges played, so m in
        # 1..sweeps reads x_{sweeps - m}; m = 0 and m = top read x_0.
        trace_row = np.concatenate(([0], np.arange(sweeps - 1, -1, -1), [0]))
        size, update, row_of = top + 1, (lambda m, v: min(m + 1, top)), inverse[trace_row].tolist()
    decisions = DecisionTable(cols, rows.tolist(), row_of)
    sigma_star = MooreStrategy(Player.MIN, 0, update, decisions.decide(arena), size, decisions)
    return sigma1, sigma2, sigma_star


@dataclass
class SwitchingStrategy:
    """Follow sigma1 and the running sum; once a prefix satisfies
    sum <= goal(start) - cost2(here), switch to sigma2 for good.

    ``goal`` is the solved value of the start vertex, or the explicit
    threshold for starts valued -inf.  ``cost2`` is what sigma2 guarantees
    against any adversary.  The condition is checked at every vertex;
    switching early never hurts and pure-Min arenas have no other chance
    to switch.
    """

    arena: Arena
    sigma1: MemorylessStrategy
    sigma2: MemorylessStrategy
    values: ValueVector
    cost2: List[ExtValue]
    threshold: Optional[int] = None
    _sum_floor: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        finite_goals = [v for v in self.values if is_finite(v)]
        if self.threshold is not None:
            finite_goals.append(self.threshold)
        lo = min(finite_goals, default=0)
        hi = max(finite_goals, default=0)
        c2_lo = min((c for c in self.cost2 if is_finite(c)), default=0)
        c2_hi = max((c for c in self.cost2 if is_finite(c)), default=0)
        n = self.arena.n
        w = max_abs_weight(self.arena)
        # Outside this window the exact sum no longer influences any future
        # switch decision, so clamping keeps the memory finite.
        self._sum_floor = min(lo - c2_hi, 0) - (n + 1) * w - 1
        self._sum_ceiling = max(hi - c2_lo, 0) + (n + 1) * w + 1

    def goal(self, start: int) -> ExtValue:
        g = self.values[start]
        if g is MINUS_INF:
            if self.threshold is None:
                raise ValueError("starts valued -inf need an explicit threshold")
            return self.threshold
        return g

    def switchable(self, start: int, here: int, running_sum: int) -> bool:
        goal = self.goal(start)
        if goal is PLUS_INF:
            return True
        c2 = self.cost2[here]
        if not is_finite(c2):
            return False
        return running_sum <= goal - c2

    def as_moore(self) -> MooreStrategy:
        """Finite encoding: (previous vertex, start vertex, clamped running
        sum) before the switch, a single absorbing state afterwards."""
        arena = self.arena
        switched_state = "switched"

        def up(m: Hashable, v: int) -> Hashable:
            if m is switched_state:
                return m
            if m is None:
                start, s = v, 0
            else:
                prev, start, s = m
                s = s + arena.weight(prev, v)
                s = max(min(s, self._sum_ceiling), self._sum_floor)
            if self.switchable(start, v, s):
                return switched_state
            return (v, start, s)

        def decide(m: Hashable, v: int) -> int:
            if arena.owners[v] is not Player.MIN or arena.is_target(v):
                return arena.successor_ids(v)[0]
            if m is switched_state:
                return self.sigma2.choice[v]
            return self.sigma1.choice[v]

        return MooreStrategy(Player.MIN, None, up, decide)


def make_switching(
    sigma1: MemorylessStrategy,
    sigma2: MemorylessStrategy,
    values: ValueVector,
    arena: Arena,
    threshold: Optional[int] = None,
) -> SwitchingStrategy:
    cost2 = list(best_response(arena, sigma2).values)
    return SwitchingStrategy(arena, sigma1, sigma2, values, cost2, threshold)


def project_tp_min(arena: Arena, gy_sigma1: MemorylessStrategy) -> MemorylessStrategy:
    """Project a stop-request-game strategy back onto the original arena.

    Relies on the build_game_Y layout (interior of v sits at index n + v):
    a choice v -> interior(v') becomes v -> v'.
    """
    n = arena.n
    choice: Dict[int, int] = {}
    for v in range(n):
        if arena.owners[v] is Player.MIN and v in gy_sigma1.choice:
            choice[v] = gy_sigma1.choice[v] - n
    return MemorylessStrategy(Player.MIN, choice)


def play_out(
    arena: Arena,
    sigma_max: AnyStrategy,
    sigma_min: AnyStrategy,
    start: int,
    max_steps: Optional[int] = None,
    kind: Optional[Union[Objective, str]] = None,
) -> Tuple[Lasso, ExtValue]:
    """Simulate the unique outcome of a strategy profile.

    Stops at the first repeated (vertex, memories) triple, or at the first
    target visit when scoring reachability, and returns the resulting play
    with its payoff.
    """
    mm = _as_moore(sigma_max)
    mn = _as_moore(sigma_min)
    kind = kind if kind is not None else arena.objective
    kind = kind.value if isinstance(kind, Objective) else kind
    if max_steps is None:
        max_steps = 10**6
    seen: Dict[Tuple, int] = {}
    seq: List[int] = []
    v = start
    state_max, state_min = mm.initial, mn.initial
    for _ in range(max_steps + 1):
        state_max = mm.update(state_max, v)
        state_min = mn.update(state_min, v)
        key = (v, state_max, state_min)
        if key in seen:
            cut = seen[key]
            lasso = Lasso(tuple(seq[:cut]), tuple(seq[cut:]))
            return lasso, payoff_of_lasso(arena, lasso, kind)
        seen[key] = len(seq)
        seq.append(v)
        if kind == "mcr" and arena.is_target(v):
            lasso = Lasso(tuple(seq[:-1]), (v,))
            return lasso, tp_of_prefix(arena, seq)
        nxt = (
            _move(arena, mm, state_max, v)
            if arena.owners[v] is Player.MAX
            else _move(arena, mn, state_min, v)
        )
        if not arena.has_edge(v, nxt):
            raise ValueError(
                f"strategy chose a missing edge {arena.names[v]}->{arena.names[nxt]}"
            )
        v = nxt
    raise RuntimeError("step budget exceeded without a lasso or target")


def _product_reach(
    arena: Arena, fixed: MooreStrategy, starts: List[Tuple[int, Hashable]]
) -> Tuple[List[Tuple[int, Hashable]], List[List[Tuple[int, int]]]]:
    """Reachable product of the arena with the fixed player's machine,
    numbered as found from ``starts`` (nodes 0..len(starts)-1): the nodes,
    and each node's (successor number, weight) list."""
    index = {node: i for i, node in enumerate(starts)}
    nodes = list(starts)
    succ: List[List[Tuple[int, int]]] = []
    for v, m in nodes:  # grows while it is read
        if arena.owners[v] is fixed.player and not arena.is_target(v):
            d = _move(arena, fixed, m, v)
            moves = ((d, arena.weight(v, d)),)
        else:
            moves = arena.successors(v)
        out = []
        for d, w in moves:
            child = (d, fixed.update(m, d))
            j = index.get(child)
            if j is None:
                j = index[child] = len(nodes)
                nodes.append(child)
            out.append((j, w))
        succ.append(out)
        if len(nodes) > PRODUCT_CAP:
            raise ValueError("product of arena and strategy memory too large")
    return nodes, succ


def best_response(arena: Arena, fixed: AnyStrategy) -> ValueVector:
    """Exact reachability value of a fixed strategy, per start vertex.

    The product of the arena with the strategy's memory is numbered as it
    is found, the start vertices first.  Fixed Min: the free Max player
    maximizes; +inf off the product's attractor, where Max dodges the
    target forever, and on it the longest path to the target, taken in the
    attractor's join order.  Fixed Max: the free Min player solves
    one-player shortest paths with -inf through profitable cycles.
    """
    machine = _as_moore(fixed)
    starts = [(v, machine.update(machine.initial, v)) for v in range(arena.n)]
    nodes, succ = _product_reach(arena, machine, starts)
    targets = frozenset(i for i, (v, _) in enumerate(nodes) if arena.is_target(v))
    if machine.player is Player.MAX:
        vals = min_cost_reach(len(nodes), succ, targets)
    else:
        free_max = [arena.owners[v] is Player.MAX for v, _ in nodes]
        vals = _max_reach_values(succ, free_max, targets)
    return ValueVector(arena, vals[: arena.n])


def _max_reach_values(
    succ: List[List[Tuple[int, int]]], free_max: List[bool], targets: frozenset
) -> List[ExtValue]:
    """Longest paths to ``targets`` on a graph where the ``free_max`` nodes
    pick any successor and the others have one; +inf off the attractor.

    A free Max node joins the attractor after all of its successors, any
    other node after its one successor, so filling the nodes in join order
    reads only filled values."""
    preds: List[List[int]] = [[] for _ in succ]
    for i, out in enumerate(succ):
        for j, _ in out:
            preds[j].append(i)
    vals: List[ExtValue] = [PLUS_INF] * len(succ)
    for i in backward_attractor(preds, [len(out) for out in succ], free_max, targets):
        vals[i] = 0 if i in targets else max(ext_add(w, vals[j]) for j, w in succ[i])
    return vals


def extract_max_tp(arena: Arena, values: ValueVector) -> MemorylessStrategy:
    """Max's memoryless optimum for a total-payoff game.

    One-step argmax against the values underdetermines the choice (distinct
    zero cycles can tie), so value-preserving choice combinations are
    searched and certified against Min's enumerated memoryless replies.
    """
    owned = _owned(arena, Player.MAX)
    option_sets = []
    for v in owned:
        opts = []
        for d, w in arena.successors(v):
            if not is_finite(values[v]) or ext_add(w, values[d]) == values[v]:
                opts.append(d)
        option_sets.append(opts or list(arena.successor_ids(v)))
    space = 1
    for opts in option_sets:
        space *= len(opts)
        if space > 10**5:
            raise TooManyStrategiesError("too many candidate Max strategies")
    mins = [
        MemorylessStrategy(Player.MIN, tau)
        for tau in enumerate_memoryless(arena, Player.MIN)
    ]
    for combo in itertools.product(*option_sets):
        sigma = MemorylessStrategy(Player.MAX, dict(zip(owned, combo)))
        ok = True
        for v in range(arena.n):
            worst = None
            for tau in mins:
                _, p = play_out(arena, sigma, tau, v, kind="tp")
                if worst is None or p < worst:
                    worst = p
            if worst != values[v]:
                ok = False
                break
        if ok:
            return sigma
    raise RuntimeError("no value-preserving memoryless Max strategy found")


def strategy_json(strategy: AnyStrategy, arena: Arena) -> bytes:
    """Deterministic JSON rendering of a strategy."""
    if isinstance(strategy, MemorylessStrategy):
        doc = {
            "player": strategy.player.value,
            "kind": "memoryless",
            "choice": {
                arena.names[v]: arena.names[d]
                for v, d in sorted(strategy.choice.items())
            },
        }
    elif isinstance(strategy, SwitchingStrategy):
        doc = {
            "player": "min",
            "kind": "switching",
            "sigma1": {
                arena.names[v]: arena.names[d]
                for v, d in sorted(strategy.sigma1.choice.items())
            },
            "sigma2": {
                arena.names[v]: arena.names[d]
                for v, d in sorted(strategy.sigma2.choice.items())
            },
        }
    elif isinstance(strategy, MooreStrategy):
        doc = {
            "player": strategy.player.value,
            "kind": "moore",
            "memory_size": strategy.size,
        }
        if strategy.size is not None and strategy.size <= DECISION_TABLE_CAP:
            return _moore_json(doc, _decision_table(strategy, arena), arena)
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _decision_table(strategy: MooreStrategy, arena: Arena) -> DecisionTable:
    """The machine's own table, or one read off ``decide`` state by state
    at the player's vertices outside the targets."""
    if strategy.table is not None:
        return strategy.table
    cols = _owned(arena, strategy.player)
    index: Dict[Tuple[int, ...], int] = {}
    row_of = [
        index.setdefault(tuple(strategy.decide(m, v) for v in cols), len(index))
        for m in range(strategy.size)
    ]
    return DecisionTable(cols, [list(row) for row in index], row_of)


def _moore_json(doc: dict, table: DecisionTable, arena: Arena) -> bytes:
    """The bytes of ``json.dumps(doc, indent=2)`` once ``doc["decision"]``
    maps each state to its row, with each distinct row encoded once and
    indented to its depth in the document."""
    names = arena.names
    texts = [
        json.dumps({names[v]: names[d] for v, d in zip(table.cols, row)}, indent=2)
        .replace("\n", "\n    ")
        for row in table.rows
    ]
    body = ",\n".join(f'    "{m}": {texts[r]}' for m, r in enumerate(table.row_of))
    decision = "{\n" + body + "\n  }" if body else "{}"
    head = json.dumps(doc, indent=2)[: -len("\n}")]
    return (head + ',\n  "decision": ' + decision + "\n}\n").encode("utf-8")
