"""Attractor computation and the +inf classification it induces.

Backward fixpoint with per-Max-vertex out-degree counters, O(V + E)
(``backward_attractor``, which ``strategies.best_response`` runs on the
product of an arena and a strategy too, relying on the join order being
a topological order of the attracted region when each Min node has one
successor, as a Max node joins after all of its successors).
Ranks are the rounds of the attractor recurrence; they drive the
deterministic reach strategy for Min.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence

from .arena import Arena, Objective


@dataclass(frozen=True)
class AttractorResult:
    attracted: FrozenSet[int]
    rank: Dict[int, int]
    min_reach: Dict[int, int]


def backward_attractor(preds: Sequence[Sequence[int]], out_degree: Sequence[int],
                       is_max: Sequence[bool], seed: Iterable[int]) -> Dict[int, int]:
    """The nodes from which Min forces a visit to ``seed``, over a graph
    given by each node's predecessor list, out-degree and Max flag: a Min
    node joins as soon as one of its successors has, a Max node once all
    of them have (its counter, from the out-degree, reaches 0).  Maps each
    attracted node to the round it joined in, 0 for the seed, in the
    order they joined."""
    counters = list(out_degree)
    rank = {v: 0 for v in seed}
    layer = list(rank)
    level = 0
    while layer:
        level += 1
        nxt = []
        for v in layer:
            for u in preds[v]:
                if u in rank:
                    continue
                if is_max[u]:
                    counters[u] -= 1
                    if counters[u]:
                        continue
                rank[u] = level
                nxt.append(u)
        layer = nxt
    return rank


def compute_attractor(arena: Arena, from_set: Iterable[int]) -> AttractorResult:
    """Least set from which Min forces reaching ``from_set``.

    ``min_reach`` maps attracted Min vertices (outside the seed) to a
    successor of strictly smaller rank, ties broken by smallest rank then
    smallest index.
    """
    preds: list = [[] for _ in range(arena.n)]
    for s, d, _ in arena.edges:
        preds[d].append(s)
    out_degree = [len(arena.successors(v)) for v in range(arena.n)]
    is_max = arena.is_max.tolist()
    rank = backward_attractor(preds, out_degree, is_max, sorted(set(from_set)))
    attracted = frozenset(rank)
    min_reach: Dict[int, int] = {}
    for v in attracted:
        if not is_max[v] and rank[v] > 0:
            best = min(
                (rank[d], d)
                for d, _ in arena.successors(v)
                if d in rank and rank[d] < rank[v]
            )
            min_reach[v] = best[1]
    return AttractorResult(attracted, rank, min_reach)


def classify_plus_infinity(arena: Arena) -> FrozenSet[int]:
    """Vertices whose min-cost reachability value is +inf."""
    if arena.objective is not Objective.MCR:
        raise ValueError("classification needs an MCR arena")
    result = compute_attractor(arena, arena.targets)
    return frozenset(range(arena.n)) - result.attracted
