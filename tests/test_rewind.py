"""Min's strategies from the trace matrix against the scalar rules.

``reference_min_mcr`` re-states, one vertex and one iterate at a time over
``ValueVector``s, the rules that ``extract_min_mcr`` vectorizes: sigma1's
argmin against the iterate before each vertex's last change, and the rewind
machine's argmin keyed by (value, attractor rank, index).  The corpus mixes
value ties, zero-weight cycles, and successors valued +inf and -inf.
"""

import json
import random

import pytest

from quantgames.arena import Objective, Player, make_arena, normalize_target
from quantgames.attractor import compute_attractor
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF, ext_add
from quantgames.gamefile import FamilySpec, generate
from quantgames.mcr import solve_mcr
from quantgames.strategies import (
    MemorylessStrategy,
    MooreStrategy,
    extract_min_mcr,
    make_switching,
    strategy_json,
)

from conftest import fig2a, layered


def reference_min_mcr(arena, result):
    """(sigma1 choice, sigma2 choice, decide, size) by the scalar rules."""
    trace = list(result.trace)
    sweeps = result.stats.sweeps
    att = compute_attractor(arena, arena.targets)

    def argmin_against(v, vec):
        best = None
        for d, w in arena.successors(v):
            cand = ext_add(w, vec[d])
            if best is None or cand < best[0]:
                best = (cand, d)
        return best[1]

    def argmin_progressing(v, vec):
        best = None
        for d, w in arena.successors(v):
            key = (ext_add(w, vec[d]), att.rank.get(d, arena.n + 1), d)
            if best is None or key < best:
                best = key
        return best[2]

    free = [v for v in range(arena.n) if arena.owners[v] is Player.MIN and not arena.is_target(v)]
    choice1 = {}
    for v in free:
        last_change = 0
        for i in range(1, len(trace)):
            if trace[i][v] != trace[i - 1][v]:
                last_change = i
        against = trace[last_change - 1] if last_change > 0 else trace[-1]
        choice1[v] = argmin_against(v, against)
    choice2 = dict(choice1)
    choice2.update(att.min_reach)
    top = sweeps + 1

    def decide(m, v):
        if v not in free:
            return arena.successor_ids(v)[0]
        if 0 <= m - 1 < sweeps:
            return argmin_progressing(v, trace[sweeps - m])
        return argmin_progressing(v, trace[0])

    rows = {tuple(decide(m, v) for v in free) for m in range(1, top + 1)}
    if len(rows) <= 1:
        return choice1, choice2, lambda m, v: decide(1, v), 1
    return choice1, choice2, decide, top + 1


def _named_arenas():
    out = [fig2a(3), fig2a(50), generate(FamilySpec("lsp_fig5"))]
    out += [layered(n, W, Objective.MCR) for n in (1, 2, 3, 4) for W in (1, 4, 7)]
    return out


def _tie_arenas(seed, count):
    """Weights in -1..1 with zero-weight self-loops on some vertices, so
    values tie often and zero cycles abound."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        base = random_arena(rng, 6, 1, Objective.MCR)
        loops = {(s, d) for s, d, _ in base.edges}
        edges = list(base.edges) + [
            (v, v, 0) for v in range(base.n) if (v, v) not in loops and rng.random() < 0.3
        ]
        out.append(make_arena(base.names, base.owners, edges, base.targets, Objective.MCR))
    return out


def _infinity_arenas():
    """Min vertices whose successors are valued +inf (or -inf) by
    different weights, so only saturation makes them tie."""
    MIN, MAX = Player.MIN, Player.MAX
    return [
        # m reaches t only at cost 5; trap1 and trap2 never reach it.
        make_arena(
            ["m", "trap1", "trap2", "t"],
            [MIN, MAX, MAX, MAX],
            [(0, 1, -3), (0, 2, 4), (0, 3, 5), (1, 1, 0), (2, 2, 0), (3, 3, 0)],
            [3],
            Objective.MCR,
        ),
        # m has only +inf successors, of different weights.
        make_arena(
            ["m", "trap1", "trap2", "t"],
            [MIN, MAX, MAX, MAX],
            [(0, 1, 3), (0, 2, -4), (1, 1, 0), (2, 2, 0), (3, 3, 0)],
            [3],
            Objective.MCR,
        ),
        # m and its successors l1, l2 sit on negative cycles: all -inf.
        make_arena(
            ["m", "l1", "l2", "t"],
            [MIN, MIN, MIN, MAX],
            [(0, 1, 6), (0, 2, -2), (0, 3, 0), (1, 1, -1), (1, 3, 0),
             (2, 2, -1), (2, 3, 0), (3, 3, 0)],
            [3],
            Objective.MCR,
        ),
    ]


def _random_arenas(seed, count):
    rng = random.Random(seed)
    return [random_arena(rng, 7, 4, Objective.MCR) for _ in range(count)]


CORPUS = _named_arenas() + _tie_arenas(61, 150) + _random_arenas(63, 150) + _infinity_arenas()


def test_extract_min_mcr_matches_scalar_rules():
    seen = {"plus_inf": 0, "minus_inf": 0, "multi_state": 0}
    for raw_arena in CORPUS:
        arena = normalize_target(raw_arena)
        res = solve_mcr(arena, with_trace=True)
        sigma1, sigma2, star = extract_min_mcr(arena, res)
        choice1, choice2, decide, size = reference_min_mcr(arena, res)
        assert sigma1.choice == choice1
        assert sigma2.choice == choice2
        assert star.size == size
        for m in range(size + 1):
            for v in range(arena.n):
                assert star.decide(m, v) == decide(m, v), (arena, m, v)
        values = list(res.values)
        seen["plus_inf"] += PLUS_INF in values
        seen["minus_inf"] += MINUS_INF in values
        seen["multi_state"] += size > 1
    assert min(seen.values()) >= 10, seen


def _old_moore_json(strategy, arena):
    """The Moore branch of ``strategy_json`` as one ``json.dumps``."""
    doc = {"player": strategy.player.value, "kind": "moore", "memory_size": strategy.size}
    table = {}
    for m in range(strategy.size):
        row = {}
        for v in range(arena.n):
            if arena.owners[v] is strategy.player and not arena.is_target(v):
                row[arena.names[v]] = arena.names[strategy.decide(m, v)]
        table[str(m)] = row
    doc["decision"] = table
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


NO_FREE_MIN = make_arena(
    ["a", "b", "t"],
    [Player.MAX, Player.MAX, Player.MIN],
    [(0, 1, 2), (0, 2, 1), (1, 2, -1), (1, 0, 0), (2, 2, 0)],
    [2],
    Objective.MCR,
)


@pytest.mark.parametrize(
    "arena, size",
    [(fig2a(3), 10), (fig2a(5), 14), (layered(3, 5, Objective.MCR), None),
     (generate(FamilySpec("lsp_fig5")), 1), (NO_FREE_MIN, 1)],
)
def test_rewind_json_matches_one_dumps(arena, size):
    res = solve_mcr(arena, with_trace=True)
    _, _, star = extract_min_mcr(arena, res)
    if size is not None:
        assert star.size == size
    assert star.table is not None
    assert strategy_json(star, arena) == _old_moore_json(star, arena)


def test_generic_moore_json_matches_one_dumps():
    arena = fig2a(4)
    res = solve_mcr(arena, with_trace=True)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    one = MooreStrategy.of_memoryless(sigma1)
    counting = MooreStrategy(
        Player.MIN, 0, lambda m, v: min(m + 1, 4),
        lambda m, v: (sigma1 if m % 2 else sigma2).choice[v], size=5,
    )
    idle = MooreStrategy(Player.MIN, 0, lambda m, v: min(m + 1, 2), lambda m, v: 0, size=3)
    for machine, game in ((one, arena), (counting, arena), (idle, NO_FREE_MIN)):
        assert machine.table is None
        assert strategy_json(machine, game) == _old_moore_json(machine, game)
    assert b'"1": {}' in strategy_json(idle, NO_FREE_MIN)


def test_switching_and_memoryless_json_unchanged():
    arena = fig2a(3)
    res = solve_mcr(arena, with_trace=True)
    sigma1, sigma2, _ = extract_min_mcr(arena, res)
    sw = make_switching(sigma1, sigma2, res.values, arena)
    assert json.loads(strategy_json(sw, arena)) == {
        "player": "min", "kind": "switching", "sigma1": {"v2": "v1"}, "sigma2": {"v2": "v3"},
    }
    assert strategy_json(MemorylessStrategy(Player.MIN, {1: 2}), arena) == (
        b'{\n  "player": "min",\n  "kind": "memoryless",\n  "choice": {\n    "v2": "v3"\n  }\n}\n'
    )
