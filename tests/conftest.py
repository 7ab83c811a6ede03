"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import string

import numpy as np
import pytest

from quantgames import _engine as eng
from quantgames.arena import Arena, Objective, Player, ValueVector, make_arena
from quantgames.attractor import compute_attractor
from quantgames.extvalue import MINUS_INF, PLUS_INF
from quantgames.gamefile import FamilySpec, generate


@pytest.fixture
def fig1a() -> Arena:
    return generate(FamilySpec("fig1a"))


@pytest.fixture
def lsp() -> Arena:
    return generate(FamilySpec("lsp_fig5"))


def fig2a(W: int, objective: Objective = Objective.MCR) -> Arena:
    return generate(FamilySpec("fig2a", W=W, objective=objective))


def fig2b(W: int) -> Arena:
    return generate(FamilySpec("fig2b", W=W))


def layered(n: int, W: int, objective: Objective = Objective.TP) -> Arena:
    return generate(FamilySpec("layered", W=W, n=n, objective=objective))


def components(layout: eng.ComponentLayout) -> tuple:
    """The layout's components as tuples of their members, ascending, in
    component order."""
    members = layout.members.tolist()
    return tuple(tuple(members[v0:v1]) for v0, v1 in layout.bounds[:, :2].tolist())


def local(layout: eng.ComponentLayout, q: int, *vectors) -> tuple:
    """Component q's view, the vertex at each of its positions (its
    members, then one destination per exit edge) and each whole-arena
    vector at those vertices, along the last axis: the local vectors the
    view sweeps.  The k members' values go back to a whole-arena vector by
    ``vec[..., ids[:k]] = loc[..., :k]``."""
    i0, i1 = layout.bounds[q, 4:].tolist()
    ids = layout.ids[i0:i1]
    return (layout.view(q), ids) + tuple(np.asarray(v)[..., ids] for v in vectors)


def subset_view(ca: eng.CompiledArena, members, *vectors) -> tuple:
    """``local`` for any member set: a layout labelling the members 0 and
    every other vertex 1, and its component 0."""
    labels = np.ones(ca.n, dtype=np.int64)
    labels[np.asarray(members, dtype=np.int64)] = 0
    return local(eng.ComponentLayout(ca, labels), 0, *vectors)


def prune_to_attractor(arena: Arena) -> tuple:
    """Sub-arena on the attracted region (where the target is forceable);
    returns it with the old->new index map."""
    att = compute_attractor(arena, arena.targets).attracted
    keep = sorted(att)
    remap = {v: i for i, v in enumerate(keep)}
    sub = make_arena(
        [arena.names[v] for v in keep],
        [arena.owners[v] for v in keep],
        [(remap[s], remap[d], w) for s, d, w in arena.edges if s in att and d in att],
        [remap[t] for t in arena.targets if t in att],
        arena.objective,
    )
    return sub, remap


def single_vertex(owner: Player, weight: int, objective: Objective = Objective.TP) -> Arena:
    return make_arena(
        ["v0"], [owner], [(0, 0, weight)],
        [0] if objective is Objective.MCR else [],
        objective,
    )


# One component whose cycles have both signs (Min's -1 loop, Max's +1
# loop), so the accelerated solver takes the generic nested iteration.
MIXED = make_arena(
    ["a", "b"],
    [Player.MIN, Player.MAX],
    [(0, 0, -1), (0, 1, 2), (1, 0, 0), (1, 1, 1)],
    [],
    Objective.TP,
)


def skewed_arena(rng: random.Random, n: int, wmax: int, objective: Objective) -> Arena:
    """Mostly one or two out-edges, and a few vertices with up to six, so
    that some slices spill edges past their column width."""
    edges = []
    for v in range(n):
        deg = rng.choice((1, 1, 1, 2, 2, 3)) if rng.random() < 0.9 else rng.randint(4, 6)
        for d in rng.sample(range(n), min(deg, n)):
            edges.append((v, d, rng.randint(-wmax, wmax)))
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = rng.sample(range(n), rng.randint(1, min(3, n))) if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def value_vectors(seed: int = 5):
    """Value vectors for the output writers' differential tests: on
    arenas of 1 (three of them), 2, 3, 40 and 257 vertices named with 1 to
    40 bytes, vectors of mixed values, of one finite value, all +inf, all
    -inf and of +-10**15 alone."""
    rng = random.Random(seed)
    chars = string.ascii_letters + string.digits + "_"
    for n in (1, 1, 1, 2, 3, 40, 257):
        offset = rng.randrange(40)
        names = []
        while len(names) < n:
            name = "".join(rng.choices(chars, k=1 + (len(names) + offset) % 40))
            if name not in names:
                names.append(name)
        arena = make_arena(names, [Player.MAX] * n, [(v, v, 0) for v in range(n)])
        equal = rng.randint(-(10**15), 10**15)
        for fill in (
            lambda: rng.choice([PLUS_INF, MINUS_INF, 0, 10**15, -(10**15), rng.randint(-(10**15), 10**15)]),
            lambda: equal,
            lambda: PLUS_INF,
            lambda: MINUS_INF,
            lambda: rng.choice([10**15, -(10**15)]),
        ):
            yield ValueVector(arena, [fill() for _ in range(n)])
