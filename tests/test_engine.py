"""The value-iteration kernel against independent per-edge references
(``kernel_reference.sweep`` for the sweep itself)."""

import random

import numpy as np

from quantgames import _engine as eng
from quantgames.accel import (
    no_clamp_oracle,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena
from quantgames.cli import random_arena
from quantgames.mcr import solve_mcr
from quantgames.tp import solve_tp

import kernel_reference as ref
from conftest import components, layered, local, subset_view

POS, NEG = eng.POS, eng.NEG


def random_vector(rng, n, vmax=30):
    return np.array(
        [rng.choice([int(POS), int(NEG), vmax, -vmax, rng.randint(-vmax, vmax)]) for _ in range(n)],
        dtype=np.int64,
    )


def check_sweeps_against_reference(seed, wmax, vmax):
    """Random slices with weights in +-wmax and finite values in +-vmax,
    on one vector and on weight rows, with and without ``ytrans``."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 9)
        degrees = [rng.randint(1, 3) for _ in range(n)]
        dst = np.array([rng.randrange(n) for _ in range(sum(degrees))], dtype=np.int64)
        starts = np.cumsum([0] + degrees[:-1]).astype(np.int64)
        is_max = np.array([rng.random() < 0.5 for _ in range(n)])
        rows = rng.randint(1, 4)
        wt2 = np.array(
            [[rng.choice([wmax, -wmax, rng.randint(-wmax, wmax)]) for _ in range(len(dst))]
             for _ in range(rows)],
            dtype=np.int64,
        )
        x2 = np.stack([random_vector(rng, n, vmax) for _ in range(rows)])
        y2 = np.stack([random_vector(rng, n, vmax) for _ in range(rows)])
        one = eng.EdgeSlice(dst, wt2[0], starts, is_max)
        batch = eng.EdgeSlice(dst, wt2, starts, is_max)
        for cap in (False, True):
            got = eng.sweep(one, x2[0], y2[0] if cap else None)
            assert got.tolist() == ref.sweep(one, x2[0], y2[0] if cap else None)
            got2 = eng.sweep(batch, x2, y2 if cap else None)
            for r in range(rows):
                assert got2[r].tolist() == ref.sweep(batch, x2[r], y2[r] if cap else None, row=r)


def test_sweep_matches_two_reduction_reference():
    check_sweeps_against_reference(71, 20, 30)


def test_sweep_at_the_caps_matches_reference():
    # Weights at the 10**9 weight cap and finite values near 10**15, the
    # solver bound |V| W at the caps, next to both sentinels: the sentinel
    # snap after the reduction must still be exact.
    check_sweeps_against_reference(74, 10**9, 10**15)


def reference_view(ca, members):
    """The component slice built one member at a time."""
    idx, starts = [], []
    for v in sorted(members):
        hi = ca.starts[v + 1] if v + 1 < ca.n else len(ca.dst)
        starts.append(len(idx))
        idx.extend(range(ca.starts[v], hi))
    return idx, starts


def assert_view_matches_reference(view, ids, ca, members):
    """The view and its ``ids`` against the slice built one member at a
    time: members at 0..k-1, each exit edge at the next slot in edge order."""
    idx, starts = reference_view(ca, members)
    k = len(members)
    dst = ca.dst[idx].tolist()
    assert ids[:k].tolist() == sorted(members)
    assert view.starts.tolist() == starts
    assert ids[view.dst].tolist() == dst
    assert view.wt.tolist() == ca.wt[idx].tolist()
    assert view.is_max.tolist() == ca.is_max[sorted(members)].tolist()
    # The certificate's fields: which edges stay inside, and where to.
    local = {v: i for i, v in enumerate(sorted(members))}
    inside = view.dst < k
    assert inside.tolist() == [d in local for d in dst]
    assert view.dst[inside].tolist() == [local[d] for d in dst if d in local]
    assert view.dst[~inside].tolist() == list(range(k, len(ids)))


def test_component_view_slices_and_sweeps_its_members():
    rng = random.Random(72)
    for _ in range(150):
        ca = eng.CompiledArena(random_arena(rng, 8, 5, Objective.TP))
        members = rng.sample(range(ca.n), rng.randint(1, ca.n))
        x, y = random_vector(rng, ca.n), random_vector(rng, ca.n)
        view, ids, x, y = subset_view(ca, members, x, y)
        assert_view_matches_reference(view, ids, ca, members)
        for ytrans in (None, y):
            assert eng.sweep(view, x, ytrans).tolist() == ref.sweep(view, x, ytrans)


def test_component_layout_views_are_slices_of_one_layout():
    rng = random.Random(73)
    for _ in range(100):
        objective = rng.choice([Objective.TP, Objective.MCR])
        arena = random_arena(rng, 12, 5, objective)
        layout = scc_decompose(arena)
        ca = layout.ca
        for q, members in enumerate(components(layout)):
            view, ids = local(layout, q)
            assert_view_matches_reference(view, ids, ca, members)
            for mine, whole in (("dst", "ldst"), ("wt", "wt"), ("starts", "starts"),
                                ("is_max", "is_max"), ("sign", "sign")):
                assert np.shares_memory(getattr(view, mine), getattr(layout, whole)), mine


def check_skewed_slice(rng, sl, n):
    """``sl`` (weights ``[rows, E]`` or 1-D) against the per-edge reference,
    with and without ``ytrans``."""
    wt2 = sl.wt if sl.wt.ndim == 2 else sl.wt[None, :]
    rows = len(wt2)
    x2 = np.stack([random_vector(rng, n) for _ in range(rows)])
    y2 = np.stack([random_vector(rng, n) for _ in range(rows)])
    for cap in (False, True):
        if sl.wt.ndim == 1:
            got = [eng.sweep(sl, x2[0], y2[0] if cap else None)]
        else:
            got = eng.sweep(sl, x2, y2 if cap else None)
        for r in range(rows):
            assert got[r].tolist() == ref.sweep(
                sl, x2[r], y2[r] if cap else None, row=r if sl.wt.ndim == 2 else None
            )


def test_skewed_slices_overflow_and_match_reference():
    # Degree-1 and -2 members beside hubs of degree >= 1,000: the width is
    # set by the short edge lists, so the hubs' edges spill into the
    # overflow, which must reduce to the same values.
    rng = random.Random(75)
    for _ in range(12):
        n = rng.randint(3, 40)
        degrees = [rng.randint(1, 2) for _ in range(n)]
        for hub in rng.sample(range(n), rng.randint(1, 2)):
            degrees[hub] = rng.randint(1000, 1300)
        dst = np.array([rng.randrange(n) for _ in range(sum(degrees))], dtype=np.int64)
        starts = np.cumsum([0] + degrees[:-1]).astype(np.int64)
        is_max = np.array([rng.random() < 0.5 for _ in range(n)])
        rows = rng.randint(1, 3)
        wt2 = np.array([[rng.randint(-20, 20) for _ in range(len(dst))] for _ in range(rows)],
                       dtype=np.int64)
        for wt in (wt2[0], wt2):
            sl = eng.EdgeSlice(dst, wt, starts, is_max)
            assert sl.cols.overflow is not None
            assert sl.cols.width <= 2 * len(dst) // n + 1
            check_skewed_slice(rng, sl, n)


def hub_blocks_arena(rng, blocks, size):
    """Blocks of ``size`` vertices, each one strongly connected component
    around a hub with an edge to every other vertex of its block; the rest
    have one or two further edges, inside their block or to an earlier one."""
    n = blocks * size
    edges = set()
    for b in range(blocks):
        hub = b * size
        for v in range(hub + 1, hub + size):
            edges.add((hub, v))
            edges.add((v, hub))
            for _ in range(rng.randint(0, 1)):
                edges.add((v, rng.randrange(0, hub + size)))
    rows = sorted((s, d, rng.randint(-5, 5)) for s, d in edges)
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    return make_arena([f"v{i}" for i in range(n)], owners, rows, [], Objective.TP)


def test_layout_views_with_overflow_match_reference():
    rng = random.Random(76)
    arena = hub_blocks_arena(rng, 2, 1100)
    layout = scc_decompose(arena)
    ca = layout.ca
    spilled = 0
    for q, members in enumerate(components(layout)):
        x, y = random_vector(rng, ca.n), random_vector(rng, ca.n)
        view, ids, x, y = local(layout, q, x, y)
        assert_view_matches_reference(view, ids, ca, members)
        spilled += view.cols.overflow is not None
        for ytrans in (None, y):
            assert eng.sweep(view, x, ytrans).tolist() == ref.sweep(view, x, ytrans)
    assert spilled == 2
    check_skewed_slice(rng, ca, ca.n)


class ReduceatSpy:
    """Stands in for ``np.maximum``, counting its ``reduceat`` calls."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.reduceat_calls = 0

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def reduceat(self, *args, **kwargs):
        self.reduceat_calls += 1
        return self.ufunc.reduceat(*args, **kwargs)


def test_star_columns_stay_within_twice_the_edges(monkeypatch):
    # A star: the hub reaches every leaf, every leaf returns to the hub.
    n = 20_000
    leaves = np.arange(1, n, dtype=np.int64)
    edges = np.concatenate((
        np.stack((np.zeros(n - 1, dtype=np.int64), leaves, leaves % 7 - 3), axis=1),
        np.stack((leaves, np.zeros(n - 1, dtype=np.int64), leaves % 5 - 2), axis=1),
    ))
    owners = [Player.MAX] + [Player.MIN, Player.MAX] * ((n - 1) // 2) + [Player.MIN]
    arena = make_arena([f"v{i}" for i in range(n)], owners[:n], edges, [], Objective.TP)
    ca = eng.CompiledArena(arena)
    E = len(ca.dst)
    layout = scc_decompose(arena)
    slices = [ca] + [layout.view(q) for q in range(len(layout))]
    for sl in slices:
        for name in ("cdst", "csign", "cswt"):
            assert getattr(sl.cols, name).size <= 2 * len(sl.dst) + len(sl.starts)
    assert ca.cols.overflow is not None and len(ca.cols.overflow.dst) <= E
    rng = random.Random(77)
    x = random_vector(rng, n)
    assert eng.sweep(ca, x).tolist() == ref.sweep(ca, x)
    # The leaves alone have bounded degree: their sweep is elementwise.
    leaf_view, _, leaf_x = subset_view(ca, leaves, x)
    spy = ReduceatSpy(np.maximum)
    monkeypatch.setattr(np, "maximum", spy)
    got = eng.sweep(leaf_view, leaf_x)
    assert spy.reduceat_calls == 0
    eng.sweep(ca, x)
    assert spy.reduceat_calls == 1  # the hub's overflow
    monkeypatch.undo()
    assert got.tolist() == ref.sweep(leaf_view, leaf_x)


def ring_chain(kinds, objective):
    """The sink v0 on a zero loop (the target of the MCR game), then per
    entry of ``kinds`` a component above the scalar floor: a ring of 26
    vertices with an edge to the next vertex and a self-loop each, exits
    from its first vertex to the ring before and from its middle one to
    v0, 54 edges in all.  A 'positive' ring holds Min vertices on +1
    edges; a 'negative' ring holds Max vertices but one on -1 edges (in
    TP the descent strands it at +inf, so it is re-solved from -inf); a
    'zero' ring holds Min vertices on 0 edges, uncertified in TP."""
    owners, edges = [Player.MIN], [(0, 0, 0)]
    for r, kind in enumerate(kinds):
        b, w = 1 + 26 * r, {"positive": 1, "negative": -1, "zero": 0}[kind]
        owners += [Player.MAX if kind == "negative" and i != 20 else Player.MIN for i in range(26)]
        edges += [e for i in range(26) for e in ((b + i, b + (i + 1) % 26, w), (b + i, b + i, w))]
        edges += [(b, max(0, b - 26), r % 3 - 1), (b + 13, 0, 2 - r % 5)]
    targets = [0] if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(len(owners))], owners, edges, targets, objective)


def test_views_build_their_column_form_once_above_the_floor(monkeypatch):
    built = []  # (dst, weight rank) of each slice given a column form
    column_form = eng._column_form

    def spy(dst, wt, sign, deg):
        built.append((dst, wt.ndim))
        return column_form(dst, wt, sign, deg)

    passes = []  # (edges, passes) of each nested_fixpoint call
    nested = eng.nested_fixpoint

    def nested_spy(sl, *args, **kwargs):
        counts = nested(sl, *args, **kwargs)
        passes.append((len(sl.dst), counts[0]))
        return counts

    monkeypatch.setattr(eng, "_column_form", spy)
    monkeypatch.setattr(eng, "nested_fixpoint", nested_spy)
    # A layout builds none, nor do the layered table's small components:
    # only the certificate's slice, with its two weight rows, sweeps in
    # column form.
    table = layered(10, 7)
    scc_decompose(table)
    assert built == []
    solve_tp_accelerated(table)
    assert [ndim for _, ndim in built] == [2]
    kinds = ["positive", "negative", "zero"] * 2
    for objective, solve, plain in ((Objective.TP, solve_tp_accelerated, solve_tp),
                                    (Objective.MCR, solve_mcr_accelerated, solve_mcr)):
        arena = ring_chain(kinds, objective)
        want = plain(arena).values
        for oracle in (no_clamp_oracle, simple_path_oracle):
            built.clear()
            passes.clear()
            assert solve(arena, oracle).values == want
            views = [dst for dst, ndim in built if ndim == 1]
            assert [len(dst) for dst in views] == [54] * len(kinds)
            # Each from a different component of the layout.
            assert len({dst.__array_interface__["data"][0] for dst in views}) == len(kinds)
            # The certificate's batch, for TP only.
            assert [ndim for _, ndim in built].count(2) == (objective is Objective.TP)
            if objective is Objective.TP:
                # The zero rings take the nested iteration, in several passes.
                ring_passes = [p for e, p in passes if e == 54]
                assert len(ring_passes) == kinds.count("zero") and min(ring_passes) >= 2
