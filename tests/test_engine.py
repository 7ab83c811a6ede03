"""The value-iteration kernel against independent per-edge references."""

import random

import numpy as np

from quantgames import _engine as eng
from quantgames.accel import scc_decompose
from quantgames.arena import Objective
from quantgames.cli import random_arena

POS, NEG = eng.POS, eng.NEG


def reference_sweep(dst, wt, starts, is_max, x, ytrans):
    """Per-member max (Max) or min (Min) over the member's edges, one edge
    at a time, with the sentinels absorbing any weight."""
    out = []
    for i in range(len(starts)):
        end = starts[i + 1] if i + 1 < len(starts) else len(dst)
        cands = []
        for e in range(starts[i], end):
            c = int(x[dst[e]])
            if ytrans is not None:
                c = min(c, int(ytrans[dst[e]]))
            cands.append(int(POS) if c >= POS else int(NEG) if c <= NEG else int(wt[e]) + c)
        out.append(max(cands) if is_max[i] else min(cands))
    return out


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
        one = eng.EdgeSlice(slice(None), dst, wt2[0], starts, is_max)
        batch = eng.EdgeSlice(slice(None), dst, wt2, starts, is_max)
        for cap in (False, True):
            got = eng.sweep(one, x2[0], y2[0] if cap else None)
            assert got.tolist() == reference_sweep(
                dst, wt2[0], starts, is_max, x2[0], y2[0] if cap else None
            )
            got2 = eng.sweep(batch, x2, y2 if cap else None)
            for r in range(rows):
                assert got2[r].tolist() == reference_sweep(
                    dst, wt2[r], starts, is_max, x2[r], y2[r] if cap else None
                )


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


def assert_view_matches_reference(view, ca, members):
    idx, starts = reference_view(ca, members)
    assert view.members.tolist() == sorted(members)
    assert view.edge_idx.tolist() == idx
    assert view.starts.tolist() == starts
    assert view.dst.tolist() == ca.dst[idx].tolist()
    assert view.wt.tolist() == ca.wt[idx].tolist()
    assert view.is_max.tolist() == ca.is_max[sorted(members)].tolist()
    # The certificate's fields: member positions of each edge's endpoints.
    local = {v: i for i, v in enumerate(sorted(members))}
    src = [local[v] for v, k in zip(sorted(members), eng.out_degrees(view)) for _ in range(k)]
    assert view.local_src.tolist() == src
    assert view.inside.tolist() == [d in local for d in view.dst.tolist()]
    assert view.local_dst[view.inside].tolist() == [
        local[d] for d in view.dst.tolist() if d in local
    ]


def test_component_view_slices_and_sweeps_its_members():
    rng = random.Random(72)
    for _ in range(150):
        ca = eng.CompiledArena(random_arena(rng, 8, 5, Objective.TP))
        members = rng.sample(range(ca.n), rng.randint(1, ca.n))
        view = eng.ComponentView(ca, members)
        assert_view_matches_reference(view, ca, members)
        x, y = random_vector(rng, ca.n), random_vector(rng, ca.n)
        for ytrans in (None, y):
            assert eng.sweep(view, x, ytrans).tolist() == reference_sweep(
                view.dst, view.wt, view.starts, view.is_max, x, ytrans
            )


def test_component_layout_views_are_slices_of_one_layout():
    rng = random.Random(73)
    for _ in range(100):
        objective = rng.choice([Objective.TP, Objective.MCR])
        arena = random_arena(rng, 12, 5, objective)
        ca = eng.CompiledArena(arena)
        components = scc_decompose(arena).components
        layout = eng.ComponentLayout(ca, components)
        for q, members in enumerate(components):
            view = layout.view(q)
            assert_view_matches_reference(view, ca, members)
            for name in layout.VERTEX_FIELDS + layout.EDGE_FIELDS:
                assert np.shares_memory(getattr(view, name), getattr(layout, name)), name
