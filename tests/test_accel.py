import functools
import itertools
import random

import numpy as np
import pytest

from quantgames import _engine as eng, accel
from quantgames.accel import (
    UnsoundOracleError,
    cycle_sign_certificates,
    no_clamp_oracle,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import (
    Arena,
    DeadlockVertexError,
    Objective,
    Player,
    make_arena,
    normalize_target,
)
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF
from quantgames.mcr import SolveStats, solve_mcr
from quantgames.tp import solve_tp

from conftest import MIXED, components, fig2a, layered, local, single_vertex, skewed_arena
from test_differential import block_arena


def test_scc_layered():
    arena = layered(4, 3)
    dec = scc_decompose(arena)
    assert len(dec) == 2 * 4 + 1
    comps = {frozenset(c) for c in components(dec)}
    t = arena.index("t")
    assert frozenset({t}) in comps
    for k in range(4):
        a, b, c = arena.index(f"a{k}"), arena.index(f"b{k}"), arena.index(f"c{k}")
        assert frozenset({a, b}) in comps
        assert frozenset({c}) in comps


def test_scc_fig2a():
    arena = fig2a(3)
    dec = scc_decompose(arena)
    assert components(dec) == ((2,), (0, 1))
    assert dec.comp_of[2] == 0  # target component first


def test_scc_dag_every_vertex_alone():
    arena = make_arena(
        ["a", "b", "c"],
        [Player.MAX, Player.MIN, Player.MAX],
        [(0, 1, 1), (1, 2, 1), (2, 2, 0)],
        [],
        Objective.TP,
    )
    dec = scc_decompose(arena)
    assert len(dec) == 3
    assert all(len(c) == 1 for c in components(dec))


def test_scc_invariants_random():
    rng = random.Random(51)
    for _ in range(100):
        arena = random_arena(rng, 6, 2, Objective.MCR)
        norm = normalize_target(arena)
        dec = scc_decompose(norm)
        # every index inhabited, total
        assert sorted(set(dec.comp_of)) == list(range(len(dec)))
        # edges never ascend
        for s, d, _ in norm.edges:
            assert dec.comp_of[s] >= dec.comp_of[d]
        # normalized target is component 0
        (t,) = norm.targets
        assert components(dec)[0] == (t,)
        # each component is a maximal SCC: mutual reachability inside
        for comp in components(dec):
            inside = set(comp)
            for v in comp:
                seen = {v}
                stack = [v]
                while stack:
                    u = stack.pop()
                    for w, _ in norm.successors(u):
                        if w in inside and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen == inside


def reference_layout(ca, components):
    """The layout built from member tuples, in the order of ``components``
    with each component's members sorted: the fields ``ComponentLayout``
    builds from one label per vertex, by the tuple-based construction it
    replaced."""
    sizes = np.fromiter(map(len, components), dtype=np.int64, count=len(components))
    flat = np.fromiter(
        itertools.chain.from_iterable(components), dtype=np.int64, count=int(sizes.sum())
    )
    comp = np.repeat(np.arange(len(sizes)), sizes)
    order = flat[np.lexsort((flat, comp))]
    vstart = np.concatenate(([0], np.cumsum(sizes)))
    deg = eng.out_degrees(ca)[order]
    ecum = np.concatenate(([0], np.cumsum(deg)))
    estart = ecum[vstart]
    edge_idx = np.repeat(ca.starts[order] - ecum[:-1], deg) + np.arange(ecum[-1])
    pos = np.arange(len(order)) - np.repeat(vstart[:-1], sizes)
    comp_of = np.full(ca.n, -1, dtype=np.int64)
    comp_of[order] = comp
    local = np.zeros(ca.n, dtype=np.int64)
    local[order] = pos
    dst = ca.dst[edge_idx]
    inside = comp_of[dst] == np.repeat(comp, deg)
    # Each component's members, then one slot per exit edge, edge by edge.
    ldst, ids, istart = local[dst], [], [0]
    for c in range(len(sizes)):
        ids += order[vstart[c]:vstart[c + 1]].tolist()
        for e in range(estart[c], estart[c + 1]):
            if not inside[e]:
                ldst[e] = len(ids) - istart[c]
                ids.append(dst[e])
        istart.append(len(ids))
    return {
        "members": order, "is_max": ca.is_max[order], "sign": ca.sign[order],
        "starts": ecum[:-1] - np.repeat(estart[:-1], sizes), "wt": ca.wt[edge_idx],
        "ldst": ldst, "ids": np.array(ids, dtype=np.int64),
        "bounds": np.stack((vstart[:-1], vstart[1:], estart[:-1], estart[1:],
                            istart[:-1], istart[1:]), axis=1),
        "edge_counts": (estart[1:] - estart[:-1]).tolist(), "comp_of": comp_of,
    }


def test_layout_from_labels_matches_the_tuple_layout():
    """Every field of a layout built from labels equals the tuple-based
    construction's on the same components: the SCCs of random, layered and
    block arenas, and random labellings that are not SCCs."""
    rng = random.Random(51)
    arenas = [normalize_target(random_arena(rng, 6, 2, Objective.MCR)) for _ in range(100)]
    arenas += [layered(n, 3) for n in range(3, 51)]
    drng = random.Random(74)
    arenas += [block_arena(drng, objective) for objective in (Objective.TP, Objective.MCR) * 5]
    cases = [(arena, scc_decompose(arena).comp_of) for arena in arenas]
    for arena in arenas[::3]:
        q = rng.randint(1, arena.n)
        labels = list(range(q)) + [rng.randrange(q) for _ in range(arena.n - q)]
        rng.shuffle(labels)
        cases.append((arena, labels))
    fields = ("members", "is_max", "sign", "starts", "wt", "ldst", "ids", "bounds",
              "edge_counts", "comp_of")
    for arena, labels in cases:
        ca = eng.CompiledArena(arena)
        layout = eng.ComponentLayout(ca, labels)
        members = [[] for _ in range(max(labels) + 1)]
        for v, c in enumerate(labels):
            members[c].append(v)
        want = reference_layout(ca, members)
        assert len(layout) == len(members)
        for name in fields:
            assert np.array_equal(getattr(layout, name), want[name]), (arena, name)


def test_mcr_accelerated_agrees_with_plain():
    rng = random.Random(52)
    for _ in range(80):
        arena = normalize_target(random_arena(rng, 6, 3, Objective.MCR))
        plain = solve_mcr(arena).values
        for oracle in (simple_path_oracle, no_clamp_oracle):
            acc = solve_mcr_accelerated(arena, oracle)
            assert list(acc.values) == list(plain)


def test_tp_accelerated_agrees_with_plain():
    rng = random.Random(53)
    for _ in range(80):
        arena = random_arena(rng, 5, 3, Objective.TP)
        plain = solve_tp(arena).values
        for oracle in (simple_path_oracle, no_clamp_oracle):
            acc = solve_tp_accelerated(arena, oracle)
            assert list(acc.values) == list(plain)


def test_layered_values_and_count_freeze():
    arena = layered(20, 7, Objective.MCR)
    norm = normalize_target(arena)
    plain = solve_mcr(norm)
    acc = solve_mcr_accelerated(norm)
    assert list(acc.values) == list(plain.values)
    for k in range(20):
        assert acc.values[f"a{k}"] == 0
        assert acc.values[f"b{k}"] == 0
        assert acc.values[f"c{k}"] == 7
    # one pass per non-target component: 2 sweeps for the one-vertex loops,
    # 5 for the two-vertex components (frozen from the implementation)
    assert acc.stats.inner_iterations == 7 * 20
    other = solve_mcr_accelerated(normalize_target(layered(20, 19, Objective.MCR)))
    assert other.stats.inner_iterations == 7 * 20  # independent of weights


def test_mcr_accelerated_layered_100_counts():
    # Weight-independent 7 sweeps per layer; half of the nested solver's
    # total because the reachability form has no confirmation pass.
    for W in (50, 200):
        norm = normalize_target(layered(100, W, Objective.MCR))
        acc = solve_mcr_accelerated(norm)
        assert acc.stats.inner_iterations == 7 * 100
        plain = solve_mcr(norm)
        assert list(acc.values) == list(plain.values)


def test_no_clamp_oracle_matches_per_component_plain():
    # Without clamping each layer's components run the plain descent:
    # closed form k_e = 2n and k_i = n(2W + 4).
    n = 6
    for W in (4, 7):
        arena = normalize_target(layered(n, W, Objective.MCR))
        res = solve_mcr_accelerated(arena, no_clamp_oracle)
        assert list(res.values) == list(solve_mcr(arena).values)
        assert res.stats.outer_iterations == 2 * n
        assert res.stats.inner_iterations == n * (2 * W + 4)


def test_simple_path_oracle_layered_component():
    arena = normalize_target(layered(2, 5, Objective.MCR))
    dec = scc_decompose(arena)
    x = eng.to_array(solve_mcr(arena).values)
    a1 = arena.index("a1")
    members = components(dec)[dec.comp_of[a1]]
    assert {arena.names[v] for v in members} == {"a1", "b1"}
    table = simple_path_oracle(arena, dec, dec.comp_of[a1], x)[members.index(a1)]
    # exits: a->c directly (-W + W = 0) and via b (-1 + 0 + W = W-1)
    assert {0, 5 - 1, int(eng.NEG), int(eng.POS)} <= set(table)


def test_simple_path_oracle_single_exit_vertex():
    arena = make_arena(
        ["a", "t"],
        [Player.MIN, Player.MAX],
        [(0, 1, 4), (0, 0, 1), (1, 1, 0)],
        [1],
        Objective.MCR,
    )
    dec = scc_decompose(arena)
    tables = simple_path_oracle(arena, dec, 1, np.zeros(2, dtype=np.int64))
    assert tables[0] == [int(eng.NEG), 4, int(eng.POS)]


def test_simple_path_oracle_soundness():
    # The solved value is always among the candidates it returns.
    rng = random.Random(54)
    for _ in range(60):
        arena = normalize_target(random_arena(rng, 6, 3, Objective.MCR))
        x = eng.to_array(solve_mcr(arena).values)
        dec = scc_decompose(arena)
        for q in range(1, len(dec)):
            tables = simple_path_oracle(arena, dec, q, x)
            for v, table in zip(components(dec)[q], tables):
                if table is not None:
                    assert int(x[v]) in table


def test_simple_path_oracle_contract():
    # The raw int64 vector, the API's extended values and the solver's list
    # of finished values give equal tables, and every table is a sorted
    # list of ints from the -inf to the +inf sentinel.
    rng = random.Random(55)
    infinities = set()
    tables = 0
    for i in range(80):
        objective = Objective.MCR if i % 2 == 0 else Objective.TP
        arena = random_arena(rng, 6, 3, objective)
        if objective is Objective.MCR:
            arena = normalize_target(arena)
            values = solve_mcr(arena).values
        else:
            values = solve_tp(arena).values
        infinities.update(repr(v) for v in values if v is PLUS_INF or v is MINUS_INF)
        dec = scc_decompose(arena)
        raw = eng.to_array(values)
        for q in range(len(dec)):
            got = [simple_path_oracle(arena, dec, q, finalized)
                   for finalized in (raw, values.values, raw.tolist())]
            assert got[0] == got[1] == got[2]
            assert len(got[0]) == len(components(dec)[q])
            for table in itertools.chain(*got):
                if table is None:
                    continue
                tables += 1
                assert type(table) is list and all(type(v) is int for v in table)
                assert table[0] == eng.NEG and table[-1] == eng.POS
                assert all(a < b for a, b in zip(table, table[1:]))
    assert infinities == {"+inf", "-inf"} and tables > 450


def test_simple_path_oracle_cap_degrades():
    arena = normalize_target(fig2a(3))
    dec = scc_decompose(arena)
    sets = simple_path_oracle(arena, dec, 1, [0] * arena.n, cap=1)
    assert sets == [None, None]


def test_path_work_shortcut_matches_the_walk(monkeypatch):
    """A component of k members with E_C out-edges and no target among
    them degrades before any walk when k * E_C > ``PATH_WORK_CAP``; the
    walks give the same tables, or degrade too, at every cut cap.  E_C is
    the component's edge range in the layout, which must equal its
    members' out-degrees.  The corpus holds MCR arenas with targets inside
    larger components, where the walks stop at the targets and the
    shortcut must not fire."""
    rng = random.Random(56)
    arenas = []
    for i in range(160):
        objective = (Objective.MCR, Objective.TP)[i % 2]
        arena = skewed_arena(rng, rng.randint(2, 40), rng.choice((1, 3, 20)), objective)
        arenas.append(normalize_target(arena) if i % 4 == 0 else arena)
    shortcut = accel._walks_pass_work_cap
    fired = []

    def counted(*args):
        fired.append(shortcut(*args))
        return fired[-1]

    queries = degraded = shortcuts = blocked = 0
    for cap in (20, 200, 2_000, 200_000):
        monkeypatch.setattr(accel, "PATH_WORK_CAP", cap)
        for arena in arenas:
            dec = scc_decompose(arena)
            bounds = dec.bounds
            degree = np.bincount(arena.edge_array[:, 0], minlength=arena.n)
            finalized = eng.to_array(
                [rng.choice((PLUS_INF, MINUS_INF, rng.randint(-50, 50))) for _ in range(arena.n)]
            )
            for q, members in enumerate(components(dec)):
                monkeypatch.setattr(accel, "_walks_pass_work_cap", counted)
                got = simple_path_oracle(arena, dec, q, finalized)
                monkeypatch.setattr(accel, "_walks_pass_work_cap", lambda *args: False)
                want = simple_path_oracle(arena, dec, q, finalized)  # the walks alone
                assert got == want
                queries += 1
                degraded += want[0] is None
                edges = int(bounds[q, 3] - bounds[q, 2])
                assert edges == degree[list(members)].sum()
                if len(members) * edges > cap:
                    if arena.targets.isdisjoint(members) or arena.objective is Objective.TP:
                        shortcuts += 1
                    else:
                        blocked += 1
    # 5,576 queries: 334 degraded walks, 203 shortcuts, 50 blocked by a target.
    assert queries > 5_000 and degraded > 300 and shortcuts > 200 and blocked > 40
    assert sum(fired) == shortcuts  # the shortcut fires on exactly those components
    # When it fires, no walk starts: a walk reads the component's scalar form.
    monkeypatch.setattr(accel, "_walks_pass_work_cap", lambda *args: True)
    monkeypatch.setattr(accel, "PATH_WORK_CAP", 0)

    def untouchable(q):
        raise AssertionError("walked")

    dec = scc_decompose(arenas[1])
    dec.scalar_form = untouchable
    zeros = np.zeros(arenas[1].n, dtype=np.int64)
    for q, members in enumerate(components(dec)):
        assert simple_path_oracle(arenas[1], dec, q, zeros) == [None] * len(members)


def test_degraded_components_never_reach_the_clamp(monkeypatch):
    """A component whose oracle tables are all None sweeps with
    ``tables=None``: the clamp is never entered for it, and the values
    still equal the plain solver's."""
    entered = []
    clamp = eng._clamp

    def counting_clamp(new, tables, up):
        entered.append(len(tables))
        clamp(new, tables, up)

    monkeypatch.setattr(eng, "_clamp", counting_clamp)
    degraded = functools.partial(simple_path_oracle, cap=1)
    for arena, solve, plain in (
        (normalize_target(fig2a(3)), solve_mcr_accelerated, solve_mcr),
        (fig2a(3, Objective.TP), solve_tp_accelerated, solve_tp),
    ):
        for oracle in (degraded, no_clamp_oracle):
            assert solve(arena, oracle).values == plain(arena).values
        assert entered == []
        # The counter sees the clamp when the oracle does return tables.
        assert solve(arena, simple_path_oracle).values == plain(arena).values
        assert entered
        entered.clear()


def test_tp_accel_table_counts():
    r = solve_tp_accelerated(layered(10, 7))
    assert r.stats.outer_iterations == 4 * 10 + 2
    assert r.stats.inner_iterations == 14 * 10 + 4
    r2 = solve_tp_accelerated(layered(10, 99))
    assert r2.stats.outer_iterations == 4 * 10 + 2
    assert r2.stats.inner_iterations == 14 * 10 + 4


def simple_cycle_sums(arena, members):
    """Weight of every simple cycle inside ``members`` (each cycle once per
    rotation, which leaves the set of signs unchanged)."""
    inside = set(members)
    sums = []
    for start in members:
        stack = [(start, 0, (start,))]
        while stack:
            v, total, path = stack.pop()
            for d, w in arena.successors(v):
                if d == start:
                    sums.append(total + w)
                elif d in inside and d not in path:
                    stack.append((d, total + w, path + (d,)))
    return sums


def certificates(arena):
    """The batched certificates of every component of the arena."""
    return cycle_sign_certificates(scc_decompose(arena))


def enumerated_certificate(arena, members):
    sums = simple_cycle_sums(arena, members)
    if all(s > 0 for s in sums):
        return "positive"
    if all(s < 0 for s in sums):
        return "negative"
    return None


def test_cycle_sign_certificate_matches_cycle_enumeration():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = [
            (v, d, rng.randint(-3, 3))
            for v in range(n)
            for d in rng.sample(range(n), rng.randint(1, min(3, n)))
        ]
        arena = make_arena([f"v{i}" for i in range(n)], [Player.MAX] * n, edges)
        comps = components(scc_decompose(arena))
        want = [enumerated_certificate(arena, members) for members in comps]
        assert certificates(arena) == want, (arena, comps)
        seen.update(want)
    assert seen == {"positive", "negative", None}


def test_small_negative_components_beside_a_large_positive_one():
    # A 40-vertex positive ring, then a chain of one- and two-vertex
    # components with negative and mixed cycles that lead into it: the
    # batched run makes 41 rounds, and the small components keep changing
    # in every one of them.
    k = 40
    edges = [(v, (v + 1) % k, 1) for v in range(k)]
    want = {tuple(range(k)): "positive"}
    v = k
    for i in range(12):
        if i % 3 == 2:  # two vertices, cycles of weight -2 and +1
            edges += [(v, v + 1, -1), (v + 1, v, -1), (v, v, 1), (v + 1, v - 1, 0)]
            want[v, v + 1] = None
            v += 2
        else:  # one vertex on a negative loop
            edges += [(v, v, -(i + 1)), (v, v - 1, 5)]
            want[(v,)] = "negative"
            v += 1
    arena = make_arena([f"v{i}" for i in range(v)], [Player.MIN] * v, edges)
    comps = components(scc_decompose(arena))
    assert dict(zip(comps, certificates(arena))) == want
    assert all(want[c] == enumerated_certificate(arena, c) for c in comps)


def test_certificate_guard_skips_components_past_the_snap(monkeypatch):
    # (k+1)((k+1)W + 1) >= 2**61 for k = 50,000 and W = 10**9: no sweep.
    k = 50_000
    edges = [(v, (v + 1) % k, 10**9 if v % 2 else -(10**9)) for v in range(k)]
    arena = make_arena([f"v{i}" for i in range(k)], [Player.MIN] * k, edges)
    layout = eng.ComponentLayout(eng.CompiledArena(arena), np.zeros(k, dtype=np.int64))

    def no_sweep(*args):
        raise AssertionError("the certificate swept a guarded component")

    monkeypatch.setattr(eng, "sweep", no_sweep)
    assert cycle_sign_certificates(layout) == [None]


@pytest.mark.parametrize(
    "arena", [MIXED, fig2a(5, Objective.TP), layered(3, 4)], ids=["mixed", "fig2a", "layered"]
)
def test_oracle_is_asked_only_for_certified_components(arena):
    asked = []

    def recording_oracle(arena, dec, q, finalized):
        asked.append(q)
        return simple_path_oracle(arena, dec, q, finalized)

    certified = [q for q, cert in enumerate(certificates(arena)) if cert is not None]
    result = solve_tp_accelerated(arena, recording_oracle)
    assert asked == certified
    assert list(result.values) == list(solve_tp(arena).values)


def test_tp_accelerated_validates_unchecked_arena():
    # Built without make_arena, so nothing has validated it yet.
    arena = Arena(("a", "b"), (Player.MAX, Player.MIN), ((0, 1, 1),), frozenset(), Objective.TP)
    with pytest.raises(DeadlockVertexError):
        solve_tp_accelerated(arena)


def edge_list_reads(arena):
    """How often solve_tp_accelerated reads ``arena.edges``."""
    reads = []

    class Counting(Arena):
        def __getattribute__(self, name):
            if name == "edges":
                reads.append(name)
            return super().__getattribute__(name)

    counted = Counting(arena.names, arena.owners, arena.edges, arena.targets, arena.objective)
    reads.clear()
    solve_tp_accelerated(counted)
    return len(reads)


def test_tp_accelerated_reads_the_edge_list_a_fixed_number_of_times():
    # A whole-arena scan per component makes the solve quadratic; the count
    # must not grow with the number of components (41 and 161 here).
    assert edge_list_reads(layered(20, 5)) == edge_list_reads(layered(80, 5))


def two_pass_reference(arena, seen=None, oracle=simple_path_oracle):
    """The accelerated TP solve as the outer loop around every certified
    component's clamped pass: the pass runs again until it leaves the outer
    vector unchanged, so a component costs two passes unless its lifted
    result is the start, all -inf.  Returns the per-component (passes,
    sweeps) and the values, or the error type.  ``seen`` collects what the
    certified components reached."""
    seen = set() if seen is None else seen
    layout = scc_decompose(arena)
    ca = layout.ca
    lift_at = (arena.n - 1) * ca.W
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    y = np.full(arena.n, eng.NEG, dtype=np.int64)
    inner_bound = accel.sweep_bound(arena.n, ca.W) + 1
    outer_bound = accel.k_bound(arena) + 1
    counts = []
    try:
        for q, cert in enumerate(cycle_sign_certificates(layout)):
            view, ids, xl, yl = local(layout, q, x, y)
            m = slice(len(view.starts))
            if cert is None:
                counts.append(eng.nested_fixpoint(
                    view, xl, yl, cutoff=ca.cutoff, lift=lift_at,
                    inner_bound=inner_bound, outer_bound=outer_bound,
                ))
                x[ids[m]], y[ids[m]] = xl[m], yl[m]
                continue
            seen.add(cert)
            tables = accel._clamping(oracle(arena, layout, q, x))
            passes = sweeps = 0
            while True:
                prev = yl[m].copy()
                xl[m] = eng.POS
                sweeps += eng.fixpoint(view, xl, inner_bound, cutoff=ca.cutoff, tables=tables)
                if cert == "negative" and (xl[m] >= eng.POS).any():
                    seen.add("from below")
                    xl[m] = eng.NEG
                    sweeps += eng.fixpoint(view, xl, inner_bound, lift=lift_at, tables=tables)
                new = xl[m]
                new[new > lift_at] = eng.POS
                xl[m] = new
                yl[m] = new
                passes += 1
                if np.array_equal(new, prev):
                    break
                if passes > outer_bound:
                    raise AssertionError("outer iteration exceeded its pass bound")
            x[ids[m]], y[ids[m]] = xl[m], yl[m]
            seen.add(f"outer {passes}")
            counts.append((passes, sweeps))
    except (AssertionError, UnsoundOracleError) as exc:
        return type(exc)
    return counts, eng.from_array(arena, y).values


class ComponentCounts(SolveStats):
    """SolveStats that keeps each component's additions to the counts as
    (passes, sweeps) in ``steps``: the solve adds to the outer count, then
    to the inner one."""

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "steps", [])
        super().__init__(*args, **kwargs)

    def __setattr__(self, name, value):
        if name == "outer_iterations" and value:
            self.steps.append((value - self.outer_iterations,))
        elif name == "inner_iterations" and value:
            self.steps[-1] += (value - self.inner_iterations,)
        super().__setattr__(name, value)


def one_pass_run(arena, monkeypatch):
    """``solve_tp_accelerated`` as the reference reports it.  Small
    certified components take the list pass; the solve again with
    ``SCALAR_MAX_EDGES`` = 0, where every component takes the view pass,
    must report the same."""
    monkeypatch.setattr(accel, "SolveStats", ComponentCounts)

    def run():
        try:
            res = solve_tp_accelerated(arena)
        except (AssertionError, UnsoundOracleError) as exc:
            return type(exc)
        return res.stats.steps, res.values.values

    got = run()
    with monkeypatch.context() as view_pass:
        view_pass.setattr(eng, "SCALAR_MAX_EDGES", 0)
        assert run() == got, arena
    return got


def one_pass_corpus():
    rng = random.Random(71)
    arenas = [single_vertex(Player.MIN, -1), single_vertex(Player.MAX, 1), MIXED,
              fig2a(5, Objective.TP), layered(6, 4)]
    arenas += [random_arena(rng, 6, 3, Objective.TP) for _ in range(60)]
    arenas += [skewed_arena(rng, rng.randint(2, 30), rng.choice((1, 3)), Objective.TP)
               for _ in range(30)]
    return arenas


def test_one_pass_matches_the_two_pass_loop(monkeypatch):
    """A certified component's clamped pass runs once; its counts, values
    and bound errors are those of the loop that ran it twice."""
    seen = set()
    for arena in one_pass_corpus():
        want = two_pass_reference(arena, seen)
        assert one_pass_run(arena, monkeypatch) == want, arena
    assert {"positive", "negative", "from below", "outer 1", "outer 2"} <= seen


@pytest.mark.parametrize("name, small", [("k_bound", -1), ("sweep_bound", -1), ("sweep_bound", 0)])
def test_one_pass_bound_errors_match_the_two_pass_loop(monkeypatch, name, small):
    monkeypatch.setattr(accel, name, lambda *args: small)
    errors = set()
    for arena in one_pass_corpus():
        want = two_pass_reference(arena)
        assert one_pass_run(arena, monkeypatch) == want, arena
        errors.add(want if isinstance(want, type) else None)
    assert AssertionError in errors and None in errors


def test_certified_components_run_one_pass(monkeypatch):
    """layered(500, 50) has 1,000 certified components, none re-solved
    from below, and the target's zero loop, which takes two nested passes:
    the two-pass loop made 2,002 fixpoint calls; the solve runs the
    certified-pass entry 1,000 times and fixpoint twice, 1,002 passes."""
    calls = []

    def counting(run):
        def counted(*args, **kwargs):
            calls.append(run.__name__)
            return run(*args, **kwargs)
        return counted

    monkeypatch.setattr(eng, "fixpoint", counting(eng.fixpoint))
    monkeypatch.setattr(accel, "_component_pass", counting(accel._component_pass))
    arena = layered(500, 50)
    res = solve_tp_accelerated(arena)
    assert (res.stats.outer_iterations, res.stats.inner_iterations) == (4 * 500 + 2, 14 * 500 + 4)
    assert (calls.count("_component_pass"), len(calls)) == (1000, 1002)
    calls.clear()
    assert two_pass_reference(arena)[1] == res.values.values
    assert (calls.count("fixpoint"), len(calls)) == (2002, 2002)


def scalar_reference(ca, members):
    """The scalar form of the sorted ``members`` built from the compiled
    arena's edges alone: members at their rank, each exit edge at the
    next slot."""
    ids = sorted(members)
    k = len(ids)
    position = dict(zip(ids, range(k)))
    ends = ca.starts.tolist() + [len(ca.dst)]
    dst, wt = ca.dst.tolist(), ca.wt.tolist()
    edges = [[] for _ in range(k)]
    for i in range(k):
        for e in range(ends[ids[i]], ends[ids[i] + 1]):
            j = position.get(dst[e])
            if j is None:
                j = len(ids)
                ids.append(dst[e])
            edges[i].append((j, wt[e]))
    return eng.ScalarForm(ca.is_max[sorted(members)].tolist(), edges, ids)


def held_run(layout):
    """The components whose forms the layout holds: one run, consecutive,
    at most ``SCALAR_RUN`` of them, none after the first above the floor."""
    held = sorted(layout._scalar)
    assert held == list(range(held[0], held[0] + len(held)))
    assert len(held) <= layout.SCALAR_RUN
    assert all(layout.edge_counts[c] <= eng.SCALAR_MAX_EDGES for c in held[1:])
    return held


def test_layout_scalar_forms_match_each_views_own():
    """A layout builds the scalar forms a run at a time, whatever order
    they are asked for in, and again for a second request; each equals
    the form built from the compiled arena's edges, and the component's
    view and ``ids`` number it alike: the view's destinations are the
    form's positions, and the layout's ``ids`` its ``ids``.  The layout
    holds the forms of the run it built last only."""
    rng = random.Random(72)
    arenas = [layered(200, 50)]
    arenas += [skewed_arena(rng, rng.randint(1, 60), rng.choice((1, 5)),
                            rng.choice((Objective.MCR, Objective.TP))) for _ in range(100)]
    taken = 0
    for arena in arenas:
        layout = scc_decompose(arena)
        members = components(layout)
        order = list(range(len(layout)))
        if rng.random() < 0.5:
            rng.shuffle(order)
        for q in order + order[:3]:
            form = layout.scalar_form(q)
            assert form == scalar_reference(layout.ca, members[q])
            view, ids = local(layout, q)
            assert view.scalar[:2] == form[:2]
            assert view.dst.tolist() == [j for es in form.edges for j, _ in es]
            assert ids.tolist() == form.ids
            taken += 1
            assert q in held_run(layout)
    assert taken > 1000


def test_views_and_scalar_forms_share_one_numbering():
    """On every component of 400 seeded random arenas (normalized MCR and
    TP alternating, up to 40 vertices), the view's destinations are the
    positions of the layout's scalar form and the layout's ``ids`` its
    ``ids``: members first, then one slot per exit edge."""
    rng = random.Random(25)
    comps = 0
    for i in range(400):
        objective = (Objective.MCR, Objective.TP)[i % 2]
        arena = random_arena(rng, 40, 5, objective)
        if objective is Objective.MCR:
            arena = normalize_target(arena)
        layout = scc_decompose(arena)
        for q in range(len(layout)):
            form = layout.scalar_form(q)
            view, ids = local(layout, q)
            assert view.dst.tolist() == [j for es in form.edges for j, _ in es]
            assert ids.tolist() == form.ids
            comps += 1
    assert comps > 5000


def two_exit_rings(objective):
    """The sink v0 on a zero loop (the MCR target), then two rings of 26
    vertices above the scalar floor, each with an edge to the next vertex
    and a self-loop per vertex, and two exit edges from different members
    to v0, 54 edges in all: a 'positive' ring of Min vertices on +1 edges
    and a 'zero' one, uncertified in TP."""
    owners, edges = [Player.MIN], [(0, 0, 0)]
    for r, w in enumerate((1, 0)):
        b = 1 + 26 * r
        owners += [Player.MIN] * 26
        edges += [e for i in range(26) for e in ((b + i, b + (i + 1) % 26, w), (b + i, b + i, w))]
        edges += [(b + 3, 0, 2), (b + 17, 0, -2)]
    arena = make_arena([f"v{i}" for i in range(len(owners))], owners, edges,
                       [0] if objective is Objective.MCR else [], objective)
    return normalize_target(arena) if objective is Objective.MCR else arena


@pytest.mark.parametrize("objective", [Objective.TP, Objective.MCR])
def test_two_exits_to_one_vertex_take_two_slots(objective):
    """A component above the floor with two exit edges to the same vertex
    numbers them k and k + 1, both at that vertex in ``ids``, and its
    solves under scc and scc+paths equal the plain one."""
    arena = two_exit_rings(objective)
    layout = scc_decompose(arena)
    rings = [q for q in range(len(layout)) if layout.edge_counts[q] == 54]
    assert len(rings) == 2
    for q in rings:
        view, ids = local(layout, q)
        assert view.dst[view.dst >= 26].tolist() == [26, 27]
        assert ids[26:].tolist() == [0, 0]
    if objective is Objective.TP:
        plain, solve = solve_tp(arena), solve_tp_accelerated
    else:
        plain, solve = solve_mcr(arena), solve_mcr_accelerated
    for oracle in (no_clamp_oracle, simple_path_oracle):
        assert solve(arena, oracle).values == plain.values


def test_layout_holds_one_run_of_forms(monkeypatch):
    """In a solve, the path oracle and the pass of a component get the
    same form object, built once; the layout never holds more than one
    run of ``SCALAR_RUN`` forms.  layered(300, 5) has 601 components, all
    of them small."""
    calls = []
    scalar_form = eng.ComponentLayout.scalar_form

    def watched(layout, q):
        form = scalar_form(layout, q)
        calls.append((q, id(form), held_run(layout)))
        return form

    monkeypatch.setattr(eng.ComponentLayout, "scalar_form", watched)
    mcr = normalize_target(layered(300, 5, Objective.MCR))
    for arena, solve in ((layered(300, 5), solve_tp_accelerated), (mcr, solve_mcr_accelerated)):
        calls.clear()
        solve(arena)
        comps = len(scc_decompose(arena))
        asked = {}
        for q, form, held in calls:
            asked.setdefault(q, set()).add(form)
        assert all(len(forms) == 1 for forms in asked.values())  # built once, shared
        assert [q for q, _, _ in calls] == sorted(q for q, _, _ in calls)
        assert max(len(held) for _, _, held in calls) == eng.ComponentLayout.SCALAR_RUN
        assert {held[0] for _, _, held in calls} == set(range(comps - len(asked), comps, 64))


def forward_arena(rng, n, objective):
    """Mostly edges to later vertices, so that most components are one
    vertex without a self-loop; a few self-loops and back edges make the
    rest, and the last vertex loops on itself."""
    edges = []
    for v in range(n):
        for d in rng.sample(range(v + 1, n), min(n - 1 - v, rng.randint(1, 3))):
            edges.append((v, d, rng.randint(-9, 9)))
        if v == n - 1 or rng.random() < 0.1:
            edges.append((v, v, rng.randint(-9, 9)))
        if v > 0 and rng.random() < 0.05:
            edges.append((v, rng.randrange(v), rng.randint(-9, 9)))
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = rng.sample(range(n), 3) if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def test_trivial_components_get_no_tables(monkeypatch):
    """The path oracle gives a one-vertex component without a self-loop
    no table and no walk.  Each solve equals the one with the walked
    tables, forced through a wrapper oracle: values, each component's
    (passes, sweeps) and so k_e/k_i."""
    monkeypatch.setattr(accel, "SolveStats", ComponentCounts)

    def walked(arena, dec, q, finalized):
        with monkeypatch.context() as walk:
            walk.setattr(accel, "_trivial", lambda *args: False)
            return simple_path_oracle(arena, dec, q, finalized)

    rng = random.Random(3018)
    trivial = 0
    for i in range(40):
        objective = (Objective.MCR, Objective.TP)[i % 2]
        arena = forward_arena(rng, rng.randint(5, 120), objective)
        if objective is Objective.MCR:
            arena, solve = normalize_target(arena), solve_mcr_accelerated
        else:
            solve = solve_tp_accelerated
        dec = scc_decompose(arena)
        for q in range(len(dec)):
            if accel._trivial(dec.scalar_form(q)):
                trivial += 1
                assert simple_path_oracle(arena, dec, q, np.zeros(arena.n, np.int64)) == [None]
                assert walked(arena, dec, q, np.zeros(arena.n, np.int64))[0] is not None
        got, want = solve(arena), solve(arena, walked)
        assert got.values == want.values
        assert got.stats.steps == want.stats.steps
        assert (got.stats.outer_iterations, got.stats.inner_iterations) == (
            want.stats.outer_iterations, want.stats.inner_iterations)
    assert trivial > 1_000


def branch_run(arena, solve, oracle, floor, monkeypatch):
    """``solve(arena, oracle)`` with ``SCALAR_MAX_EDGES`` at ``floor``,
    through a wrapper of ``accel._component_pass`` that requires the +inf
    start in the list of finished values at the component's members on
    entry.  Returns what each
    component's pass or nested iteration returned or raised, in order,
    then each component's counts and the values (none after an error);
    and the steps, each 'nested', 'list' or 'view', a pass followed by
    'from below' when it re-solved."""
    monkeypatch.setattr(eng, "SCALAR_MAX_EDGES", floor)
    monkeypatch.setattr(accel, "SolveStats", ComponentCounts)
    returns, steps = [], []

    def component(run, step):
        def call(*args, **kwargs):
            steps.append(step(*args))
            try:
                got = run(*args, **kwargs)
            except (AssertionError, UnsoundOracleError) as exc:
                returns.append(type(exc))
                raise
            returns.append([v.tolist() if isinstance(v, np.ndarray) else v for v in got])
            return got
        return call

    def lifting(run):  # in these solves only a re-solve from below lifts
        def call(*args, **kwargs):
            if kwargs.get("lift") is not None:
                steps.append("from below")
            return run(*args, **kwargs)
        return call

    def entered(layout, done, q, *args):
        v0, v1 = layout.bounds[q, :2].tolist()
        starts = [done[v] for v in layout.members[v0:v1].tolist()]
        if set(starts) != {eng.POS}:
            pytest.fail(f"component {q} does not start at +inf: {arena}")  # the solve catches asserts
        return "list" if layout.edge_counts[q] <= floor else "view"

    monkeypatch.setattr(accel, "_component_pass", component(accel._component_pass, entered))
    monkeypatch.setattr(eng, "nested_fixpoint", component(eng.nested_fixpoint, lambda *a: "nested"))
    monkeypatch.setattr(eng, "fixpoint", lifting(eng.fixpoint))
    monkeypatch.setattr(eng, "scalar_sweeps", lifting(eng.scalar_sweeps))
    try:
        res = solve(arena, oracle)
        returns.append((res.stats.steps, res.values.values))
    except (AssertionError, UnsoundOracleError):
        pass
    return returns, steps


@pytest.mark.parametrize("bound", [None, 2], ids=["bounds", "short-bound"])
@pytest.mark.parametrize("oracle", [no_clamp_oracle, simple_path_oracle], ids=["scc", "paths"])
def test_component_pass_branches_agree(monkeypatch, oracle, bound):
    """Every component pass finds its members at +inf in the list of
    finished values, where the solve started them.  On chains of blocks
    whose uncertified components and 'negative' re-solves from below come
    before certified ones, a solve with the scalar floor at 4 edges mixes
    list and view passes; it returns what the all-view (floor 0) and
    all-list (the default floor) solves return, component by component:
    counts and values, or the error type under a short sweep bound."""
    if bound is not None:
        monkeypatch.setattr(accel, "sweep_bound", lambda *args: bound)
    rng = random.Random(19)
    seen = set()
    for i in range(12):
        objective = (Objective.TP, Objective.MCR)[i % 2]
        arena, solve = block_arena(rng, objective, rng.randint(30, 80)), solve_tp_accelerated
        if objective is Objective.MCR:
            arena, solve = normalize_target(arena), solve_mcr_accelerated
        got = {}
        for floor in (0, eng.SCALAR_MAX_EDGES, 4):
            with monkeypatch.context() as floored:
                got[floor], steps = branch_run(arena, solve, oracle, floor, floored)
        assert got[0] == got[eng.SCALAR_MAX_EDGES] == got[4], arena
        if {"list", "view"} <= set(steps):
            seen.add("mixed")
        last = max((at for at, step in enumerate(steps) if step in ("list", "view")), default=0)
        seen.update({"nested", "from below"} & set(steps[:last]))
        seen.add(got[4][-1] if isinstance(got[4][-1], type) else "solved")
    assert {"mixed", "solved"} <= seen
    if bound is None:
        assert {"nested", "from below"} <= seen
    else:
        assert {AssertionError, UnsoundOracleError if oracle is simple_path_oracle else "solved"} <= seen


def alternating_arena(rng, objective):
    """A chain of blocks, each with exits into earlier ones: small signed
    components (one or two vertices, at most ``SCALAR_MAX_EDGES`` edges),
    rings of 26 vertices with 52 edges, above the floor, with every cycle
    of one sign, and two-vertex components with cycles of both signs,
    which total payoff leaves uncertified.  Blocks of each kind follow
    each other in every order."""
    owners, edges = [], []
    kinds = ["small", "ring", "small", "mixed", "small", "small", "ring", "mixed"]
    kinds += rng.sample(kinds, len(kinds))
    for kind in kinds:
        base = len(owners)
        sign = rng.choice((1, -1))
        if kind == "small":
            k = rng.randint(1, 2)
            edges += [(base + i, base + (i + 1) % k, sign * rng.randint(1, 5)) for i in range(k)]
        elif kind == "ring":
            k = 26
            edges += [e for i in range(k) for e in ((base + i, base + (i + 1) % k, sign),
                                                    (base + i, base + i, sign * 2))]
        else:
            k = 2
            edges += [(base, base, 1), (base + 1, base + 1, -1), (base, base + 1, 0),
                      (base + 1, base, 0)]
        owners += [rng.choice((Player.MAX, Player.MIN)) for _ in range(k)]
        if base:
            for v in range(base, base + k):
                for d in rng.sample(range(base), min(base, rng.randint(0, 2))):
                    edges.append((v, d, rng.randint(-9, 9)))
    arena = make_arena([f"v{i}" for i in range(len(owners))], owners, edges,
                       [0] if objective is Objective.MCR else [], objective)
    return normalize_target(arena) if objective is Objective.MCR else arena


def mcr_reference(arena, oracle):
    """The accelerated reachability solve with every component on its view:
    its oracle reads ``x``, and ``fixpoint`` sweeps the component's members
    and exits gathered from ``x``, whose members are then stored there."""
    layout = scc_decompose(arena)
    ca = layout.ca
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    x[layout.members[0]] = 0
    bound = accel.sweep_bound(arena.n, ca.W) + 1
    counts = []
    try:
        for q in range(1, len(layout)):
            tables = accel._clamping(oracle(arena, layout, q, x))
            view, ids, xl = local(layout, q, x)
            counts.append((1, eng.fixpoint(view, xl, bound, cutoff=ca.cutoff, tables=tables)))
            k = len(view.starts)
            x[ids[:k]] = xl[:k]
    except (AssertionError, UnsoundOracleError) as exc:
        return type(exc)
    return counts, eng.from_array(arena, x).values


@pytest.mark.parametrize("oracle", [no_clamp_oracle, simple_path_oracle], ids=["scc", "paths"])
def test_small_components_between_numpy_passes_match_the_numpy_reference(monkeypatch, oracle):
    """Small components solved on the list of finished values, between
    components above the floor and uncertified total-payoff components,
    which gather their local vectors from that list: each solve equals the
    per-component numpy reference, where every component gathers from the
    whole-arena ``x`` (and ``y``), sweeps and stores.  Values, each component's (passes,
    sweeps), k_e/k_i, and under short bounds the error type."""
    monkeypatch.setattr(accel, "SolveStats", ComponentCounts)
    rng = random.Random(2121)
    seen = set()
    for i in range(10):
        objective = (Objective.TP, Objective.MCR)[i % 2]
        arena = alternating_arena(rng, objective)
        if objective is Objective.TP:
            solve, reference = solve_tp_accelerated, functools.partial(two_pass_reference,
                                                                       oracle=oracle)
            layout = scc_decompose(arena)
            certs = cycle_sign_certificates(layout)
            kinds = ["nested" if c is None else "list" if e <= eng.SCALAR_MAX_EDGES else "view"
                     for c, e in zip(certs, layout.edge_counts)]
        else:
            solve, reference = solve_mcr_accelerated, functools.partial(mcr_reference,
                                                                         oracle=oracle)
            layout = scc_decompose(arena)
            kinds = ["list" if e <= eng.SCALAR_MAX_EDGES else "view"
                     for e in layout.edge_counts[1:]]
        seen.update(zip(kinds, kinds[1:]))
        for bounds in ({}, {"sweep_bound": 1}, {"sweep_bound": -1}, {"k_bound": -1}):
            with monkeypatch.context() as short:
                for name, small in bounds.items():
                    short.setattr(accel, name, lambda *args, small=small: small)
                want = reference(arena)
                try:
                    res = solve(arena, oracle)
                    got = (res.stats.steps, res.values.values)
                    totals = (res.stats.outer_iterations, res.stats.inner_iterations)
                except (AssertionError, UnsoundOracleError) as exc:
                    got = type(exc)
                if isinstance(want, tuple):
                    want_steps = [tuple(s) for s in want[0]]
                    assert got == (want_steps, want[1]), (arena, bounds)
                    assert totals == tuple(map(sum, zip(*want_steps)))
                    seen.add("solved")
                else:
                    assert got is want, (arena, bounds)
                    seen.add(want)
    assert {("list", "view"), ("view", "list")} <= seen
    assert {("list", "nested"), ("nested", "list")} <= seen
    errors = {AssertionError, UnsoundOracleError if oracle is simple_path_oracle else "solved"}
    assert {"solved"} | errors <= seen
