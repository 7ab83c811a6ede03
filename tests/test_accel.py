import dataclasses
import functools
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

from conftest import MIXED, fig2a, layered, single_vertex, skewed_arena


def test_scc_layered():
    arena = layered(4, 3)
    dec = scc_decompose(arena)
    assert len(dec) == 2 * 4 + 1
    comps = {frozenset(c) for c in dec.components}
    t = arena.index("t")
    assert frozenset({t}) in comps
    for k in range(4):
        a, b, c = arena.index(f"a{k}"), arena.index(f"b{k}"), arena.index(f"c{k}")
        assert frozenset({a, b}) in comps
        assert frozenset({c}) in comps


def test_scc_fig2a():
    arena = fig2a(3)
    dec = scc_decompose(arena)
    assert dec.components == ((2,), (0, 1))
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
    assert all(len(c) == 1 for c in dec.components)


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
        assert dec.components[0] == (t,)
        # each component is a maximal SCC: mutual reachability inside
        for comp in dec.components:
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
    members = dec.components[dec.comp_of[a1]]
    assert {arena.names[v] for v in members} == {"a1", "b1"}
    table = simple_path_oracle(arena, dec, dec.comp_of[a1], x)[members.index(a1)]
    # exits: a->c directly (-W + W = 0) and via b (-1 + 0 + W = W-1)
    assert {0, 5 - 1, int(eng.NEG), int(eng.POS)} <= set(table.tolist())


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
    assert tables[0].tolist() == [int(eng.NEG), 4, int(eng.POS)]


def test_simple_path_oracle_soundness():
    # The solved value is always among the candidates it returns.
    rng = random.Random(54)
    for _ in range(60):
        arena = normalize_target(random_arena(rng, 6, 3, Objective.MCR))
        x = eng.to_array(solve_mcr(arena).values)
        dec = scc_decompose(arena)
        for q in range(1, len(dec)):
            tables = simple_path_oracle(arena, dec, q, x)
            for v, table in zip(dec.components[q], tables):
                if table is not None:
                    assert int(x[v]) in table.tolist()


def test_simple_path_oracle_contract():
    # The raw vector and the API's extended values give equal tables, and
    # every table is sorted int64 from the -inf to the +inf sentinel.
    rng = random.Random(55)
    infinities = set()
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
        for q in range(len(dec)):
            raw = simple_path_oracle(arena, dec, q, eng.to_array(values))
            ext = simple_path_oracle(arena, dec, q, values.values)
            assert len(raw) == len(ext) == len(dec.components[q])
            for a, b in zip(raw, ext):
                assert (a is None) == (b is None)
                if a is None:
                    continue
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)
                assert a[0] == eng.NEG and a[-1] == eng.POS
                assert np.all(a[:-1] < a[1:])
    assert infinities == {"+inf", "-inf"}


def test_simple_path_oracle_cap_degrades():
    arena = normalize_target(fig2a(3))
    dec = scc_decompose(arena)
    sets = simple_path_oracle(arena, dec, 1, [0] * arena.n, cap=1)
    assert sets == [None, None]


def test_path_work_shortcut_matches_the_walk(monkeypatch):
    """A component of k members with E_C out-edges and no target among
    them degrades before any walk when k * E_C > ``PATH_WORK_CAP``; the
    walks give the same tables, or degrade too, at every cut cap.  The
    corpus holds MCR arenas with targets inside larger components, where
    the walks stop at the targets and the shortcut must not fire."""
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
            finalized = eng.to_array(
                [rng.choice((PLUS_INF, MINUS_INF, rng.randint(-50, 50))) for _ in range(arena.n)]
            )
            for q, members in enumerate(dec.components):
                monkeypatch.setattr(accel, "_walks_pass_work_cap", counted)
                got = simple_path_oracle(arena, dec, q, finalized)
                monkeypatch.setattr(accel, "_walks_pass_work_cap", lambda *args: False)
                want = simple_path_oracle(arena, dec, q, finalized)  # the walks alone
                assert [t if t is None else t.tolist() for t in got] == [
                    t if t is None else t.tolist() for t in want]
                queries += 1
                degraded += want[0] is None
                work = len(members) * sum(
                    dec.edges.ends[v + 1] - dec.edges.ends[v] for v in members)
                if work > cap:
                    if arena.targets.isdisjoint(members) or arena.objective is Objective.TP:
                        shortcuts += 1
                    else:
                        blocked += 1
    # 5,576 queries: 334 degraded walks, 203 shortcuts, 50 blocked by a target.
    assert queries > 5_000 and degraded > 300 and shortcuts > 200 and blocked > 40
    assert sum(fired) == shortcuts  # the shortcut fires on exactly those components
    # When it fires, no walk starts: a walk would index ``ends``.
    monkeypatch.setattr(accel, "_walks_pass_work_cap", lambda *args: True)
    monkeypatch.setattr(accel, "PATH_WORK_CAP", 0)

    class Untouchable(list):
        def __getitem__(self, i):
            raise AssertionError("walked")

    dec = scc_decompose(arenas[1])
    blind = dataclasses.replace(dec, edges=dec.edges._replace(ends=Untouchable()))
    for q, members in enumerate(dec.components):
        zeros = np.zeros(arenas[1].n, dtype=np.int64)
        assert simple_path_oracle(arenas[1], blind, q, zeros) == [None] * len(members)


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
    layout = eng.ComponentLayout(eng.CompiledArena(arena), scc_decompose(arena).components)
    return cycle_sign_certificates(layout)


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
        components = scc_decompose(arena).components
        want = [enumerated_certificate(arena, members) for members in components]
        assert certificates(arena) == want, (arena, components)
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
    components = scc_decompose(arena).components
    assert dict(zip(components, certificates(arena))) == want
    assert all(want[c] == enumerated_certificate(arena, c) for c in components)


def test_certificate_guard_skips_components_past_the_snap(monkeypatch):
    # (k+1)((k+1)W + 1) >= 2**61 for k = 50,000 and W = 10**9: no sweep.
    k = 50_000
    edges = [(v, (v + 1) % k, 10**9 if v % 2 else -(10**9)) for v in range(k)]
    arena = make_arena([f"v{i}" for i in range(k)], [Player.MIN] * k, edges)
    layout = eng.ComponentLayout(eng.CompiledArena(arena), [range(k)])

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


def two_pass_reference(arena, seen=None):
    """The accelerated TP solve as the outer loop around every certified
    component's clamped pass: the pass runs again until it leaves the outer
    vector unchanged, so a component costs two passes unless its lifted
    result is the start, all -inf.  Returns the per-component (passes,
    sweeps) and the values, or the error type.  ``seen`` collects what the
    certified components reached."""
    seen = set() if seen is None else seen
    dec = scc_decompose(arena)
    ca = eng.CompiledArena(arena)
    lift_at = (arena.n - 1) * ca.W
    x = np.full(arena.n, eng.POS, dtype=np.int64)
    y = np.full(arena.n, eng.NEG, dtype=np.int64)
    inner_bound = accel.sweep_bound(arena.n, ca.W) + 1
    outer_bound = accel.k_bound(arena) + 1
    layout = eng.ComponentLayout(ca, dec.components)
    counts = []
    try:
        for q, cert in enumerate(cycle_sign_certificates(layout)):
            view = layout.view(q)
            if cert is None:
                counts.append(eng.nested_fixpoint(
                    view, x, y, cutoff=ca.cutoff, lift=lift_at,
                    inner_bound=inner_bound, outer_bound=outer_bound,
                ))
                continue
            seen.add(cert)
            tables = accel._clamping(simple_path_oracle(arena, dec, q, x))
            m = view.members
            passes = sweeps = 0
            while True:
                prev = y[m].copy()
                x[m] = eng.POS
                sweeps += eng.fixpoint(view, x, inner_bound, cutoff=ca.cutoff, tables=tables)
                if cert == "negative" and (x[m] >= eng.POS).any():
                    seen.add("from below")
                    x[m] = eng.NEG
                    sweeps += eng.fixpoint(view, x, inner_bound, lift=lift_at, tables=tables)
                new = x[m]
                new[new > lift_at] = eng.POS
                x[m] = new
                y[m] = new
                passes += 1
                if np.array_equal(new, prev):
                    break
                if passes > outer_bound:
                    raise AssertionError("outer iteration exceeded its pass bound")
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
    monkeypatch.setattr(accel, "_list_pass", counting(accel._list_pass))
    arena = layered(500, 50)
    res = solve_tp_accelerated(arena)
    assert (res.stats.outer_iterations, res.stats.inner_iterations) == (4 * 500 + 2, 14 * 500 + 4)
    assert (calls.count("_list_pass"), len(calls)) == (1000, 1002)
    calls.clear()
    assert two_pass_reference(arena)[1] == res.values.values
    assert (calls.count("fixpoint"), len(calls)) == (2002, 2002)


def scalar_reference(view):
    """The scalar form built from the view's own arrays alone."""
    k = len(view.starts)
    ids = view.members.tolist()
    position = dict(zip(ids, range(k)))
    ends = view.starts.tolist() + [len(view.dst)]
    dst, wt = view.dst.tolist(), view.wt.tolist()
    edges = [[] for _ in range(k)]
    exit_src, exit_wt = [], []
    for i in range(k):
        for e in range(ends[i], ends[i + 1]):
            j = position.get(dst[e])
            if j is None:
                ids.append(dst[e])
                exit_src.append(i)
                exit_wt.append(wt[e])
            else:
                edges[i].append((j, wt[e]))
    return eng.ScalarForm(view.is_max.tolist(), edges, np.array(ids, dtype=np.int64),
                          exit_src, exit_wt)


def assert_same_form(got, want):
    assert got.is_max == want.is_max
    assert got.edges == want.edges
    assert got.gather.dtype == np.int64 and got.gather.tolist() == want.gather.tolist()
    assert got.exit_src == want.exit_src
    assert got.exit_wt == want.exit_wt


def test_layout_scalar_forms_match_each_views_own():
    """A layout builds its small components' scalar forms a run at a time;
    each equals the form of that view's own arrays, whatever order the
    views take them in, and a second view of a component gets it again.
    The layout holds the untaken forms of one run only, none of them of a
    component above the floor."""
    rng = random.Random(72)
    arenas = [layered(200, 50)]
    arenas += [skewed_arena(rng, rng.randint(1, 60), rng.choice((1, 5)),
                            rng.choice((Objective.MCR, Objective.TP))) for _ in range(100)]
    taken = 0
    for arena in arenas:
        layout = eng.ComponentLayout(eng.CompiledArena(arena), scc_decompose(arena).components)
        order = list(range(len(layout.bounds)))
        if rng.random() < 0.5:
            rng.shuffle(order)
        for q in order + order[:3]:
            view = layout.view(q)
            if len(view.dst) <= eng.SCALAR_MAX_EDGES:
                assert_same_form(view.scalar, scalar_reference(view))
                taken += 1
                held = list(layout._scalar)
                assert q not in held and len(held) < layout.SCALAR_RUN
                assert all(layout.bounds[c, 3] - layout.bounds[c, 2] <= eng.SCALAR_MAX_EDGES
                           for c in held)
    assert taken > 1000


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
        for q, members in enumerate(dec.components):
            if accel._trivial(members, *dec.edges[:2]):
                trivial += 1
                assert simple_path_oracle(arena, dec, q, np.zeros(arena.n, np.int64)) == [None]
                assert walked(arena, dec, q, np.zeros(arena.n, np.int64))[0] is not None
        got, want = solve(arena), solve(arena, walked)
        assert got.values == want.values
        assert got.stats.steps == want.stats.steps
        assert (got.stats.outer_iterations, got.stats.inner_iterations) == (
            want.stats.outer_iterations, want.stats.inner_iterations)
    assert trivial > 1_000
