"""Every sweep form of the kernel against one reference.

``_engine.fixpoint`` sweeps a slice in one of three forms: numpy sweeps of
every member (``numpy-full``); after a full first sweep, numpy sweeps of
the members with an edge into one that just changed (``frontier``, on one
vector over a slice of at least ``FRONTIER_MIN_EDGES`` edges); and sweeps
of Python ints (``scalar``, on one vector over a slice of at most
``SCALAR_MAX_EDGES`` edges, untraced).  ``nested_fixpoint``'s passes call
``fixpoint``, so they take the same forms, and the accelerated solvers'
list pass follows the scalar floor.  The ``form`` fixture forces one form
on every slice by moving both floors.

Kernel cases compare ``fixpoint`` and ``nested_fixpoint`` in each form
with the per-edge reference of ``kernel_reference``: the final vectors,
the counts, the error type and, where the form records one, the trace.
They run on whole arenas and component views, on one vector and on
weight rows (row by row), with ``cutoff`` or ``lift``, ``ytrans`` with
both sentinels, oracle tables that clamp and bounds that cut a call
short.  The solver cases, which require the same values, counts, traces
and bound errors from all three forms, are in ``tests/test_frontier.py``
(the small corpora) and ``tests/test_scalar.py`` (weights at the cap);
their helpers are here.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from quantgames import _engine as eng, accel, mcr, tp
from quantgames.accel import (
    UnsoundOracleError,
    no_clamp_oracle,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Objective, Player, make_arena
from quantgames.mcr import mp_sign, solve_mcr
from quantgames.tp import solve_tp

import kernel_reference as ref
from conftest import local, skewed_arena

NEVER = 10**18
FORMS = {
    "numpy-full": {"SCALAR_MAX_EDGES": 0, "FRONTIER_MIN_EDGES": NEVER},
    "frontier": {"SCALAR_MAX_EDGES": 0, "FRONTIER_MIN_EDGES": 0},
    "scalar": {"SCALAR_MAX_EDGES": NEVER, "FRONTIER_MIN_EDGES": eng.FRONTIER_MIN_EDGES},
}
BIG = 10**9  # the weight cap
ERRORS = (AssertionError, UnsoundOracleError)


def force(monkeypatch, form):
    for name, floor in FORMS[form].items():
        monkeypatch.setattr(eng, name, floor)


@pytest.fixture(params=list(FORMS))
def form(request, monkeypatch):
    force(monkeypatch, request.param)
    return request.param


# ---------------------------------------------------------------------------
# Kernel cases: each form against the reference.


def big_weight_arena(rng: random.Random, n: int, objective: Objective):
    """Out-degree 1-3 and weights in {-10**9, 0, 10**9}: every cycle weighs
    a multiple of 10**9, so descents take few sweeps even at the cap."""
    edges = [(v, d, rng.choice((-BIG, 0, BIG))) for v in range(n)
             for d in rng.sample(range(n), rng.randint(1, min(3, n)))]
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    targets = rng.sample(range(n), rng.randint(1, min(3, n))) if objective is Objective.MCR else []
    return make_arena([f"v{i}" for i in range(n)], owners, edges, targets, objective)


def slices(rng, arena, views):
    """The whole-arena slice, then component views: the largest one when
    ``views`` is None, else up to ``views`` at random; each with the
    vertex at each of its positions."""
    layout = accel.scc_decompose(arena)
    ca = layout.ca
    if views is None:
        picked = [int(np.diff(layout.bounds[:, :2]).argmax())]  # the largest
    else:
        picked = rng.sample(range(len(layout)), min(views, len(layout)))
    return ca, [(ca, np.arange(ca.n))] + [local(layout, q) for q in picked]


def random_inputs(rng, n, k, wide, y_neg=True):
    """A start vector and a ``ytrans`` over n vertices, with both sentinels
    (``ytrans`` without -inf unless ``y_neg``), and k candidate tables,
    sorted lists, some None."""
    x0 = np.array([rng.choice((eng.POS, eng.NEG, rng.randint(-wide, wide))) for _ in range(n)],
                  dtype=np.int64)
    y = np.array([rng.choice((eng.POS, eng.NEG if y_neg else eng.POS, rng.randint(-wide, wide)))
                  for _ in range(n)], dtype=np.int64)
    tables = [None if rng.random() < 0.3 else
              sorted({ref.NEG, ref.POS, *rng.sample(range(-wide, wide + 1), 3)})
              for _ in range(k)]
    return x0, y, tables


def kernel_run(fixpoint, sl, x, bound, traced, **kw):
    """How one ``fixpoint`` call (the kernel's or the reference's) ended:
    its count or error type, the vector it left and its trace rows."""
    rows = []
    trace = SimpleNamespace(append=lambda v: rows.append(np.asarray(v).tolist()))
    try:
        end = fixpoint(sl, x, bound, trace=trace if traced else None, **kw)
    except ERRORS as exc:
        end = type(exc)
    return end, np.asarray(x).tolist(), rows if traced else None


def fixpoint_cases(corpus):
    """Seeded (slice, x0, bound, keywords) cases: ``skewed`` has arenas of
    up to 80 vertices with their largest component, ``small-9`` and
    ``small-big`` arenas of up to 20 vertices with weights of up to 9 and
    at the 10**9 cap, and up to three components each."""
    if corpus == "skewed":
        rng, count, views, y_neg = random.Random(10), 40, None, False
    else:
        wmax = 9 if corpus == "small-9" else BIG
        rng, count, views, y_neg = random.Random(12 + wmax), 60, 3, True
    for _ in range(count):
        if corpus == "skewed":
            arena = skewed_arena(rng, rng.randint(2, 80), rng.choice((2, 9)), Objective.TP)
        elif corpus == "small-9":
            arena = skewed_arena(rng, rng.randint(2, 20), 9, Objective.TP)
        else:
            arena = big_weight_arena(rng, rng.randint(2, 20), Objective.TP)
        ca, sls = slices(rng, arena, views)
        for sl, ids in sls:
            x0, y, tables = random_inputs(rng, arena.n, len(sl.starts), int(ca.W) * arena.n, y_neg)
            x0, y = x0[ids], y[ids]  # the slice's local vectors
            kw = {"cutoff": ca.cutoff} if rng.random() < 0.5 else {"lift": -ca.cutoff}
            kw["ytrans"] = y if rng.random() < 0.5 else None
            kw["tables"] = tables if rng.random() < 0.5 else None
            yield sl, x0, rng.choice((0, 2, 300)), kw


@pytest.mark.parametrize("corpus", ["skewed", "small-9", "small-big"])
def test_fixpoint_matches_reference(form, corpus):
    """Untraced, then traced (numpy records the trace in every form)."""
    outcomes = set()
    for sl, x0, bound, kw in fixpoint_cases(corpus):
        for traced in (False, True):
            want = kernel_run(ref.fixpoint, sl, x0.tolist(), bound, traced, **kw)
            got = kernel_run(eng.fixpoint, sl, x0.copy(), bound, traced, **kw)
            assert got == want
        outcomes.add(want[0] if isinstance(want[0], type) else "stable")
    assert outcomes == {"stable", AssertionError, UnsoundOracleError}


def random_rows_slice(rng, n, rows, wmax):
    """A whole-graph slice of n vertices, out-degree 1-3, with ``rows``
    weight rows in +-wmax."""
    degrees = [rng.randint(1, 3) for _ in range(n)]
    dst = np.array([rng.randrange(n) for _ in range(sum(degrees))], dtype=np.int64)
    starts = np.cumsum([0] + degrees[:-1]).astype(np.int64)
    is_max = np.array([rng.random() < 0.5 for _ in range(n)])
    wt = np.array([[rng.randint(-wmax, wmax) for _ in range(len(dst))] for _ in range(rows)],
                  dtype=np.int64)
    return eng.EdgeSlice(dst, wt, starts, is_max)


def row_bars(sl):
    """Each weight row's solver cutoff and lift, as ``[rows, 1]`` columns."""
    W = np.abs(sl.wt).max(axis=1, keepdims=True)
    return -(len(sl.starts) - 1) * W, (len(sl.starts) - 1) * W


def test_fixpoint_weight_rows_match_reference(form):
    """A batch stops when its slowest row is stable: its count is the
    largest row count, each row ends as the reference leaves it, and its
    trace repeats a row's fixed point after that row is stable."""
    rng = random.Random(14)
    outcomes = set()
    for _ in range(80):
        n, rows = rng.randint(1, 9), rng.randint(1, 4)
        sl = random_rows_slice(rng, n, rows, rng.choice((2, 20)))
        cutoff, lift = row_bars(sl)
        x0 = np.stack([random_inputs(rng, n, 0, 30)[0] for _ in range(rows)])
        y = np.stack([random_inputs(rng, n, 0, 30)[1] for _ in range(rows)])
        down = rng.random() < 0.5
        capped = rng.random() < 0.5
        bound = rng.choice((0, 2, 300))
        want = []
        for r in range(rows):
            kw = {"cutoff": cutoff[r, 0]} if down else {"lift": lift[r, 0]}
            want.append(kernel_run(ref.fixpoint, sl, x0[r].tolist(), bound, True, row=r,
                                   ytrans=y[r] if capped else None, **kw))
        kw = {"cutoff": cutoff} if down else {"lift": lift}
        end, x, trace = kernel_run(eng.fixpoint, sl, x0.copy(), bound, True,
                                   ytrans=y if capped else None, **kw)
        errors = [w[0] for w in want if isinstance(w[0], type)]
        assert end == (errors[0] if errors else max(w[0] for w in want))
        for r, (_, xr, tr) in enumerate(want):
            assert x[r] == xr
            assert [t[r] for t in trace] == [tr[min(s, len(tr) - 1)] for s in range(len(trace))]
        outcomes.add(end if isinstance(end, type) else "stable")
    assert outcomes == {"stable", AssertionError}


def nested_run(nested, sl, x, y, **kw):
    try:
        end = nested(sl, x, y, **kw)
    except ERRORS as exc:
        end = type(exc)
    return end, np.asarray(x).tolist(), np.asarray(y).tolist()


def test_nested_fixpoint_matches_reference(form):
    """The outer loop on component views in topological order from the
    solver's start vectors, and on the whole arena from a random outer
    vector, with inner and outer bounds that cut it short."""
    rng = random.Random(13)
    outcomes = set()
    for _ in range(40):
        arena = skewed_arena(rng, rng.randint(2, 9), rng.choice((1, 2)), Objective.TP)
        layout = accel.scc_decompose(arena)
        ca = layout.ca
        bounds = {
            "cutoff": ca.cutoff, "lift": -ca.cutoff,
            "inner_bound": rng.choice((2, mcr.sweep_bound(arena.n, ca.W) + 1)),
            "outer_bound": rng.choice((0, 2, tp.k_bound(arena) + 1)),
        }
        runs = []
        for nested in (ref.nested_fixpoint, eng.nested_fixpoint):
            x = np.full(arena.n, eng.POS, dtype=np.int64)
            y = np.full(arena.n, eng.NEG, dtype=np.int64)
            counts = []
            for q in range(len(layout)):
                view, ids, xl, yl = local(layout, q, x, y)
                if nested is ref.nested_fixpoint:
                    xl, yl = xl.tolist(), yl.tolist()
                counts.append(nested_run(nested, view, xl, yl, **bounds))
                if isinstance(counts[-1][0], type):
                    break
                k = len(view.starts)
                x[ids[:k]], y[ids[:k]] = counts[-1][1][:k], counts[-1][2][:k]
            runs.append(counts)
        assert runs[0] == runs[1]
        outcomes.add(runs[0][-1][0] if isinstance(runs[0][-1][0], type) else "stable")
        x0, y0, _ = random_inputs(rng, arena.n, 0, int(ca.W) * arena.n)
        want = nested_run(ref.nested_fixpoint, ca, x0.tolist(), y0.tolist(), **bounds)
        assert nested_run(eng.nested_fixpoint, ca, x0.copy(), y0.copy(), **bounds) == want
        outcomes.add(want[0] if isinstance(want[0], type) else "stable")
    assert outcomes == {"stable", AssertionError}


def test_nested_fixpoint_weight_rows_match_reference(form):
    """The outer loop over weight rows, as ``tests/batch.py`` runs it: a
    batch pass sweeps until its slowest row is stable, so its inner count
    is the largest row count of that pass, a stable row repeating its last
    pass; passes and vectors are the reference's row by row."""
    rng = random.Random(15)
    outcomes = set()
    for _ in range(60):
        n, rows = rng.randint(1, 6), rng.randint(1, 4)
        sl = random_rows_slice(rng, n, rows, 2)
        cutoff, lift = row_bars(sl)
        inner_bound = rng.choice((2, mcr.sweep_bound(n, 2) + 1))
        outer_bound = rng.choice((1, 3, n * (4 * (n - 1) + 1) + 1))
        want, per_pass = [], []
        for r in range(rows):
            passes = []
            want.append(nested_run(
                ref.nested_fixpoint, sl, [ref.POS] * n, [ref.NEG] * n, cutoff=cutoff[r, 0],
                lift=lift[r, 0], inner_bound=inner_bound, outer_bound=outer_bound, row=r,
                inner_counts=passes))
            per_pass.append(passes)
        x = np.full((rows, n), eng.POS, dtype=np.int64)
        y = np.full((rows, n), eng.NEG, dtype=np.int64)
        got = nested_run(eng.nested_fixpoint, sl, x, y, cutoff=cutoff, lift=lift,
                         inner_bound=inner_bound, outer_bound=outer_bound)
        if any(isinstance(w[0], type) for w in want):
            assert got[0] is AssertionError
            outcomes.add(AssertionError)
            continue
        passes = max(w[0][0] for w in want)
        sweeps = sum(max(p[min(i, len(p) - 1)] for p in per_pass) for i in range(passes))
        assert got[0] == (passes, sweeps)
        assert x.tolist() == [w[1] for w in want] and y.tolist() == [w[2] for w in want]
        outcomes.add("stable")
    assert outcomes == {"stable", AssertionError}


# ---------------------------------------------------------------------------
# Solver helpers: tests/test_frontier.py and tests/test_scalar.py require the
# same outcome from every form.


MCR_SOLVERS = {
    "plain": lambda a: solve_mcr(a, with_trace=True),
    "plain untraced": solve_mcr,
    "scc": lambda a: solve_mcr_accelerated(a, no_clamp_oracle),
    "scc+paths": lambda a: solve_mcr_accelerated(a, simple_path_oracle),
}
TP_SOLVERS = {
    "plain": solve_tp,
    "scc": lambda a: solve_tp_accelerated(a, no_clamp_oracle),
    "scc+paths": lambda a: solve_tp_accelerated(a, simple_path_oracle),
}
SIGN_SOLVERS = {
    "mp_sign": lambda a: SimpleNamespace(values=mp_sign(a).items(), stats=mcr.SolveStats()),
}


def outcome(solve, arena):
    """What a solve shows: values, counts and trace, or its error type."""
    try:
        res = solve(arena)
    except ERRORS as exc:
        return type(exc)
    trace = getattr(res, "trace", None)
    stats = res.stats
    return (
        list(res.values), stats.sweeps, stats.inner_iterations, stats.outer_iterations,
        None if trace is None else trace.raw.tolist(),
    )


def across_forms(monkeypatch, run):
    """``run()`` in every form; asserts they agree and returns the one
    outcome."""
    got = []
    for form in FORMS:
        force(monkeypatch, form)
        got.append(run())
    assert got[0] == got[1] == got[2]
    return got[0]


def assert_form_blind(monkeypatch, solvers, arenas):
    for arena in arenas:
        for name, solve in solvers.items():
            try:
                across_forms(monkeypatch, lambda: outcome(solve, arena))
            except AssertionError:
                raise AssertionError((name, arena.n)) from None


def assert_bound_errors_form_blind(monkeypatch, module, name, cases):
    """With ``module.name`` cut to a few sweeps or passes, each solve fails
    the same way in every form, or passes in every one; some fail."""
    errors = set()
    for small in (-1, 0, 3, 10):
        monkeypatch.setattr(module, name, lambda *args, small=small: small)
        for arena, solvers in cases:
            for solve in solvers.values():
                got = across_forms(monkeypatch, lambda: outcome(solve, arena))
                errors.add(got if isinstance(got, type) else None)
    assert AssertionError in errors
