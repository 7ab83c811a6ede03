"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Expensive artifacts (exhaustive corpus sweeps, random corpora,
benchmark cells) are session fixtures shared across criteria.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest

import batch
from quantgames.accel import (
    no_clamp_oracle,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import (
    Arena,
    Objective,
    Player,
    make_arena,
    max_abs_weight,
    normalize_target,
)
from quantgames.cli import random_arena
from quantgames.extvalue import MINUS_INF, PLUS_INF, is_finite
from quantgames.gamefile import FamilySpec, generate
from quantgames.mcr import Sign, mp_sign, solve_mcr
from quantgames.oracle import enumerate_memoryless, mcr_oracle, mp_oracle, tp_oracle
from quantgames.strategies import (
    best_response,
    extract_max_memoryless,
    extract_min_mcr,
    make_switching,
    play_out,
)
from quantgames.tp import build_unfolding, k_bound, solve_tp

from conftest import prune_to_attractor


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}", flush=True)


SENT_POS = int(batch.POS)
SENT_NEG = int(batch.NEG)


def to_sentinels(values) -> List[int]:
    out = []
    for v in values:
        if v is PLUS_INF:
            out.append(SENT_POS)
        elif v is MINUS_INF:
            out.append(SENT_NEG)
        else:
            out.append(v)
    return out


def mcr_shape_arena(shape: batch.Shape, row: int) -> Arena:
    names = [f"v{i}" for i in range(shape.nv)] + ["t"]
    owners = [Player.MAX if b else Player.MIN for b in shape.is_max]
    w = shape.wfull()[row]
    edges = [
        (int(s), int(d), int(w[i]))
        for i, (s, d) in enumerate(zip(shape.src, shape.dst))
    ]
    return make_arena(names, owners, edges, [shape.target], Objective.MCR)


def tp_shape_arena(shape: batch.Shape, row: int) -> Arena:
    names = [f"v{i}" for i in range(shape.nv)]
    owners = [Player.MAX if b else Player.MIN for b in shape.is_max]
    w = shape.wfull()[row]
    edges = [
        (int(s), int(d), int(w[i]))
        for i, (s, d) in enumerate(zip(shape.src, shape.dst))
    ]
    return make_arena(names, owners, edges, [], Objective.TP)


@dataclass
class ExhaustiveReport:
    mcr_shapes: int = 0
    mcr_rows: int = 0
    mcr_mismatches: int = 0
    mcr_sign_mismatches: int = 0
    tp_shapes: int = 0
    tp_rows: int = 0
    tp_mismatches: int = 0
    trichotomy_mismatches: int = 0
    crosscheck_failures: int = 0
    crosschecks: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def exhaustive() -> ExhaustiveReport:
    """Solver vs oracle over every tiny arena, batched by weight rows."""
    rep = ExhaustiveReport()
    rng = random.Random(2024)
    started = time.perf_counter()
    for nv in (1, 2, 3):
        for shape in batch.mcr_shapes(nv):
            solved = batch.solve_mcr_batch(shape)
            reference = batch.oracle_mcr_batch(shape)
            rep.mcr_shapes += 1
            rep.mcr_rows += shape.rows
            if not np.array_equal(solved, reference):
                rep.mcr_mismatches += int(
                    (solved != reference).any(axis=1).sum()
                )
                continue
            # negative mean payoff <=> -inf, on the attracted region
            region = batch.attracted_region(shape)
            signs = batch.mp_sign_batch(shape, region)
            neg_solution = solved[:, region] <= SENT_NEG
            rep.mcr_sign_mismatches += int((neg_solution != (signs < 0)).sum())
            if rng.random() < 0.004 and shape.rows:
                row = rng.randrange(shape.rows)
                arena = mcr_shape_arena(shape, row)
                rep.crosschecks += 1
                ok = (
                    to_sentinels(solve_mcr(arena).values) == solved[row].tolist()
                    and to_sentinels(mcr_oracle(arena)) == reference[row].tolist()
                )
                rep.crosscheck_failures += 0 if ok else 1
        for shape in batch.tp_shapes(nv):
            solved = batch.solve_tp_batch(shape)
            reference, mp_num, _mp_den = batch.oracle_tp_mp_batch(shape)
            rep.tp_shapes += 1
            rep.tp_rows += shape.rows
            if not np.array_equal(solved, reference):
                rep.tp_mismatches += int((solved != reference).any(axis=1).sum())
                continue
            want = np.where(mp_num > 0, SENT_POS, np.where(mp_num < 0, SENT_NEG, 0))
            finite = (solved < SENT_POS) & (solved > SENT_NEG)
            klass = np.where(finite, 0, solved)
            rep.trichotomy_mismatches += int((klass != want).sum())
            if rng.random() < 0.02 and shape.rows:
                row = rng.randrange(shape.rows)
                arena = tp_shape_arena(shape, row)
                rep.crosschecks += 1
                ok = (
                    to_sentinels(solve_tp(arena).values) == solved[row].tolist()
                    and to_sentinels(tp_oracle(arena)) == reference[row].tolist()
                )
                rep.crosscheck_failures += 0 if ok else 1
    rep.elapsed = time.perf_counter() - started
    return rep


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(97)
    mcr = [random_arena(rng, 6, 3, Objective.MCR) for _ in range(500)]
    tp = [random_arena(rng, 5, 3, Objective.TP) for _ in range(500)]
    return mcr, tp


@pytest.fixture(scope="session")
def small_exhaustive_arenas():
    """Every arena with at most two vertices, as public objects."""
    mcr = []
    tp = []
    for nv in (1, 2):
        for shape in batch.mcr_shapes(nv):
            for row in range(shape.rows):
                mcr.append(mcr_shape_arena(shape, row))
        for shape in batch.tp_shapes(nv):
            for row in range(shape.rows):
                tp.append(tp_shape_arena(shape, row))
    return mcr, tp


@dataclass
class BenchCell:
    W: int
    n: int
    plain_values: list
    plain_ke: int
    plain_ki: int
    plain_wall: float
    accel_values: list
    accel_ke: int
    accel_ki: int
    accel_wall: float


@pytest.fixture(scope="session")
def bench_cells() -> List[BenchCell]:
    cells = []
    for W, n in [(50, 100), (50, 500), (200, 100), (200, 500)]:
        arena = generate(FamilySpec("layered", W=W, n=n))
        t0 = time.perf_counter()
        plain = solve_tp(arena)
        plain_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        accel = solve_tp_accelerated(arena, simple_path_oracle)
        accel_wall = time.perf_counter() - t0
        cells.append(
            BenchCell(
                W,
                n,
                list(plain.values),
                plain.stats.outer_iterations,
                plain.stats.inner_iterations,
                plain_wall,
                list(accel.values),
                accel.stats.outer_iterations,
                accel.stats.inner_iterations,
                accel_wall,
            )
        )
    return cells


def test_criterion_1_fig2a_solve():
    arena = normalize_target(generate(FamilySpec("fig2a", W=50)))
    t0 = time.perf_counter()
    solve_mcr(arena)
    elapsed = time.perf_counter() - t0
    res = solve_mcr(arena, with_trace=True)
    assert list(res.values) == [-50, -50, 0]
    head = [tuple(vec.values[:2]) for vec in list(res.trace)[:5]]
    assert head == [
        (PLUS_INF, PLUS_INF),
        (PLUS_INF, 0),
        (-1, 0),
        (-1, -1),
        (-2, -1),
    ]
    assert abs(res.stats.sweeps - (2 * 50 + 2)) <= 2
    assert elapsed < 0.1
    report(1, f"fig2a(50) values/trace exact, sweeps={res.stats.sweeps}, {elapsed*1000:.1f} ms")


def test_criterion_2_lsp():
    arena = generate(FamilySpec("lsp_fig5"))
    res = solve_mcr(arena)
    assert list(res.values)[:4] == [2, 3, 1, PLUS_INF]
    report(2, "longest-shortest-path instance solves to (2, 3, 1, +inf)")


def test_criterion_3_fig1a():
    res = solve_tp(generate(FamilySpec("fig1a")))
    assert list(res.values) == [2, 0, 1, -1, 0]
    report(3, "five-vertex total-payoff example solves to (2, 0, 1, -1, 0)")


EXPECTED_PLAIN_COUNTS = {(50, 100): (151, 12603), (50, 500): (551, 53003), (200, 100): (301, 80103), (200, 500): (701, 240503)}
EXPECTED_ACCEL_COUNTS = {(50, 100): (402, 1404), (50, 500): (2002, 7004), (200, 100): (402, 1404), (200, 500): (2002, 7004)}


def test_criterion_4_layered_table(bench_cells):
    offsets = set()
    for cell in bench_cells:
        W, n = cell.W, cell.n
        for vals in (cell.plain_values, cell.accel_values):
            for k in range(n):
                assert vals[3 * k] == 0 and vals[3 * k + 1] == 0 and vals[3 * k + 2] == W
        ke_want, ki_want = EXPECTED_PLAIN_COUNTS[(W, n)]
        assert abs(cell.plain_ke - ke_want) <= 2
        assert abs(cell.plain_ki - ki_want) <= cell.plain_ke + 2
        offsets.add((cell.plain_ke - ke_want, cell.plain_ki - ki_want))
        ake_want, aki_want = EXPECTED_ACCEL_COUNTS[(W, n)]
        assert abs(cell.accel_ke - ake_want) <= 0.05 * ake_want
        assert abs(cell.accel_ki - aki_want) <= 0.05 * aki_want
        offsets.add((cell.accel_ke - ake_want, cell.accel_ki - aki_want))
        assert cell.plain_wall <= 60.0
        assert cell.accel_wall <= 2.0
    # residual offsets must be the same across cells (here: exactly zero)
    assert offsets == {(0, 0)}
    report(4, "layered table reproduced exactly (plain and accelerated), offsets (0,0)")


def test_criterion_5_oracle_equivalence(exhaustive, random_corpus):
    started = time.perf_counter()
    rep = exhaustive
    assert rep.mcr_mismatches == 0
    assert rep.tp_mismatches == 0
    assert rep.crosscheck_failures == 0 and rep.crosschecks > 40
    mcr, tp = random_corpus
    for arena in mcr:
        norm = normalize_target(arena)
        assert list(solve_mcr(norm).values) == list(mcr_oracle(norm))
    for arena in tp:
        assert list(solve_tp(arena).values) == list(tp_oracle(arena))
    elapsed = rep.elapsed + (time.perf_counter() - started)
    assert elapsed <= 600.0
    report(
        5,
        f"exhaustive corpus ({rep.mcr_shapes} reach shapes/{rep.mcr_rows} games, "
        f"{rep.tp_shapes} TP shapes/{rep.tp_rows} games; {rep.crosschecks} spot-checked "
        f"against public APIs) plus 500+500 random arenas, zero mismatches in {elapsed:.0f}s",
    )


def test_criterion_6_unfolding():
    rng = random.Random(61)
    checked = 0
    for _ in range(100):
        arena = random_arena(rng, 4, 3, Objective.TP)
        K = k_bound(arena)
        unfolded, top = build_unfolding(arena, K)
        uv = solve_mcr(unfolded).values
        tv = solve_tp(arena).values
        W = max_abs_weight(arena)
        threshold = (arena.n - 1) * W + 1
        for v in range(arena.n):
            got = uv[top[v]]
            if tv[v] is PLUS_INF:
                assert got is PLUS_INF or (is_finite(got) and got >= threshold)
            else:
                assert got == tv[v] or got is tv[v]
                if is_finite(tv[v]):
                    assert got < threshold
        checked += 1
    assert checked == 100
    report(6, "stop-request unfolding at depth K reproduces all 100 random TP games")


def _strategy_suite(arena) -> Optional[str]:
    norm = normalize_target(arena)
    res = solve_mcr(norm, with_trace=True)
    values = res.values
    sigma1, sigma2, sigma_star = extract_min_mcr(norm, res)
    # reach strategy beats every adversary within |V| steps
    for sm in enumerate_memoryless(norm, Player.MAX):
        att = [v for v in range(norm.n) if values[v] is not PLUS_INF]
        for v in att:
            cur = v
            for _ in range(norm.n):
                if norm.is_target(cur):
                    break
                cur = sigma2.choice[cur] if norm.owners[cur] is Player.MIN else sm[cur]
            if not norm.is_target(cur):
                return f"reach strategy missed the target from {norm.names[v]}"
    if any(v is MINUS_INF for v in values):
        return None  # switching optimality is only claimed without -inf
    sigma_max = extract_max_memoryless(norm, values)
    if list(best_response(norm, sigma_max)) != list(values):
        return "max memoryless best response mismatch"
    switching = make_switching(sigma1, sigma2, values, norm)
    if list(best_response(norm, switching)) != list(values):
        return "switching best response mismatch"
    for v in range(norm.n):
        if not is_finite(values[v]):
            continue
        lasso, payoff = play_out(norm, sigma_max, sigma_star, v)
        seq = list(lasso.prefix) + list(lasso.cycle)
        if len(set(seq)) != len(seq):
            return "optimal profile outcome loops"
        if payoff != values[v]:
            return "optimal profile payoff off"
    return None


def test_criterion_7_strategy_suite(small_exhaustive_arenas, random_corpus):
    small_mcr, _ = small_exhaustive_arenas
    rand_mcr, _ = random_corpus
    named = [
        generate(FamilySpec("fig2a", W=3)),
        generate(FamilySpec("fig2a", W=50)),
        generate(FamilySpec("lsp_fig5")),
        generate(FamilySpec("layered", W=4, n=3, objective=Objective.MCR)),
    ]
    count = 0
    for arena in itertools.chain(small_mcr, rand_mcr, named):
        failure = _strategy_suite(arena)
        assert failure is None, failure
        count += 1
    report(7, f"strategy suite (best responses, non-looping outcomes, reach bound) on {count} arenas")


def test_criterion_8_acceleration_soundness(
    small_exhaustive_arenas, random_corpus, bench_cells
):
    small_mcr, small_tp = small_exhaustive_arenas
    rand_mcr, rand_tp = random_corpus
    rng = random.Random(83)
    sampled_mcr = []
    for shape in batch.mcr_shapes(3):
        if rng.random() < 0.10:
            sampled_mcr.append(mcr_shape_arena(shape, rng.randrange(shape.rows)))
    sampled_tp = []
    for shape in batch.tp_shapes(3):
        if rng.random() < 0.40:
            sampled_tp.append(tp_shape_arena(shape, rng.randrange(shape.rows)))
    checked = 0
    for arena in itertools.chain(small_mcr, rand_mcr, sampled_mcr):
        norm = normalize_target(arena)
        want = list(solve_mcr(norm).values)
        assert list(solve_mcr_accelerated(norm, simple_path_oracle).values) == want
        assert list(solve_mcr_accelerated(norm, no_clamp_oracle).values) == want
        checked += 1
    for arena in itertools.chain(small_tp, rand_tp, sampled_tp):
        want = list(solve_tp(arena).values)
        assert list(solve_tp_accelerated(arena, simple_path_oracle).values) == want
        assert list(solve_tp_accelerated(arena, no_clamp_oracle).values) == want
        checked += 1
    for cell in bench_cells:
        assert cell.accel_values == cell.plain_values
        arena = generate(FamilySpec("layered", W=cell.W, n=cell.n))
        scc_only = solve_tp_accelerated(arena, no_clamp_oracle)
        assert list(scc_only.values) == cell.plain_values
    # layered as a reachability game, both oracles
    for W, n in [(50, 100), (7, 25)]:
        norm = normalize_target(
            generate(FamilySpec("layered", W=W, n=n, objective=Objective.MCR))
        )
        want = list(solve_mcr(norm).values)
        assert list(solve_mcr_accelerated(norm, simple_path_oracle).values) == want
        assert list(solve_mcr_accelerated(norm, no_clamp_oracle).values) == want
    report(
        8,
        f"accelerated solvers (both oracles) match plain on {checked} corpus arenas "
        f"and every benchmark cell",
    )


def test_criterion_9_infinity_trichotomy(exhaustive, random_corpus):
    rep = exhaustive
    assert rep.trichotomy_mismatches == 0
    assert rep.mcr_sign_mismatches == 0
    mcr, tp = random_corpus
    for arena in tp:
        vals = solve_tp(arena).values
        means = mp_oracle(arena)
        for v in range(arena.n):
            if means[v] > 0:
                assert vals[v] is PLUS_INF
            elif means[v] < 0:
                assert vals[v] is MINUS_INF
            else:
                assert is_finite(vals[v])
    for arena in mcr:
        norm = normalize_target(arena)
        vals = solve_mcr(norm).values
        pruned, remap = prune_to_attractor(norm)
        signs = mp_sign(pruned)
        for v, pv in remap.items():
            assert (vals[v] is MINUS_INF) == (signs[pv] is Sign.NEGATIVE)
    report(
        9,
        "infinity trichotomy holds on the exhaustive corpus and both random corpora",
    )
