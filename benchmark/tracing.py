"""Traced replay of one operation, for the per-layer metrics.

A replay makes the same public calls as `qg solve` / `qg strategy`, each
inside a span.  Work a solver does internally (compiling, sweeping,
converting, decomposing, asking the oracle) has no span of its own yet, so
after the operation those sub-layers are re-executed standalone on the same
data, in spans whose parent is the solver's span; a solver's self time is
its span minus those re-executions.  Spans live in memory until the run
writes them out.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from quantgames import _engine as eng
from quantgames import gamefile
from quantgames.accel import (
    DEFAULT_PATH_CAP,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)
from quantgames.arena import Arena, Objective, ValueVector, normalize_target, validate
from quantgames.extvalue import MINUS_INF
from quantgames.mcr import solve_mcr
from quantgames.strategies import (
    extract_max_memoryless,
    extract_min_mcr,
    make_switching,
    strategy_json,
)
from quantgames.tp import solve_tp

SWEEP_REPS = 21

class Tracer:
    """In-memory spans: id, operation id, name, parent id, start, end."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.op = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        if parent is None and self._open:
            parent = self._open[-1]
        rec = {"id": len(self.spans), "op": self.op, "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _engine_reexec(tr: Tracer, parent: int, arena: Arena, values: ValueVector,
                   stop_requests: bool, counts: Dict[str, float]) -> None:
    """Standalone compile, sweep and conversion on the solved arena.  The
    sweep runs in the form the solver uses: TP sweeps read the stop-request
    cap ``ytrans``, reachability sweeps do not."""
    with tr.span("engine.compile", parent):
        ca = eng.CompiledArena(arena)
    x = eng.to_array(values.values)
    ytrans = None
    if stop_requests:
        ytrans = np.maximum(x, 0)
        np.copyto(ytrans, eng.POS, where=x >= eng.POS)
    for _ in range(SWEEP_REPS):
        with tr.span("engine.sweep", parent):
            eng.sweep(ca, x, ytrans)
    with tr.span("engine.from_array", parent):
        eng.from_array(arena, x)
    E, n = len(ca.src), ca.n
    counts["engine.edges"] = E
    # Computed, not measured: the bytes a sweep must at least touch.  It
    # reads dst, wt and one gathered value per edge (two with ytrans),
    # reads starts and is_max per vertex, and writes one value per vertex.
    counts["engine.sweep_bytes_computed"] = 8 * E * (4 if stop_requests else 3) + 17 * n


def _accel_reexec(tr: Tracer, parent: int, arena: Arena, values: ValueVector,
                  counts: Dict[str, float]) -> None:
    """Standalone decomposition and oracle calls, the oracle seeing the
    final values as already finished, as it does inside the solver."""
    with tr.span("accel.decompose", parent):
        dec = scc_decompose(arena)
    finalized = values.values
    first = 1 if arena.objective is Objective.MCR else 0  # MCR skips the target's component
    with tr.span("accel.oracle", parent):
        sets = [simple_path_oracle(arena, dec, q, finalized) for q in range(first, len(dec))]
    counts["accel.components"] = len(dec)
    counts["accel.oracle_candidates"] = sum(len(s) for comp in sets for s in comp if s is not None)
    degraded = sum(1 for comp in sets if all(s is None for s in comp))
    counts["accel.oracle_degraded_frac"] = degraded / len(sets) if sets else 0.0


def replay_solve(tr: Tracer, path: str, accel: bool) -> Tuple[bytes, Dict[str, float]]:
    """`qg solve FILE --json [--accel scc+paths]`, then the re-executions."""
    counts: Dict[str, float] = {}
    oracle = partial(simple_path_oracle, cap=DEFAULT_PATH_CAP)
    with tr.span("cli.run"):
        with open(path, "rb") as fh:
            blob = fh.read()
        with tr.span("gamefile.parse") as parse_span:
            arena = gamefile.parse(blob)
        if arena.objective is Objective.MCR:
            with tr.span("arena.normalize"):
                solved = normalize_target(arena)
            with tr.span("accel.solve" if accel else "mcr.solve") as solver_span:
                res = solve_mcr_accelerated(solved, oracle) if accel else solve_mcr(solved)
            values = ValueVector(arena, res.values.values[: arena.n])
        else:
            solved = arena
            with tr.span("accel.solve" if accel else "tp.solve") as solver_span:
                res = solve_tp_accelerated(arena, oracle) if accel else solve_tp(arena)
            values = res.values
        with tr.span("gamefile.write_json"):
            out = gamefile.write_results_json(values, res.stats)
    with tr.span("arena.validate", parse_span):
        validate(arena)
    stats = res.stats
    if accel:
        counts["accel.k_e"], counts["accel.k_i"] = stats.outer_iterations, stats.inner_iterations
        _accel_reexec(tr, solver_span, solved, res.values, counts)
    elif arena.objective is Objective.TP:
        counts["tp.k_e"], counts["tp.k_i"] = stats.outer_iterations, stats.inner_iterations
    else:
        counts["mcr.sweeps"] = stats.sweeps
    _engine_reexec(tr, solver_span, solved, res.values, arena.objective is Objective.TP, counts)
    counts["gamefile.input_bytes"] = len(blob)
    counts["cli.output_bytes"] = len(out)
    return out, counts


def replay_strategy(tr: Tracer, path: str) -> Tuple[bytes, Dict[str, float]]:
    """`qg strategy FILE --player both` on a reachability game, then the
    re-executions: an untraced solve for the trace overhead and a
    tracemalloc-watched traced solve for its memory peak."""
    counts: Dict[str, float] = {}
    docs: Dict[str, bytes] = {}
    with tr.span("cli.run"):
        with open(path, "rb") as fh:
            blob = fh.read()
        with tr.span("gamefile.parse") as parse_span:
            arena = gamefile.parse(blob)
        with tr.span("arena.normalize"):
            norm = normalize_target(arena)
        with tr.span("mcr.trace_solve") as solver_span:
            res = solve_mcr(norm, with_trace=True)
        with tr.span("strategies.extract_max"):
            smax = extract_max_memoryless(norm, res.values)
        with tr.span("strategies.json"):
            docs["max"] = strategy_json(smax, norm)
        with tr.span("strategies.extract_min"):
            sigma1, sigma2, sigma_star = extract_min_mcr(norm, res)
        if all(v is not MINUS_INF for v in res.values):
            with tr.span("strategies.switching"):
                switching = make_switching(sigma1, sigma2, res.values, norm)
            with tr.span("strategies.json"):
                docs["min"] = strategy_json(switching, norm)
        else:
            with tr.span("strategies.json"):
                docs["min_sigma1"] = strategy_json(sigma1, norm)
                docs["min_sigma2"] = strategy_json(sigma2, norm)
        with tr.span("strategies.json"):
            docs["min_moore"] = strategy_json(sigma_star, norm)
        out = b"".join(f"--- {label} ---\n".encode() + doc for label, doc in docs.items())
    with tr.span("arena.validate", parse_span):
        validate(arena)
    with tr.span("mcr.solve", solver_span):
        solve_mcr(norm)
    with tr.span("mcr.trace_solve.tracemalloc", solver_span):
        tracemalloc.start()
        try:
            solve_mcr(norm, with_trace=True)
            counts["mcr.trace_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    _engine_reexec(tr, solver_span, norm, res.values, False, counts)
    counts["mcr.sweeps"] = res.stats.sweeps
    counts["mcr.trace_vectors"] = len(res.trace)
    counts["strategies.moore_states"] = sigma_star.size
    counts["strategies.json_bytes"] = sum(len(doc) for doc in docs.values())
    counts["gamefile.input_bytes"] = len(blob)
    counts["cli.output_bytes"] = len(out)
    return out, counts


def replay(tr: Tracer, workload, path: str) -> Tuple[bytes, Dict[str, float]]:
    """Traced replay of one operation of ``workload``."""
    if workload.command == "strategy":
        return replay_strategy(tr, path)
    return replay_solve(tr, path, workload.accel)


def _durations(tr: Tracer) -> Dict[int, Dict[str, List[float]]]:
    """op id -> span name -> durations of that name within the op."""
    out: Dict[int, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for s in tr.spans:
        out[s["op"]][s["name"]].append(s["end"] - s["start"])
    return out


def layer_metrics(tr: Tracer, counts: List[Dict[str, float]], untraced_op_s: float,
                  names: Iterable[str]) -> Dict[str, float]:
    """Median over the traced operations of each per-layer metric in
    ``names``; a layer the workload's operation never enters reports 0."""
    ops = list(_durations(tr).values())

    def per_op(name: str, agg=sum) -> List[float]:
        return [agg(d[name]) for d in ops if name in d]

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    m: Dict[str, float] = dict.fromkeys(names, 0)
    for key in m:  # counts recorded under a metric's own name
        m[key] = med([c[key] for c in counts if key in c])
    for span in ("gamefile.parse", "arena.validate", "arena.normalize", "engine.compile",
                 "engine.from_array", "gamefile.write_json", "mcr.solve", "tp.solve",
                 "accel.decompose", "accel.oracle", "accel.solve", "mcr.trace_solve",
                 "strategies.extract_max", "strategies.extract_min", "strategies.switching",
                 "strategies.json"):
        m[span + "_s"] = med(per_op(span))
    m["trace.op_s"] = med(per_op("cli.run"))
    sweep_s = med(per_op("engine.sweep", statistics.median))
    if sweep_s:
        m["engine.sweep_us"] = sweep_s * 1e6
        m["engine.sweep_edges_per_s"] = med([c["engine.edges"] for c in counts]) / sweep_s
    m["accel.self_s"] = med([
        sum(d["accel.solve"]) - sum(d["accel.decompose"]) - sum(d["engine.compile"])
        - sum(d["accel.oracle"]) - sum(d["engine.from_array"])
        for d in ops if "accel.solve" in d
    ])
    m["mcr.trace_overhead"] = med([
        sum(d["mcr.trace_solve"]) / sum(d["mcr.solve"])
        for d in ops if "mcr.trace_solve" in d
    ])
    m["trace.untraced_op_s"] = untraced_op_s
    m["trace.overhead_s"] = m["trace.op_s"] - untraced_op_s
    return m
