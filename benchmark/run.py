#!/usr/bin/env python3
"""quantgames benchmark: drives `qg` in-process on seeded game files.

Run from the root of a quantgames checkout:

    python3 benchmark/run.py --workload layered-tp-accel --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all

Each workload is a closed loop with one client in one single-threaded
process: write the game file once during set-up, then call
``quantgames.cli.run(argv)`` back to back with stdout captured in memory,
checking every output outside the timed interval.  ``--trace 0`` reports
the end-to-end metrics: each operation's wall time divided by that of a
fixed yardstick run around it, which cancels most of a shared host's
speed changes, while the seconds as measured go to the record.
``--trace 1`` replays the operations with spans and reports the per-layer
metrics (see tracing.py).  Human-readable lines come first; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record with provenance goes to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
YARDSTICK_KEYS = 20_000
YARDSTICK_SPAN = 3
YARDSTICK_REF_S = 0.010  # the yardstick on the fast plateau of the VM used
TAIL_BEYOND = 10  # the tail percentile needs this many operations beyond it
MIN_OPS = TAIL_BEYOND + 1


def parse_args(argv: Optional[Sequence[str]], spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_op(cli, argv: List[str]) -> Tuple[float, float, bytes, Optional[str]]:
    """One operation: (wall s, process CPU s, stdout bytes, error or None)."""
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    error = None
    with contextlib.redirect_stdout(text):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if rc not in (0, None):
        error = f"exit code {rc}"
    return wall, cpu, buf.getvalue(), error


class Gate:
    """Correctness gate: counts operations and failures, times the checks.
    ``verify_s`` is the one-off reference computation, ``check_s`` the sum
    of the per-operation checks."""

    def __init__(self, workload, ref: dict, verify_s: float) -> None:
        self.workload = workload
        self.ref = ref
        self.verify_s = verify_s
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None

    def check(self, out: bytes, error: Optional[str]) -> None:
        t0 = time.perf_counter()
        self.attempted += 1
        if error is None:
            try:
                self.workload.check(out, self.ref)
            except Exception as exc:  # any wrong or unreadable output is a failed operation
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error
        self.check_s += time.perf_counter() - t0


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered)


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quantgames").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, info) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "command": [Path(sys.executable).name] + sys.argv,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "input": {"vertices": info.vertices, "edges": info.edges, "bytes": info.bytes},
    }


def yardstick() -> float:
    """Wall seconds of a fixed piece of interpreter work (building strings,
    filling and reading a dict) that shares no code with the program and
    allocates no object the garbage collector tracks besides one list and
    one dict.  About 10-15 ms on a 2-vCPU x86 VM.  Run between
    operations, it shows how fast the machine was around each one; on the
    VM used it slowed by the same factor as the operations when
    other tenants loaded the host, where a numpy sort slowed much less."""
    t0 = time.perf_counter()
    table: Dict[str, int] = {}
    keys = [str(i) for i in range(YARDSTICK_KEYS)]
    for round_ in range(3):
        for i, key in enumerate(keys):
            table[key] = i + round_
    total = 0
    for key in keys:
        total += table[key]
    return time.perf_counter() - t0


def measure(cli, workload, path: Path, gate: Gate, seconds: float):
    """Closed loop for ``seconds`` and at least MIN_OPS operations; returns
    per-operation wall and CPU seconds, and the yardstick's times: one
    before the first operation and one after each."""
    argv = workload.argv(str(path))
    walls: List[float] = []
    cpus: List[float] = []
    yards = [yardstick()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(walls) < MIN_OPS:
        wall, cpu, out, error = run_op(cli, argv)
        yards.append(yardstick())
        walls.append(wall)
        cpus.append(cpu)
        gate.check(out, error)
    return walls, cpus, yards


def around(yards: List[float], i: int) -> float:
    """Mean yardstick time over the YARDSTICK_SPAN samples on each side of
    operation ``i`` (``yards[i]`` ran just before it, ``yards[i + 1]``
    just after)."""
    window = yards[max(0, i + 1 - YARDSTICK_SPAN): i + 1 + YARDSTICK_SPAN]
    return sum(window) / len(window)


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import quantgames
    from quantgames import cli
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if Path(quantgames.__file__).resolve().parent != SRC / "quantgames":
        print(f"error: imported quantgames from {quantgames.__file__}, not this checkout", file=sys.stderr)
        return 2

    # name -> unit, as BENCHMARK.json declares them for this mode
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    path = OUT_DIR / f"{stem}.qg"
    try:
        # Set-up, repeated: generate, write, and one warm-up operation.
        # The yardstick runs before the first set-up and after each.
        yardstick()  # first call: allocator and caches
        setup_yards = [yardstick()]
        setup_reps = []
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            s0 = time.perf_counter()
            blob, info = workload.make_input(args.seed)
            path.write_bytes(blob)
            run_op(cli, workload.argv(str(path)))
            setup_reps.append(time.perf_counter() - s0)
            setup_yards.append(yardstick())
        v0 = time.perf_counter()
        ref = workload.reference(blob)
        gate = Gate(workload, ref, verify_s=time.perf_counter() - v0)

        record = {"workload": args.workload, "why": why, "trace": args.trace,
                  "provenance": provenance(args, info)}
        if args.trace == 0:
            walls, cpus, yards = measure(cli, workload, path, gate, args.seconds)
            ratios = [w / around(yards, i) for i, w in enumerate(walls)]
            ratio_tail, tail_pct = tail(ratios)
            metrics = {
                "op_ref_p50": statistics.median(ratios),
                "op_ref_tail": ratio_tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # Seconds at the fast plateau's speed, where the yardstick
                # takes YARDSTICK_REF_S.
                "setup_s": YARDSTICK_REF_S * (import_s / setup_yards[0] + statistics.median(
                    s / around(setup_yards, i) for i, s in enumerate(setup_reps))),
            }
            # Seconds as measured.  They are not bounded in BENCHMARK.json:
            # the host's speed changes up to twofold from minute to minute,
            # which the yardstick ratio cancels (see NOTES.md).
            record.update(op_s_p50=statistics.median(walls), op_s_tail=tail(walls)[0],
                          op_cpu_s_p50=statistics.median(cpus),
                          ops_per_s=len(walls) / sum(walls),
                          yardstick_s_p50=statistics.median(yards),
                          tail_percentile=tail_pct, samples=len(walls), import_s=import_s,
                          setup_s_measured=import_s + statistics.median(setup_reps),
                          setup_reps_s=setup_reps, setup_yardstick_s=setup_yards,
                          op_wall_s=walls, op_cpu_s=cpus, yardstick_s=yards)
        else:
            # Untraced operations alternate with traced replays, so the
            # overhead baseline sees the same machine state.
            argv = workload.argv(str(path))
            tr = tracing.Tracer()
            counts, walls = [], []
            end = time.perf_counter() + args.seconds
            while tr.op < 3 or time.perf_counter() < end:
                wall, _, out, error = run_op(cli, argv)
                walls.append(wall)
                gate.check(out, error)
                try:
                    out, c = tracing.replay(tr, workload, str(path))
                    counts.append(c)
                    error = None
                except Exception as exc:  # a replay that raises is a failed operation
                    out, error = b"", f"{type(exc).__name__}: {exc}"
                gate.check(out, error)
                tr.op += 1
            untraced = statistics.median(walls)
            metrics = tracing.layer_metrics(tr, counts, untraced, declared)
            spans_path = OUT_DIR / f"{stem}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in tr.spans:
                    fh.write(json.dumps(s) + "\n")
            record.update(samples=tr.op, untraced_samples=len(walls), spans_file=spans_path.name)
    finally:
        path.unlink(missing_ok=True)

    if set(metrics) != set(declared):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }
    record.update(result, fail_frac=gate.failed / gate.attempted, verify_s=gate.verify_s,
                  check_s=gate.check_s, first_error=gate.first_error)
    record_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{gate.attempted} ops, {gate.failed} failed, fail_frac {gate.failed / gate.attempted:.4g}, "
          f"verify_s {gate.verify_s:.4f}, check_s {gate.check_s:.4f}")
    if gate.first_error:
        print(f"  first failure: {gate.first_error}")
    if args.trace == 0:
        print(f"  tails are p{record['tail_percentile']:.1f} of {record['samples']} ops; "
              f"as measured: op_s_p50 {record['op_s_p50']:.6g} s, "
              f"op_s_tail {record['op_s_tail']:.6g} s, "
              f"op_cpu_s_p50 {record['op_cpu_s_p50']:.6g} s, "
              f"ops_per_s {record['ops_per_s']:.6g} 1/s, "
              f"yardstick_s_p50 {record['yardstick_s_p50']:.6g} s, "
              f"setup_s {record['setup_s_measured']:.6g} s")
    for k, unit in declared.items():
        share = ""
        if args.trace and unit == "s" and metrics[k] and not k.startswith("trace."):
            share = f"  ({100 * metrics[k] / metrics['trace.op_s']:.1f}% of trace.op_s)"
        print(f"  {k:<30} {metrics[k]:.6g} {unit}{share}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "quantgames" / "__init__.py").is_file():
        print(f"error: no quantgames sources under {SRC}; run from a quantgames checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
