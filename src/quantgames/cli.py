"""Command-line interface.

Subcommands: solve, strategy, check, gen, bench, play, convert.  All that
solve do it one way: a reachability game is first rewired to one target
(a fresh vertex if need be), and --accel, where offered, picks the
per-component solver.  Output is deterministic byte-for-byte across runs
unless --stats adds wall-clock fields.  Exit codes: 0 ok, 1 check
mismatch, 2 parse/validation error, bad argument, unreadable/unwritable
file or stdin closed during ``play``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _engine as eng
from . import accel as accel_mod
from . import gamefile
from .arena import (
    Arena,
    ArenaError,
    Objective,
    Player,
    ValueVector,
    make_arena,
    normalize_target,
)
from .extvalue import MINUS_INF, to_json
from .mcr import SolveResult, SolveStats, solve_mcr
from .oracle import mcr_oracle, tp_oracle
from .strategies import (
    DECISION_TABLE_CAP,
    _as_moore,
    _move,
    extract_max_memoryless,
    extract_max_tp,
    extract_min_mcr,
    extract_min_sigma1,
    make_switching,
    project_tp_min,
    strategy_json,
)
from .tp import build_game_Y, solve_tp


ORACLES = {"none": None, "scc": accel_mod.no_clamp_oracle, "scc+paths": accel_mod.simple_path_oracle}


def _solve(arena: Arena, accel: str = "none", trace: bool = False) -> Tuple[Arena, SolveResult]:
    """Solve ``arena`` per its objective, reachability after
    ``normalize_target``, with the oracle ``accel`` names in ``ORACLES``,
    recording the iterates when ``trace``.  Returns the solved game and
    its result."""
    if trace and arena.objective is not Objective.MCR:
        raise ValueError("--trace is only available for mcr games")
    if trace and accel != "none":
        raise ValueError("--trace records the plain solve; it cannot be used with --accel")
    oracle = ORACLES[accel]
    if arena.objective is Objective.MCR:
        game = normalize_target(arena)
        if oracle is None:
            return game, solve_mcr(game, with_trace=trace)
        return game, accel_mod.solve_mcr_accelerated(game, oracle)
    if oracle is None:
        return arena, solve_tp(arena)
    return arena, accel_mod.solve_tp_accelerated(arena, oracle)


def _input_values(arena: Arena, res: SolveResult) -> ValueVector:
    """The solved values on the vertices of ``arena``, the input: a fresh
    target that normalization added is left out."""
    return ValueVector(arena, res.values.values[: arena.n])


def _print_values(values: ValueVector) -> None:
    """One line per vertex, its name padded to the longest, in one write:
    ``str`` of an infinity is ``+inf``/``-inf``, as ``to_json`` gives."""
    width = max(len(n) for n in values.arena.names)
    sys.stdout.write("".join([f"{name:<{width}}  {v}\n" for name, v in values.items()]))


def _print_stats(stats: SolveStats) -> None:
    print(
        f"# stats counting={SolveStats.COUNTING_CONVENTION} "
        f"k_e={stats.outer_iterations} k_i={stats.inner_iterations} "
        f"sweeps={stats.sweeps} wall_ms={stats.wall_ms}"
    )


def cmd_solve(args) -> int:
    arena = _load(args.file)
    _, res = _solve(arena, args.accel, bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            write_trace(fh, res.trace.raw)
    values = _input_values(arena, res)
    if args.json:
        sys.stdout.buffer.write(gamefile.write_results_json(values, res.stats))
    else:
        _print_values(values)
        if args.stats:
            _print_stats(res.stats)
    return 0


TRACE_BLOCK_VALUES = 1 << 16


def write_trace(fh, raw: np.ndarray) -> None:
    """The trace as TSV, row k holding x_k, infinities as -inf and +inf.

    Rows are formatted a block at a time from the raw int64 values; the
    sentinels' digits are then replaced, the negative one first since its
    digits contain the positive one's.  Values are clipped to the
    sentinels first, and a finite value lies strictly inside +-2**61, so
    its digits never spell a sentinel: each value reads as ``to_json``
    writes it, an int or ``-inf``/``+inf`` at or beyond a sentinel.  A
    block holds about ``TRACE_BLOCK_VALUES`` values.
    """
    pos, neg = str(int(eng.POS)), str(int(eng.NEG))
    rows = max(1, TRACE_BLOCK_VALUES // raw.shape[1])
    for i in range(0, len(raw), rows):
        block = np.clip(raw[i : i + rows], eng.NEG, eng.POS).tolist()
        text = "".join(["\t".join(map(str, row)) + "\n" for row in block])
        fh.write(text.replace(neg, "-inf").replace(pos, "+inf"))


def _strategies(arena: Arena, player: str):
    """Solve ``arena`` and extract the optimal strategies of ``player``
    ('max', 'min' or 'both').  Returns the solved game (the normalized
    arena for reachability), its values and the strategies by label, in
    the order ``qg strategy`` prints them: 'max', then 'min', or
    'min_sigma1' and 'min_sigma2' when a value is -inf, and for
    reachability 'min_moore', the rewind Moore machine."""
    mcr = arena.objective is Objective.MCR
    game, res = _solve(arena, trace=mcr and player != "max")  # Min's strategies alone read the iterates
    tools = {}
    if player in ("max", "both"):
        extract_max = extract_max_memoryless if mcr else extract_max_tp
        tools["max"] = extract_max(game, res.values)
    if player in ("min", "both") and mcr:
        sigma1, sigma2, sigma_star = extract_min_mcr(game, res)
        if all(v is not MINUS_INF for v in res.values):
            tools["min"] = make_switching(sigma1, sigma2, res.values, game)
        else:
            tools["min_sigma1"], tools["min_sigma2"] = sigma1, sigma2
        tools["min_moore"] = sigma_star
    elif player in ("min", "both"):
        gy, gy_res = _solve(build_game_Y(arena, res.values), trace=True)
        tools["min"] = project_tp_min(arena, extract_min_sigma1(gy, gy_res))
    return game, res.values, tools


def cmd_strategy(args) -> int:
    game, _, tools = _strategies(_load(args.file), args.player)
    moore = tools.get("min_moore")
    if moore is not None and moore.size > DECISION_TABLE_CAP:
        sys.stderr.write(
            f"note: min_moore: the Moore machine has {moore.size} states, above "
            f"the cap of {DECISION_TABLE_CAP}; its decision table is left out\n"
        )
    for label, tool in tools.items():
        sys.stdout.write(f"--- {label} ---\n")
        sys.stdout.buffer.write(strategy_json(tool, game))
    return 0


def random_arena(rng: random.Random, vmax: int, wmax: int, objective: Objective) -> Arena:
    """Seeded random arena with out-degree <= 3 (<= 2 for TP so that the
    reference enumeration stays small)."""
    n = rng.randint(1, vmax)
    names = [f"v{i}" for i in range(n)]
    owners = [rng.choice([Player.MAX, Player.MIN]) for _ in range(n)]
    max_deg = 2 if objective is Objective.TP else 3
    edges = []
    for v in range(n):
        deg = rng.randint(1, min(max_deg, n))
        dests = rng.sample(range(n), deg)
        for d in dests:
            edges.append((v, d, rng.randint(-wmax, wmax)))
    if objective is Objective.MCR:
        targets = rng.sample(range(n), rng.randint(1, n))
    else:
        targets = []
    return make_arena(names, owners, edges, targets, objective)


def _check_one(arena: Arena) -> bool:
    """Solver agrees with the brute-force reference on this arena."""
    game, res = _solve(arena)
    want = mcr_oracle(game) if game.objective is Objective.MCR else tp_oracle(game)
    return list(res.values) == list(want)


def _minimize(arena: Arena, still_fails=lambda sub: not _check_one(sub)) -> Arena:
    """Greedy vertex deletion preserving validity and the failure."""
    current = arena
    improved = True
    while improved and current.n > 1:
        improved = False
        for drop in range(current.n):
            keep = [v for v in range(current.n) if v != drop]
            sub = _induced(current, keep)
            if sub is None:
                continue
            try:
                if still_fails(sub):
                    current = sub
                    improved = True
                    break
            except Exception:
                continue
    return current


def _induced(arena: Arena, keep: List[int]) -> Optional[Arena]:
    alive = set(keep)
    # Iteratively drop vertices that lose all successors.
    while True:
        dead = [
            v
            for v in alive
            if not any(d in alive for d, _ in arena.successors(v))
        ]
        if not dead:
            break
        alive -= set(dead)
    if not alive:
        return None
    order = sorted(alive)
    remap = {v: i for i, v in enumerate(order)}
    targets = [remap[v] for v in arena.targets if v in alive]
    if arena.objective is Objective.MCR and not targets:
        return None
    try:
        return make_arena(
            [arena.names[v] for v in order],
            [arena.owners[v] for v in order],
            [
                (remap[s], remap[d], w)
                for s, d, w in arena.edges
                if s in alive and d in alive
            ],
            targets,
            arena.objective,
        )
    except ArenaError:
        return None


# The keys of ``qg check --random``, their defaults and their least values.
RANDOM_DEFAULTS = {"seed": 0, "count": 100, "vmax": 5, "wmax": 3}
RANDOM_LEAST = {"count": 1, "vmax": 1, "wmax": 0}


def _random_entry(text: str) -> Tuple[str, int]:
    """One ``key=value`` entry of ``qg check --random``: a key of
    ``RANDOM_DEFAULTS`` and an integer, at least its ``RANDOM_LEAST``."""
    key, _, value = text.partition("=")
    try:
        number = int(value) if key in RANDOM_DEFAULTS else None
    except ValueError:
        number = None
    if number is None:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not key=value with an integer value and a key of {', '.join(RANDOM_DEFAULTS)}"
        )
    if number < RANDOM_LEAST.get(key, number):
        raise argparse.ArgumentTypeError(f"{key} must be at least {RANDOM_LEAST[key]}, not {number}")
    return key, number


def cmd_check(args) -> int:
    arenas = [_load(args.file)] if args.file else []
    if args.random:
        params = {**RANDOM_DEFAULTS, **dict(args.random)}
        rng = random.Random(params["seed"])
        for i in range(params["count"]):
            objective = Objective.MCR if i % 2 == 0 else Objective.TP
            arenas.append(random_arena(rng, params["vmax"], params["wmax"], objective))
    for i, arena in enumerate(arenas):
        if not _check_one(arena):
            small = _minimize(arena)
            sys.stderr.write(f"mismatch on instance {i}; minimized counterexample:\n")
            sys.stderr.write(gamefile.serialize(small).decode())
            return 1
    print(f"ok: {len(arenas)} instance(s) cross-validated")
    return 0


def cmd_gen(args) -> int:
    spec = gamefile.FamilySpec(
        args.family,
        W=args.W,
        n=args.n,
        objective=Objective(args.objective) if args.objective else None,
    )
    _emit(gamefile.serialize(gamefile.generate(spec)), args.output)
    return 0


def _values_hash(values: ValueVector) -> str:
    text = ";".join(f"{n}={to_json(v)}" for n, v in values.items())
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def cmd_bench(args) -> int:
    rows = ["family,W,n,accel,k_e,k_i,wall_ms,values_hash"]
    for W in [int(x) for x in args.W_list.split(",")]:
        for n in [int(x) for x in args.n_list.split(",")]:
            spec = gamefile.FamilySpec(args.family, W=W, n=n)
            arena = gamefile.generate(spec)
            _, res = _solve(arena, args.accel)
            stats, values = res.stats, _input_values(arena, res)
            rows.append(
                f"{args.family},{W},{n},{args.accel},{stats.outer_iterations},"
                f"{stats.inner_iterations},{stats.wall_ms},{_values_hash(values)}"
            )
    _emit(("\n".join(rows) + "\n").encode(), args.csv)
    return 0


def cmd_play(args) -> int:
    arena = _load(args.file)
    human = Player.MAX if args.side == "max" else Player.MIN
    side = "min" if human is Player.MAX else "max"  # the tool's
    game, values, tools = _strategies(arena, side)
    tool = tools[side] if side in tools else tools["min_sigma1"]
    machine = _as_moore(tool)
    try:
        v = game.index(args.start) if args.start else 0
    except KeyError:
        raise ValueError(f"no vertex named {args.start!r}") from None
    state = machine.update(machine.initial, v)
    running = 0
    print(f"playing as {human.value}; tool answers optimally. values: ")
    _print_values(values)
    for _ in range(args.max_rounds):
        print(
            f"at {game.names[v]} (owner {game.owners[v].value}), "
            f"running sum {running}, value to go {to_json(values[v])}"
        )
        if game.objective is Objective.MCR and game.is_target(v):
            print(f"target reached; payoff {running}")
            return 0
        succs = [game.names[d] for d, _ in game.successors(v)]
        if game.owners[v] is human:
            try:
                choice = input(f"your move {succs}: ").strip()
            except EOFError:
                raise ValueError("input closed before the game ended") from None
            if choice not in succs:
                print("illegal move")
                continue
            nxt = game.index(choice)
        else:
            nxt = _move(game, machine, state, v)
            print(f"tool plays {game.names[nxt]}")
        running += game.weight(v, nxt)
        v = nxt
        state = machine.update(state, v)
    print("round budget exhausted")
    return 0


def cmd_convert(args) -> int:
    arena = _load(args.file)
    annot = _input_values(arena, _solve(arena)[1]) if args.annotate else None
    _emit(gamefile.export_dot(arena, annot), args.output)
    return 0


def _emit(blob: bytes, path: Optional[str]) -> None:
    """``blob`` into the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


def _load(path: str) -> Arena:
    with open(path, "rb") as fh:
        return gamefile.parse(fh.read())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qg`` parser, built once per process: ``parse_args`` leaves it
    as it was, and building its seven subparsers costs about 1.7 ms."""
    parser = argparse.ArgumentParser(prog="qg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game file")
    p.add_argument("file")
    p.add_argument("--accel", choices=list(ORACLES), default="none")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--trace", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("strategy", help="solve and emit optimal strategies")
    p.add_argument("file")
    p.add_argument("--player", choices=["max", "min", "both"], default="both")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("check", help="cross-validate against the reference solver")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?")
    source.add_argument("--random", nargs="+", metavar="key=value", type=_random_entry)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a generated example arena")
    p.add_argument("family", choices=list(gamefile.FAMILIES))
    p.add_argument("--W", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--objective", choices=["mcr", "tp"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="iteration-count benchmark, CSV output")
    p.add_argument("--family", default="layered")
    p.add_argument("--W-list", default="50")
    p.add_argument("--n-list", default="100")
    p.add_argument("--accel", choices=list(ORACLES), default="none")
    p.add_argument("--csv", metavar="FILE")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("play", help="step a game interactively against the solver")
    p.add_argument("file")
    p.add_argument("--as", dest="side", choices=["max", "min"], default="min")
    p.add_argument("--start")
    p.add_argument("--max-rounds", type=int, default=1000)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("convert", help="export to DOT")
    p.add_argument("file")
    p.add_argument("--annotate", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArenaError, gamefile.GameSyntaxError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
