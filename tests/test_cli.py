import json
import subprocess
import sys

import pytest

from quantgames.cli import run

QG = [sys.executable, "-m", "quantgames.cli"]


def _run(args, input_text=None):
    return subprocess.run(
        QG + args, capture_output=True, text=True, input=input_text, timeout=300
    )


def _gen(tmp_path, family, **flags):
    path = tmp_path / f"{family}.qg"
    args = ["gen", family, "-o", str(path)]
    for key, val in flags.items():
        args += [f"--{key}", str(val)]
    assert run(args) == 0
    return str(path)


def test_solve_fig2a_table(tmp_path):
    path = _gen(tmp_path, "fig2a", W=50)
    out = _run(["solve", path])
    assert out.returncode == 0
    assert "v1  -50" in out.stdout
    assert "v2  -50" in out.stdout
    assert "v3  0" in out.stdout


def test_solve_json_and_determinism(tmp_path):
    path = _gen(tmp_path, "lsp_fig5")
    a = _run(["solve", path, "--json"])
    b = _run(["solve", path, "--json"])
    doc = json.loads(a.stdout)
    assert doc["values"] == {"v1": 2, "v2": 3, "v3": 1, "v4": "+inf", "t": 0}
    # byte-identical output needs wall-clock scrubbed
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da["stats"].pop("wall_ms"), db["stats"].pop("wall_ms")
    assert da == db


def test_solve_accel_modes_agree(tmp_path):
    path = _gen(tmp_path, "layered", W=9, n=6)
    plain = _run(["solve", path]).stdout
    scc = _run(["solve", path, "--accel", "scc"]).stdout
    paths = _run(["solve", path, "--accel", "scc+paths"]).stdout
    assert plain == scc == paths


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("objective tp\nedge a a 0\n")
    out = _run(["solve", str(bad)])
    assert out.returncode == 2
    assert "error:" in out.stderr


def _assert_error_exit_2(out):
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def test_missing_input_file_exit_2(tmp_path):
    _assert_error_exit_2(_run(["solve", str(tmp_path / "missing.qg")]))


@pytest.mark.parametrize("flags", [
    ["solve", "GAME", "--trace", "OUT"],
    ["gen", "fig2a", "-o", "OUT"],
    ["bench", "--W-list", "1", "--n-list", "1", "--csv", "OUT"],
], ids=["trace", "output", "csv"])
def test_unwritable_output_exit_2(tmp_path, flags):
    game = _gen(tmp_path, "fig2a", W=3)
    out_path = str(tmp_path / "no-such-dir" / "out.txt")
    args = [game if f == "GAME" else out_path if f == "OUT" else f for f in flags]
    _assert_error_exit_2(_run(args))


def test_play_unknown_start_exit_2(tmp_path):
    path = _gen(tmp_path, "fig2a", W=3)
    out = _run(["play", path, "--start", "nosuch"], input_text="")
    _assert_error_exit_2(out)
    assert "nosuch" in out.stderr


def test_play_stdin_closed_exit_2(tmp_path):
    path = _gen(tmp_path, "fig2a", W=3)
    out = subprocess.run(
        QG + ["play", path, "--as", "max"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=300,
    )
    _assert_error_exit_2(out)
    assert "input closed before the game ended" in out.stderr


def test_check_random_ok():
    out = _run(["check", "--random", "seed=7", "count=40", "vmax=4", "wmax=3"])
    assert out.returncode == 0
    assert "ok: 40" in out.stdout


def test_check_file(tmp_path):
    path = _gen(tmp_path, "fig1a")
    out = _run(["check", path])
    assert out.returncode == 0


def test_gen_deterministic(tmp_path):
    a = _run(["gen", "layered", "--W", "5", "--n", "3"]).stdout
    b = _run(["gen", "layered", "--W", "5", "--n", "3"]).stdout
    assert a == b
    assert "objective tp" in a


def test_bench_csv(tmp_path):
    out = _run(
        ["bench", "--family", "layered", "--W-list", "5", "--n-list", "4,6", "--accel", "scc+paths"]
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "family,W,n,accel,k_e,k_i,wall_ms,values_hash"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[:4] == ["layered", "5", "4", "scc+paths"]
    assert int(row[4]) == 4 * 4 + 2


def test_trace_dump(tmp_path):
    path = _gen(tmp_path, "fig2a", W=3)
    trace = tmp_path / "trace.tsv"
    out = _run(["solve", path, "--trace", str(trace)])
    assert out.returncode == 0
    # x_0 .. x_8: the W-step descent of v1 and v2, then the confirming sweep
    assert trace.read_text() == (
        "+inf\t+inf\t0\n"
        "+inf\t0\t0\n"
        "-1\t0\t0\n"
        "-1\t-1\t0\n"
        "-2\t-1\t0\n"
        "-2\t-2\t0\n"
        "-3\t-2\t0\n"
        "-3\t-3\t0\n"
        "-3\t-3\t0\n"
    )


def test_convert_dot(tmp_path):
    path = _gen(tmp_path, "fig2a", W=50)
    out = _run(["convert", path])
    assert out.returncode == 0
    assert out.stdout.startswith("digraph")
    assert "shape=box" in out.stdout


def test_strategy_mcr(tmp_path):
    path = _gen(tmp_path, "fig2a", W=4)
    out = _run(["strategy", path])
    assert out.returncode == 0
    assert '"kind": "switching"' in out.stdout
    assert '"v1": "v3"' in out.stdout


def test_strategy_tp(tmp_path):
    path = _gen(tmp_path, "fig1a")
    out = _run(["strategy", path])
    assert out.returncode == 0
    assert '"v4": "v5"' in out.stdout  # Max sticks to the friendlier cycle
    assert '"v2": "v3"' in out.stdout


def test_play_scripted(tmp_path):
    path = _gen(tmp_path, "fig2a", W=3)
    out = _run(["play", path, "--as", "max", "--start", "v1"], input_text="v3\n")
    assert out.returncode == 0
    assert "target reached; payoff -3" in out.stdout


# Min's value -inf at a, so the tool plays Min's first strategy, sigma1.
MINUS_INF_MCR = """objective mcr
vertex a min
vertex b max
vertex t max target
edge a a -1
edge a t 0
edge b a 2
edge b t 1
edge t t 0
"""

# (generated game or None, play flags, moves typed, stdout after the
# first line), recorded before the strategy and play commands shared
# their strategy extraction.
PLAY_TRANSCRIPTS = {
    "mcr-as-min": (["fig2a", "--W", "3"], ["--as", "min", "--start", "v2"], "v9\nv1\n", """\
v1  -3
v2  -3
v3  0
at v2 (owner min), running sum 0, value to go -3
your move ['v1', 'v3']: illegal move
at v2 (owner min), running sum 0, value to go -3
your move ['v1', 'v3']: at v1 (owner max), running sum 0, value to go -3
tool plays v3
at v3 (owner max), running sum -3, value to go 0
target reached; payoff -3
"""),
    "tp-as-min": (["fig1a"], ["--as", "min", "--start", "v2", "--max-rounds", "6"],
                  "v1\nv3\nv5\nv4\n", """\
v1  2
v2  0
v3  1
v4  -1
v5  0
at v2 (owner min), running sum 0, value to go 0
your move ['v1', 'v3']: at v1 (owner max), running sum -1, value to go 2
tool plays v2
at v2 (owner min), running sum 1, value to go 0
your move ['v1', 'v3']: at v3 (owner min), running sum 0, value to go 1
your move ['v4']: illegal move
at v3 (owner min), running sum 0, value to go 1
your move ['v4']: at v4 (owner max), running sum 2, value to go -1
tool plays v5
round budget exhausted
"""),
    "mcr-minus-inf-as-max": (None, ["--as", "max", "--start", "b", "--max-rounds", "5"],
                             "a\n", """\
a  -inf
b  1
t  0
at b (owner max), running sum 0, value to go 1
your move ['a', 't']: at a (owner min), running sum 2, value to go -inf
tool plays a
at a (owner min), running sum 1, value to go -inf
tool plays a
at a (owner min), running sum 0, value to go -inf
tool plays a
at a (owner min), running sum -1, value to go -inf
tool plays a
round budget exhausted
"""),
}


@pytest.mark.parametrize("case", list(PLAY_TRANSCRIPTS))
def test_play_transcripts(tmp_path, case):
    """The whole stdout of a scripted game, after its first line (which
    ends in a space): the values, each move and the outcome."""
    gen, flags, moves, want = PLAY_TRANSCRIPTS[case]
    path = tmp_path / "game.qg"
    if gen is None:
        path.write_text(MINUS_INF_MCR)
    else:
        assert run(["gen", *gen, "-o", str(path)]) == 0
    out = _run(["play", str(path), *flags], input_text=moves)
    head = f"playing as {flags[1]}; tool answers optimally. values: \n"
    assert (out.returncode, out.stdout, out.stderr) == (0, head + want, "")


def test_vertex_cap_env(tmp_path, monkeypatch):
    # the child inherits this process's environment (PYTHONPATH included);
    # only QG_MAX_VERTICES differs between the two runs
    path = _gen(tmp_path, "layered", W=2, n=5)  # 16 vertices
    monkeypatch.delenv("QG_MAX_VERTICES", raising=False)
    assert _run(["solve", path]).returncode == 0
    monkeypatch.setenv("QG_MAX_VERTICES", "4")
    out = _run(["solve", path])
    assert out.returncode == 2
    assert "exceed the cap 4" in out.stderr


def test_vertex_cap_counts_the_fresh_target(tmp_path, monkeypatch):
    # An MCR file whose target has a move of its own needs a fresh target,
    # so at the cap it is refused before the solve; a normalized one
    # (its one target with only a 0 self loop) solves at the cap.
    header = "objective mcr\nvertex v1 max\nvertex v2 min\nvertex v3 max target\n"
    edges = "edge v1 v2 -1\nedge v1 v3 -3\nedge v2 v1 0\nedge v2 v3 0\nedge v3 v3 0\n"
    normalized = tmp_path / "normalized.qg"
    normalized.write_text(header + edges)
    unnormalized = tmp_path / "unnormalized.qg"
    unnormalized.write_text(header + edges + "edge v3 v1 2\n")
    monkeypatch.setenv("QG_MAX_VERTICES", "3")
    out = _run(["solve", str(unnormalized)])
    assert out.returncode == 2
    assert "exceed the cap 3" in out.stderr
    assert "may have at most 2 vertices" in out.stderr
    out = _run(["solve", str(normalized)])
    assert out.returncode == 0
    assert "v1  -3" in out.stdout
    monkeypatch.setenv("QG_MAX_VERTICES", "4")
    assert _run(["solve", str(unnormalized)]).returncode == 0


def test_trace_rejected_for_tp(tmp_path):
    path = _gen(tmp_path, "fig1a")
    out = _run(["solve", path, "--trace", str(tmp_path / "t.tsv")])
    assert out.returncode == 2


@pytest.mark.parametrize("accel", ["scc", "scc+paths"])
def test_trace_refused_with_accel(tmp_path, accel):
    path = _gen(tmp_path, "fig2a", W=3)
    trace = tmp_path / "t.tsv"
    out = _run(["solve", path, "--accel", accel, "--stats", "--trace", str(trace)])
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "--accel" in out.stderr
    assert out.stdout == "" and not trace.exists()


def test_bench_published_cell(tmp_path):
    out = _run(["bench", "--family", "layered", "--W-list", "50", "--n-list", "100"])
    row = out.stdout.strip().splitlines()[1].split(",")
    assert int(row[4]) == 151
    assert int(row[5]) == 12603


def test_minimizer_shrinks_under_predicate():
    import random

    from quantgames.arena import Objective
    from quantgames.cli import _minimize, random_arena

    rng = random.Random(5)
    arena = random_arena(rng, 6, 3, Objective.MCR)

    def has_negative_edge(sub):
        return any(w < 0 for _, _, w in sub.edges)

    if not has_negative_edge(arena):
        arena = random_arena(rng, 6, 3, Objective.MCR)
    small = _minimize(arena, still_fails=has_negative_edge)
    assert small.n <= arena.n
    assert has_negative_edge(small)
    # no single further deletion keeps the failure alive
    from quantgames.cli import _induced

    for drop in range(small.n):
        sub = _induced(small, [v for v in range(small.n) if v != drop])
        assert sub is None or not has_negative_edge(sub)


def ext_of_raw(raw):
    """One raw int64 value as an extended value: the sentinels and
    anything beyond them are the infinities."""
    from quantgames._engine import NEG, POS
    from quantgames.extvalue import MINUS_INF, PLUS_INF

    if raw >= POS:
        return PLUS_INF
    if raw <= NEG:
        return MINUS_INF
    return int(raw)


def _trace_by_element(raw):
    from quantgames.extvalue import to_json

    return "".join(
        "\t".join(str(to_json(ext_of_raw(r))) for r in row) + "\n" for row in raw.tolist()
    )


def test_trace_writer_matches_the_per_element_formula(monkeypatch):
    import io
    import random

    import numpy as np

    from quantgames import _engine as eng
    from quantgames import cli
    from quantgames.gamefile import parse
    from quantgames.mcr import solve_mcr

    pos, neg, snap = int(eng.POS), int(eng.NEG), int(eng.SNAP)
    rng = random.Random(4)
    boundary = [pos, neg, pos + 3, neg - 3, snap - 1, -(snap - 1), 0, -1, 4611686018427387, -461168601842738790]
    raw = np.array(
        [[rng.choice(boundary + [rng.randint(-snap + 1, snap - 1)]) for _ in range(37)] for _ in range(50)],
        dtype=np.int64,
    )
    # Min may loop on c's -1 edge as long as it likes before leaving, so c
    # is worth -inf; b loops forever, so it is worth +inf.
    arena = parse(
        "objective mcr\nvertex a max\nvertex b max\nvertex c min\nvertex t max target\n"
        "edge a c 2\nedge a t 5\nedge b b 1\nedge c c -1\nedge c t 0\nedge t t 0\n"
    )
    solved = solve_mcr(arena, with_trace=True).trace.raw
    assert (solved == pos).any() and (solved == neg).any()
    for matrix in (raw, solved, raw[:0]):
        for block in (1 << 16, 1, 100):
            monkeypatch.setattr(cli, "TRACE_BLOCK_VALUES", block)
            fh = io.StringIO()
            cli.write_trace(fh, matrix)
            assert fh.getvalue() == _trace_by_element(matrix)


def test_value_listing_matches_the_per_line_form(capsys):
    from quantgames import cli
    from quantgames.arena import ValueVector, make_arena, Player
    from quantgames.extvalue import MINUS_INF, PLUS_INF, to_json

    names = ["a", "long_name", "mid", "t", "x" * 12]
    arena = make_arena(names, [Player.MAX] * 5, [(v, v, 0) for v in range(5)])
    values = ValueVector(arena, [PLUS_INF, -7, MINUS_INF, 0, 10**15])
    width = max(map(len, names))
    for name, v in values.items():
        print(f"{name:<{width}}  {to_json(v)}")
    want = capsys.readouterr().out
    cli._print_values(values)
    assert capsys.readouterr().out == want
    assert "+inf\n" in want and "-inf\n" in want


def test_strategy_notes_a_dropped_decision_table(tmp_path, capsys):
    # fig2a's rewind machine has 2W + 4 states; the table is written up
    # to 4,096 states.
    for W, states in ((2000, 4004), (2100, 4204)):
        path = _gen(tmp_path, "fig2a", W=W)
        capsys.readouterr()
        assert run(["strategy", path, "--player", "min"]) == 0
        out, err = capsys.readouterr()
        moore = json.loads(out.split("--- min_moore ---\n")[1])
        assert moore["memory_size"] == states
        if states <= 4096:
            assert "decision" in moore and err == ""
        else:
            assert "decision" not in moore
            assert err == (
                f"note: min_moore: the Moore machine has {states} states, above the cap "
                "of 4096; its decision table is left out\n"
            )


@pytest.mark.parametrize("args, message", [
    ([], "one of the arguments file --random is required"),
    (["FILE", "--random", "seed=1"], "argument --random: not allowed with argument file"),
    (["--random", "seeed=3"], "argument --random: 'seeed=3' is not key=value"),
    (["--random", "count"], "argument --random: 'count' is not key=value"),
    (["--random", "seed=7", "count=x"], "argument --random: 'count=x' is not key=value"),
    (["--random", "count=-4"], "argument --random: count must be at least 1, not -4"),
    (["--random", "count=0"], "argument --random: count must be at least 1, not 0"),
    (["--random", "vmax=0"], "argument --random: vmax must be at least 1, not 0"),
    (["--random", "wmax=-1"], "argument --random: wmax must be at least 0, not -1"),
])
def test_check_refuses_argument_faults(tmp_path, capsys, args, message):
    path = _gen(tmp_path, "fig1a")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["check"] + [path if a == "FILE" else a for a in args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qg check ")
    assert f"qg check: error: {message}" in err
    if "key=value" in message:
        assert err.endswith("a key of seed, count, vmax, wmax\n")


def test_tp_min_strategy_builds_no_rewind_machine(tmp_path, capsys, monkeypatch):
    # Min's total-payoff strategy is sigma1 of the stop-request game alone:
    # no attractor, so no rewind machine, is built for it.
    from quantgames import strategies

    path = _gen(tmp_path, "fig1a")
    capsys.readouterr()
    assert run(["strategy", path, "--player", "min"]) == 0
    want = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("compute_attractor was called")

    monkeypatch.setattr(strategies, "compute_attractor", refuse)
    assert run(["strategy", path, "--player", "min"]) == 0
    assert capsys.readouterr().out == want


def test_only_min_strategies_trace_the_reachability_solve(tmp_path, capsys, monkeypatch):
    # Max's strategy reads the values alone, so it is extracted from an
    # untraced solve; Min's read the iterates.
    from quantgames import cli
    from quantgames.mcr import solve_mcr

    path = _gen(tmp_path, "fig2a", W=3)
    traced = []

    def recording(game, with_trace=False):
        traced.append(with_trace)
        return solve_mcr(game, with_trace=with_trace)

    monkeypatch.setattr(cli, "solve_mcr", recording)
    for player in ("max", "min", "both"):
        assert run(["strategy", path, "--player", player]) == 0
    assert traced == [False, True, True]
