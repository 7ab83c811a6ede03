"""The front end (parse, validate, normalize, compile) keeps its errors.

Every malformed game file and hand-built arena below raises the exception
type, message, ``line``/``col`` and warnings recorded from the pure-Python
front end that the numpy checks replaced.  Where an input has several
faults, the one raised is the one the old loop met first.
"""

import warnings

import pytest

from quantgames import arena as arena_mod
from quantgames import cli
from quantgames.accel import solve_mcr_accelerated, solve_tp_accelerated
from quantgames.arena import (
    Arena,
    CapExceededError,
    DeadlockVertexError,
    Objective,
    Player,
    WeightOverflowError,
    normalize_target,
    validate,
)
from quantgames.gamefile import parse
from quantgames.mcr import mp_sign, solve_mcr
from quantgames.tp import solve_tp

MAX, MIN = Player.MAX, Player.MIN
MCR, TP = Objective.MCR, Objective.TP

# name -> game-file text
FILES = {
    "first-not-objective": "vertex a max\n",
    "edge-before-objective": "  # lead\n\n   edge a b 1\nobjective tp\n",
    "bad-objective": "objective nope\n",
    "objective-arity": "objective tp mcr\n",
    "second-objective": "objective tp\n\tobjective tp\n",
    "empty-file": "",
    "only-comments": "# a\n   # b\n",
    "vertex-short": "objective tp\n  vertex a\n",
    "vertex-long": "objective tp\nvertex a max target x\n",
    "bad-owner": "objective tp\nvertex a   maxi\n",
    "bad-target-word": "objective tp\nvertex a max\ttargte\n",
    "edge-arity": "objective tp\nvertex a max\nedge a a\n",
    "unknown-directive": "objective tp\nvertex a max\nnode a\n",
    "non-integer-weight": "objective tp\nvertex a max\nedge a a 1.5\n",
    "weight-repeats-a-name": "objective tp\nvertex a max\nedge a a a\n",
    "tabs": "objective tp\nvertex a max\n\tedge\ta \ta\t x\n",
    "crlf": "objective tp\r\nvertex a max\r\nedge  a a w\r\n",
    "comment-after-tokens": "objective tp # c\nvertex a max # x y\nedge a a zz # 5\n",
    "comment-glued": "objective tp#c\nvertex a max#\nedge a a 0#x\nedge a a q#\n",
    "undeclared-dst": "objective tp\nvertex a max\nedge a b 1\n",
    "undeclared-src": "objective tp\nvertex a max\nedge b a 1\n",
    "duplicate-vertex": "objective tp\nvertex a max\nvertex a min\nedge a a 0\n",
    "parallel-edges": (
        "objective tp\nvertex a max\nvertex b min\n"
        "edge a b 1\nedge a b 5\nedge b a 1\nedge b a 5\nedge b b 0\n"
    ),
    "weight-1e30": "objective tp\nvertex a max\nedge a a 1000000000000000000000000000000\n",
    "weight-min-int64": "objective tp\nvertex a max\nedge a a -9223372036854775808\n",
    "weight-over-cap": "objective tp\nvertex a max\nedge a a -1000000001\n",
    "weight-underscore": "objective tp\nvertex a max\nedge a a 1_000\n",
    "bad-name": "objective tp\nvertex a-b max\nedge a-b a-b 0\n",
    "deadlock": "objective tp\nvertex a max\nvertex b min\nedge a b 0\n",
    "mcr-no-target": "objective mcr\nvertex a max\nedge a a 0\n",
    "ok-comments": "objective mcr  # x\nvertex a min target # t\nedge a a 0 # e\n",
}

# name -> Arena constructor arguments
ARENAS = {
    "no-vertices": ((), (), (), frozenset(), TP),
    "owner-mismatch": (("a", "b"), (MAX,), ((0, 1, 0), (1, 0, 0)), frozenset(), TP),
    "name-space": (("a b",), (MAX,), ((0, 0, 0),), frozenset(), TP),
    "name-empty": (("a", ""), (MAX, MIN), ((0, 1, 0), (1, 0, 0)), frozenset(), TP),
    "name-newline": (("a\nb",), (MAX,), ((0, 0, 0),), frozenset(), TP),
    "name-trailing-newline": (("a\n", "b"), (MAX, MIN), ((0, 1, 0), (1, 0, 0)), frozenset(), TP),
    "name-duplicate": (("a", "b", "a"), (MAX, MIN, MAX), ((0, 1, 0), (1, 2, 0), (2, 0, 0)), frozenset(), TP),
    "weight-1e30": (("a",), (MAX,), ((0, 0, 10**30),), frozenset(), TP),
    "weight-min-int64": (("a",), (MAX,), ((0, 0, -(2**63)),), frozenset(), TP),
    "weight-cap-plus-one": (("a",), (MAX,), ((0, 0, 10**9 + 1),), frozenset(), TP),
    "weight-minus-cap-minus-one": (("a",), (MAX,), ((0, 0, -(10**9) - 1),), frozenset(), TP),
    "dst-negative": (("a", "b"), (MAX, MIN), ((0, -1, 0), (1, 0, 0)), frozenset(), TP),
    "dst-too-large": (("a", "b"), (MAX, MIN), ((0, 2, 0), (1, 0, 0)), frozenset(), TP),
    "src-negative": (("a", "b"), (MAX, MIN), ((-1, 0, 0), (0, 1, 0), (1, 0, 0)), frozenset(), TP),
    "dst-beyond-int64": (("a",), (MAX,), ((0, 2**70, 0),), frozenset(), TP),
    "duplicate-edge": (("a",), (MAX,), ((0, 0, 0), (0, 0, 1)), frozenset(), TP),
    "deadlock": (("a", "b", "c"), (MAX, MIN, MAX), ((0, 1, 1), (2, 2, 0)), frozenset(), TP),
    "deadlock-no-edges": (("a",), (MAX,), (), frozenset(), TP),
    "target-too-large": (("a",), (MAX,), ((0, 0, 0),), frozenset({3}), MCR),
    "target-negative": (("a",), (MAX,), ((0, 0, 0),), frozenset({-1}), MCR),
    "mcr-no-target": (("a",), (MAX,), ((0, 0, 0),), frozenset(), MCR),
    # Two faults at once: the earlier check wins.
    "bad-name-and-duplicate-edge": (("a b",), (MAX,), ((0, 0, 0), (0, 0, 1)), frozenset(), TP),
    "duplicate-name-before-bad-name": (("a", "a", "c d"), (MAX, MIN, MAX), ((0, 1, 0), (1, 2, 0), (2, 0, 0)), frozenset(), TP),
    "range-before-later-overflow": (("a",), (MAX,), ((0, -1, 0), (0, 0, 10**30)), frozenset(), TP),
    "overflow-before-later-range": (("a",), (MAX,), ((0, 0, 10**30), (0, 7, 0)), frozenset(), TP),
    "range-and-weight-on-one-edge": (("a",), (MAX,), ((0, 5, 10**10),), frozenset(), TP),
    "duplicate-then-heavier-weight": (("a",), (MAX,), ((0, 0, 5), (0, 0, 10**10)), frozenset(), TP),
    "heavy-weight-then-duplicate": (("a",), (MAX,), ((0, 0, -(10**10)), (0, 0, 1)), frozenset(), TP),
    "duplicate-before-later-range": (("a",), (MAX,), ((0, 0, 1), (0, 0, 2), (0, 5, 1)), frozenset(), TP),
    "min-int64-before-duplicate": (("a",), (MAX,), ((0, 0, -(2**63)), (0, 0, 1)), frozenset(), TP),
    "deadlock-and-bad-target": (("a", "b"), (MAX, MIN), ((0, 0, 0),), frozenset({9}), MCR),
    "deadlock-and-no-target": (("a", "b"), (MAX, MIN), ((1, 1, 0),), frozenset(), MCR),
    "bad-name-and-deadlock": (("a", "b-"), (MAX, MIN), ((0, 0, 0),), frozenset(), TP),
}

_ATTRS = ("line", "col", "expected", "name", "edge", "vertex")


def outcome(fn):
    """What ``fn()`` did: the exception (type, message, attributes) or None,
    and every warning as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn()
            err = None
        except Exception as exc:  # the corpus records whatever is raised
            attrs = {a: getattr(exc, a) for a in _ATTRS if hasattr(exc, a)}
            err = (type(exc).__name__, str(exc), attrs)
    return err, [(w.category.__name__, str(w.message)) for w in caught]


def _validate_built(args):
    validate(Arena(*args))


# Recorded from the pure-Python front end.
EXPECTED_FILES = {
    'bad-name': (
        ('BadNameError', "bad vertex name 'a-b'", {'name': 'a-b'}),
        [],
    ),
    'bad-objective': (
        ('GameSyntaxError', 'line 1, column 1: expected objective mcr|tp', {'line': 1, 'col': 1, 'expected': 'objective mcr|tp'}),
        [],
    ),
    'bad-owner': (
        ('GameSyntaxError', 'line 2, column 12: expected min|max', {'line': 2, 'col': 12, 'expected': 'min|max'}),
        [],
    ),
    'bad-target-word': (
        ('GameSyntaxError', "line 2, column 14: expected 'target'", {'line': 2, 'col': 14, 'expected': "'target'"}),
        [],
    ),
    'comment-after-tokens': (
        ('GameSyntaxError', 'line 3, column 10: expected an integer weight', {'line': 3, 'col': 10, 'expected': 'an integer weight'}),
        [],
    ),
    'comment-glued': (
        ('GameSyntaxError', 'line 4, column 10: expected an integer weight', {'line': 4, 'col': 10, 'expected': 'an integer weight'}),
        [],
    ),
    'crlf': (
        ('GameSyntaxError', 'line 3, column 11: expected an integer weight', {'line': 3, 'col': 11, 'expected': 'an integer weight'}),
        [],
    ),
    'deadlock': (
        ('DeadlockVertexError', "vertex 'b' has no outgoing edge", {'vertex': 'b'}),
        [],
    ),
    'duplicate-vertex': (
        ('DuplicateVertexError', "line 3: vertex 'a' declared twice", {'line': 3, 'name': 'a'}),
        [],
    ),
    'edge-arity': (
        ('GameSyntaxError', 'line 3, column 1: expected edge <src> <dst> <integer>', {'line': 3, 'col': 1, 'expected': 'edge <src> <dst> <integer>'}),
        [],
    ),
    'edge-before-objective': (
        ('GameSyntaxError', "line 3, column 4: expected 'objective' as first directive", {'line': 3, 'col': 4, 'expected': "'objective' as first directive"}),
        [],
    ),
    'empty-file': (
        ('GameSyntaxError', "line 1, column 1: expected 'objective' as first directive", {'line': 1, 'col': 1, 'expected': "'objective' as first directive"}),
        [],
    ),
    'first-not-objective': (
        ('GameSyntaxError', "line 1, column 1: expected 'objective' as first directive", {'line': 1, 'col': 1, 'expected': "'objective' as first directive"}),
        [],
    ),
    'mcr-no-target': (
        ('EmptyTargetError', 'min-cost reachability arena needs a nonempty target set', {}),
        [],
    ),
    'non-integer-weight': (
        ('GameSyntaxError', 'line 3, column 10: expected an integer weight', {'line': 3, 'col': 10, 'expected': 'an integer weight'}),
        [],
    ),
    'objective-arity': (
        ('GameSyntaxError', 'line 1, column 1: expected objective mcr|tp', {'line': 1, 'col': 1, 'expected': 'objective mcr|tp'}),
        [],
    ),
    'ok-comments': (
        None,
        [],
    ),
    'only-comments': (
        ('GameSyntaxError', "line 1, column 1: expected 'objective' as first directive", {'line': 1, 'col': 1, 'expected': "'objective' as first directive"}),
        [],
    ),
    'parallel-edges': (
        None,
        [('UserWarning', 'line 5: merged parallel edge a->b (kept weight 5)'), ('UserWarning', 'line 7: merged parallel edge b->a (kept weight 1)')],
    ),
    'second-objective': (
        ('GameSyntaxError', 'line 2, column 2: expected a single objective line', {'line': 2, 'col': 2, 'expected': 'a single objective line'}),
        [],
    ),
    'tabs': (
        ('GameSyntaxError', 'line 3, column 13: expected an integer weight', {'line': 3, 'col': 13, 'expected': 'an integer weight'}),
        [],
    ),
    'undeclared-dst': (
        ('UndeclaredVertexError', "line 3: vertex 'b' used before declaration", {'line': 3, 'name': 'b'}),
        [],
    ),
    'undeclared-src': (
        ('UndeclaredVertexError', "line 3: vertex 'b' used before declaration", {'line': 3, 'name': 'b'}),
        [],
    ),
    'unknown-directive': (
        ('GameSyntaxError', 'line 3, column 1: expected vertex|edge directive', {'line': 3, 'col': 1, 'expected': 'vertex|edge directive'}),
        [],
    ),
    'vertex-long': (
        ('GameSyntaxError', 'line 2, column 1: expected vertex <name> min|max [target]', {'line': 2, 'col': 1, 'expected': 'vertex <name> min|max [target]'}),
        [],
    ),
    'vertex-short': (
        ('GameSyntaxError', 'line 2, column 3: expected vertex <name> min|max [target]', {'line': 2, 'col': 3, 'expected': 'vertex <name> min|max [target]'}),
        [],
    ),
    'weight-1e30': (
        ('WeightOverflowError', 'edge a->a weight 1000000000000000000000000000000 exceeds +/-1000000000', {'edge': ('a', 'a', 1000000000000000000000000000000)}),
        [],
    ),
    'weight-min-int64': (
        ('WeightOverflowError', 'edge a->a weight -9223372036854775808 exceeds +/-1000000000', {'edge': ('a', 'a', -9223372036854775808)}),
        [],
    ),
    'weight-over-cap': (
        ('WeightOverflowError', 'edge a->a weight -1000000001 exceeds +/-1000000000', {'edge': ('a', 'a', -1000000001)}),
        [],
    ),
    'weight-repeats-a-name': (
        ('GameSyntaxError', 'line 3, column 10: expected an integer weight', {'line': 3, 'col': 10, 'expected': 'an integer weight'}),
        [],
    ),
    'weight-underscore': (
        None,
        [],
    ),
}
EXPECTED_ARENAS = {
    'bad-name-and-deadlock': (
        ('BadNameError', "bad vertex name 'b-'", {'name': 'b-'}),
        [],
    ),
    'bad-name-and-duplicate-edge': (
        ('BadNameError', "bad vertex name 'a b'", {'name': 'a b'}),
        [],
    ),
    'deadlock': (
        ('DeadlockVertexError', "vertex 'b' has no outgoing edge", {'vertex': 'b'}),
        [],
    ),
    'deadlock-and-bad-target': (
        ('DeadlockVertexError', "vertex 'b' has no outgoing edge", {'vertex': 'b'}),
        [],
    ),
    'deadlock-and-no-target': (
        ('DeadlockVertexError', "vertex 'a' has no outgoing edge", {'vertex': 'a'}),
        [],
    ),
    'deadlock-no-edges': (
        ('DeadlockVertexError', "vertex 'a' has no outgoing edge", {'vertex': 'a'}),
        [],
    ),
    'dst-beyond-int64': (
        ('ArenaError', 'edge endpoint out of range: (0, 1180591620717411303424, 0)', {}),
        [],
    ),
    'dst-negative': (
        ('ArenaError', 'edge endpoint out of range: (0, -1, 0)', {}),
        [],
    ),
    'dst-too-large': (
        ('ArenaError', 'edge endpoint out of range: (0, 2, 0)', {}),
        [],
    ),
    'duplicate-before-later-range': (
        ('DuplicateEdgeError', 'duplicate edge a->a', {'edge': ('a', 'a')}),
        [],
    ),
    'duplicate-edge': (
        ('DuplicateEdgeError', 'duplicate edge a->a', {'edge': ('a', 'a')}),
        [],
    ),
    'duplicate-name-before-bad-name': (
        ('BadNameError', "bad vertex name 'a'", {'name': 'a'}),
        [],
    ),
    'duplicate-then-heavier-weight': (
        ('WeightOverflowError', 'edge a->a weight 10000000000 exceeds +/-1000000000', {'edge': ('a', 'a', 10000000000)}),
        [],
    ),
    'heavy-weight-then-duplicate': (
        ('WeightOverflowError', 'edge a->a weight -10000000000 exceeds +/-1000000000', {'edge': ('a', 'a', -10000000000)}),
        [],
    ),
    'mcr-no-target': (
        ('EmptyTargetError', 'min-cost reachability arena needs a nonempty target set', {}),
        [],
    ),
    'min-int64-before-duplicate': (
        ('WeightOverflowError', 'edge a->a weight -9223372036854775808 exceeds +/-1000000000', {'edge': ('a', 'a', -9223372036854775808)}),
        [],
    ),
    'name-duplicate': (
        ('BadNameError', "bad vertex name 'a'", {'name': 'a'}),
        [],
    ),
    'name-empty': (
        ('BadNameError', "bad vertex name ''", {'name': ''}),
        [],
    ),
    'name-newline': (
        ('BadNameError', "bad vertex name 'a\\nb'", {'name': 'a\nb'}),
        [],
    ),
    'name-space': (
        ('BadNameError', "bad vertex name 'a b'", {'name': 'a b'}),
        [],
    ),
    'name-trailing-newline': (
        ('BadNameError', "bad vertex name 'a\\n'", {'name': 'a\n'}),
        [],
    ),
    'no-vertices': (
        ('ArenaError', 'arena has no vertices', {}),
        [],
    ),
    'overflow-before-later-range': (
        ('WeightOverflowError', 'edge a->a weight 1000000000000000000000000000000 exceeds +/-1000000000', {'edge': ('a', 'a', 1000000000000000000000000000000)}),
        [],
    ),
    'owner-mismatch': (
        ('ArenaError', 'owner list length mismatch', {}),
        [],
    ),
    'range-and-weight-on-one-edge': (
        ('ArenaError', 'edge endpoint out of range: (0, 5, 10000000000)', {}),
        [],
    ),
    'range-before-later-overflow': (
        ('ArenaError', 'edge endpoint out of range: (0, -1, 0)', {}),
        [],
    ),
    'src-negative': (
        ('ArenaError', 'edge endpoint out of range: (-1, 0, 0)', {}),
        [],
    ),
    'target-negative': (
        ('ArenaError', 'target index -1 out of range', {}),
        [],
    ),
    'target-too-large': (
        ('ArenaError', 'target index 3 out of range', {}),
        [],
    ),
    'weight-1e30': (
        ('WeightOverflowError', 'edge a->a weight 1000000000000000000000000000000 exceeds +/-1000000000', {'edge': ('a', 'a', 1000000000000000000000000000000)}),
        [],
    ),
    'weight-cap-plus-one': (
        ('WeightOverflowError', 'edge a->a weight 1000000001 exceeds +/-1000000000', {'edge': ('a', 'a', 1000000001)}),
        [],
    ),
    'weight-min-int64': (
        ('WeightOverflowError', 'edge a->a weight -9223372036854775808 exceeds +/-1000000000', {'edge': ('a', 'a', -9223372036854775808)}),
        [],
    ),
    'weight-minus-cap-minus-one': (
        ('WeightOverflowError', 'edge a->a weight -1000000001 exceeds +/-1000000000', {'edge': ('a', 'a', -1000000001)}),
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(FILES))
def test_parse_errors_and_warnings_unchanged(case):
    assert outcome(lambda: parse(FILES[case])) == EXPECTED_FILES[case]


@pytest.mark.parametrize("case", sorted(ARENAS))
def test_validate_errors_unchanged(case):
    assert outcome(lambda: _validate_built(ARENAS[case])) == EXPECTED_ARENAS[case]


def test_source_out_of_range_is_a_validation_error():
    # The successor tuples are built lazily, so construction no longer
    # indexes by source and the range check names the edge.
    arena = Arena(("a", "b"), (MAX, MIN), ((0, 1, 0), (1, 0, 0), (2, 0, 0)), frozenset(), TP)
    with pytest.raises(arena_mod.ArenaError, match=r"out of range: \(2, 0, 0\)"):
        validate(arena)


def test_edge_array_rows_are_the_sorted_edges():
    arena = Arena(("a", "b"), (MAX, MIN), ((1, 0, -7), (0, 1, 5), (0, 0, 2)), frozenset(), TP)
    assert arena.edge_array.dtype == "int64"
    assert arena.edge_array.tolist() == [[0, 0, 2], [0, 1, 5], [1, 0, -7]]
    assert arena_mod.max_abs_weight(arena) == 7


def test_a_recorded_validation_does_not_hide_a_lower_cap(monkeypatch):
    monkeypatch.delenv("QG_MAX_VERTICES", raising=False)
    arena = Arena(("a", "b", "c"), (MAX, MIN, MAX), ((0, 1, 0), (1, 2, 0), (2, 0, 0)), frozenset(), TP)
    validate(arena)
    validate(arena)
    monkeypatch.setenv("QG_MAX_VERTICES", "2")
    with pytest.raises(CapExceededError, match="3 vertices exceed the cap 2"):
        validate(arena)
    monkeypatch.setenv("QG_MAX_VERTICES", "3")
    validate(arena)


# Each solver entry and the objective of the arena it takes.
ENTRIES = {
    "solve_mcr": (solve_mcr, MCR),
    "solve_mcr_accelerated": (solve_mcr_accelerated, MCR),
    "solve_tp": (solve_tp, TP),
    "solve_tp_accelerated": (solve_tp_accelerated, TP),
    "mp_sign": (mp_sign, TP),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("fault, error", [
    ("deadlock", DeadlockVertexError), ("overflow", WeightOverflowError),
])
def test_every_solver_validates_its_arena_first(entry, fault, error):
    # a -> t, b -> a and the target t's zero loop; the fault drops b's
    # edge, or weighs a's edge 10**30, past int64.
    solve, objective = ENTRIES[entry]
    edges = [(0, 2, 10**30 if fault == "overflow" else 1), (2, 2, 0)]
    if fault != "deadlock":
        edges.append((1, 0, 1))
    targets = frozenset((2,)) if objective is MCR else frozenset()
    arena = Arena(("a", "b", "t"), (MIN, MAX, MAX), tuple(edges), targets, objective)
    with pytest.raises(error):
        solve(arena)


MULTI_TARGET = (
    "objective mcr\nvertex a max target\nvertex b min\nvertex c max target\n"
    "edge a b 1\nedge b a -1\nedge b c 2\nedge c a 0\n"
)


def test_a_second_validation_reads_no_edges():
    reads = []

    class Counting(Arena):
        def __getattribute__(self, name):
            if name in ("edges", "edge_array"):
                reads.append(name)
            return super().__getattribute__(name)

    src = parse(MULTI_TARGET)
    counted = Counting(src.names, src.owners, src.edges, src.targets, src.objective)
    validate(counted)
    assert "edge_array" in reads
    reads.clear()
    validate(counted)
    assert reads == []


def test_solve_checks_a_clean_file_never_and_a_line_parsed_file_once(tmp_path, monkeypatch, capsys):
    checked = []
    check = arena_mod._check

    def counting_check(arena, cap):
        checked.append(arena.n)
        check(arena, cap)

    monkeypatch.setattr(arena_mod, "_check", counting_check)
    path = tmp_path / "multi.qg"
    # Clean: the bulk parser and normalize_target prove their arenas.  A
    # comment sends the same game to the line parser, whose arena is
    # checked once; the normalized arena is valid by construction.
    for text, checked_sizes in ((MULTI_TARGET, []), ("# two targets\n" + MULTI_TARGET, [3])):
        checked.clear()
        path.write_text(text)
        assert cli.run(["solve", str(path), "--json"]) == 0
        assert '"b": -1' in capsys.readouterr().out
        assert checked == checked_sizes


def test_plain_reachability_solve_builds_no_successor_tuples():
    from quantgames.mcr import solve_mcr

    arena = parse(MULTI_TARGET)
    norm = normalize_target(arena)
    solve_mcr(norm)
    assert arena._succ is None and norm._succ is None
    assert norm.successors(norm.n - 1) == ((norm.n - 1, 0),)
    assert norm._succ is not None


def test_accelerated_solves_build_no_successor_tuples():
    """The path oracle walks the decomposition's int64 adjacency, not the
    arena-wide ``(dst, w)`` tuples of ``Arena.successors``."""
    from quantgames.accel import solve_mcr_accelerated, solve_tp_accelerated
    from quantgames.tp import solve_tp

    arena = parse(MULTI_TARGET)
    norm = normalize_target(arena)
    assert solve_mcr_accelerated(norm).values["b"] == -1
    game = parse(
        "objective tp\nvertex a max\nvertex b min\nvertex c max\n"
        "edge a b 1\nedge b a 2\nedge b c 0\nedge c c 1\n"
    )
    assert list(solve_tp_accelerated(game).values) == list(solve_tp(game).values)
    assert arena._succ is None and norm._succ is None and game._succ is None
