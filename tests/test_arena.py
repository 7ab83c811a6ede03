import numpy as np
import pytest

from quantgames.arena import (
    Arena,
    BadNameError,
    DeadlockVertexError,
    DuplicateEdgeError,
    EmptyTargetError,
    Objective,
    Player,
    WeightOverflowError,
    _check,
    edge_rows,
    fresh_names,
    make_arena,
    max_abs_weight,
    normalize_target,
    scale_weights,
    validate,
    vertex_cap,
)
from quantgames.oracle import mcr_oracle
import batch
from conftest import fig2a
from quantgames.gamefile import FamilySpec, generate
from quantgames.cli import random_arena
import random


def test_validate_fig2a_ok():
    validate(fig2a(50))


def test_deadlock_detected():
    arena = Arena(
        ("a", "b"), (Player.MAX, Player.MIN), ((0, 1, 1),), frozenset(), Objective.TP
    )
    with pytest.raises(DeadlockVertexError):
        validate(arena)


def test_empty_target_for_mcr():
    arena = Arena(("a",), (Player.MAX,), ((0, 0, 0),), frozenset(), Objective.MCR)
    with pytest.raises(EmptyTargetError):
        validate(arena)


def test_duplicate_edge_rejected():
    arena = Arena(
        ("a",), (Player.MAX,), ((0, 0, 0), (0, 0, 1)), frozenset(), Objective.TP
    )
    with pytest.raises(DuplicateEdgeError):
        validate(arena)


def test_weight_cap():
    arena = Arena(("a",), (Player.MAX,), ((0, 0, 10**9 + 1),), frozenset(), Objective.TP)
    with pytest.raises(WeightOverflowError):
        validate(arena)


def test_bad_name():
    arena = Arena(("a b",), (Player.MAX,), ((0, 0, 0),), frozenset(), Objective.TP)
    with pytest.raises(BadNameError):
        validate(arena)


def test_max_abs_weight():
    assert max_abs_weight(fig2a(50)) == 50
    assert max_abs_weight(generate(FamilySpec("fig1a"))) == 2
    single = make_arena(["v"], [Player.MAX], [(0, 0, 0)], [], Objective.TP)
    assert max_abs_weight(single) == 0


def test_normalize_idempotent_on_canonical():
    arena = fig2a(50)
    assert normalize_target(arena) is arena


def test_normalize_two_targets():
    arena = make_arena(
        ["a", "b"],
        [Player.MIN, Player.MAX],
        [(0, 1, 2), (1, 0, -1)],
        [0, 1],
        Objective.MCR,
    )
    norm = normalize_target(arena)
    assert norm.n == arena.n + 1
    t = arena.n
    assert norm.has_edge(0, t) and norm.weight(0, t) == 0
    assert norm.has_edge(1, t) and norm.weight(1, t) == 0
    assert norm.successors(t) == ((t, 0),)
    assert normalize_target(norm) is norm


def test_fresh_names_keeps_free_names_and_suffixes_taken_ones():
    assert fresh_names(["a", "t"], ["t", "b", "t", "t0"]) == ["t0", "b", "t1", "t00"]
    assert fresh_names((), ["x", "x", "x"]) == ["x", "x0", "x1"]
    assert fresh_names(["t", "t0", "t1"], ["t"]) == ["t2"]


def test_normalize_preserves_values():
    # Reference solve before and after normalization agrees on originals.
    rng = random.Random(11)
    for _ in range(60):
        arena = random_arena(rng, 5, 3, Objective.MCR)
        raw = mcr_oracle(arena)
        norm = normalize_target(arena)
        cooked = mcr_oracle(norm)
        for v in range(arena.n):
            if v in arena.targets:
                continue  # originals lose target status under normalization
            assert raw[v] == cooked[v] or raw[v] is cooked[v]


def test_scaling_preserves_structure():
    arena = fig2a(3)
    scaled = scale_weights(arena, 7)
    assert max_abs_weight(scaled) == 21
    validate(scaled)


def test_every_vertex_has_out_edge_after_validate():
    arena = fig2a(2)
    for v in range(arena.n):
        assert arena.successors(v)


def test_arena_from_array_equals_arena_from_tuples():
    edges = [(1, 0, -7), (0, 1, 5), (0, 0, 2)]
    args = (("a", "b"), (Player.MAX, Player.MIN))
    from_tuples = Arena(*args, tuple(edges), frozenset(), Objective.TP)
    from_array = Arena(*args, np.array(edges, dtype=np.int64), frozenset(), Objective.TP)
    assert from_array._edges is None  # the tuples are built on first use
    assert from_array == from_tuples and hash(from_array) == hash(from_tuples)
    assert from_array.edges == from_tuples.edges == ((0, 0, 2), (0, 1, 5), (1, 0, -7))
    assert from_array.edge_array.tolist() == from_tuples.edge_array.tolist()
    assert from_array.successors(0) == from_tuples.successors(0) == ((0, 2), (1, 5))
    assert from_array != Arena(*args, np.array(edges[:2], dtype=np.int64), frozenset(), Objective.TP)
    assert repr(from_array) == repr(from_tuples)


def test_array_rows_sort_as_their_tuples():
    rng = random.Random(5)
    for _ in range(50):
        rows = [(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 12))]
        arena = Arena(("a",), (Player.MAX,), np.array(rows, dtype=np.int64).reshape(-1, 3), frozenset(), Objective.TP)
        assert arena.edges == tuple(sorted(rows))


def test_sorted_array_is_kept_without_a_copy_and_read_only():
    rows = np.array([[0, 0, 1], [0, 1, 2], [1, 0, 3]], dtype=np.int64)
    arena = Arena(("a", "b"), (Player.MAX, Player.MIN), rows, frozenset(), Objective.TP)
    assert np.shares_memory(arena.edge_array, rows)
    assert rows.flags.writeable and not arena.edge_array.flags.writeable
    assert not fig2a(3).edge_array.flags.writeable
    with pytest.raises(ValueError):
        Arena(("a",), (Player.MAX,), rows.astype(np.int32), frozenset(), Objective.TP)


def test_only_the_builders_valid_by_construction_skip_the_sort_check(monkeypatch):
    from quantgames import arena as arena_mod
    from quantgames.gamefile import parse, serialize

    sorted_rows = arena_mod._sorted_rows
    checked = []
    monkeypatch.setattr(arena_mod, "_sorted_rows", lambda rows: checked.append(len(rows)) or sorted_rows(rows))
    rng = random.Random(12)
    for _ in range(30):
        arena = random_arena(rng, 9, 5, Objective.MCR)
        rows = arena.edge_array[rng.sample(range(len(arena.edges)), len(arena.edges))]
        shuffled = make_arena(arena.names, arena.owners, rows, arena.targets, Objective.MCR)
        assert checked == [len(rows)]
        assert shuffled.edge_array.tolist() == sorted(rows.tolist()) == arena.edge_array.tolist()
        assert shuffled == arena and not shuffled.edge_array.flags.writeable
        checked.clear()
        # The bulk parser and normalize_target sort their rows themselves.
        normalize_target(parse(serialize(arena)))
        assert checked == []


def test_is_max_is_read_only_and_follows_the_owners():
    rng = random.Random(4)
    for _ in range(20):
        arena = random_arena(rng, 8, 3, Objective.MCR)
        assert arena._is_max is None  # built on first use
        for game in (arena, normalize_target(arena)):
            assert game.is_max.tolist() == [o is Player.MAX for o in game.owners]
            assert game.is_max.dtype == bool and not game.is_max.flags.writeable
            assert game.is_max is game.is_max


def test_arena_is_immutable_and_copies_by_value():
    import copy
    import pickle

    arena = fig2a(3)
    from_array = Arena(arena.names, arena.owners, arena.edge_array, arena.targets, arena.objective)
    for a in (arena, from_array):
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        arena.names = ("x",)
    with pytest.raises(AttributeError):
        del arena.targets


def test_index_by_name():
    arena = make_arena(["p", "q", "r"], [Player.MAX] * 3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    assert [arena.index(name) for name in ("p", "q", "r")] == [0, 1, 2]
    with pytest.raises(KeyError, match="no vertex named 's'"):
        arena.index("s")
    # Unvalidated repeated names: the first one wins, as with tuple.index.
    twice = Arena(("p", "q", "p"), (Player.MAX,) * 3, (), frozenset(), Objective.TP)
    assert twice.index("p") == 0


def _normalize_by_tuples(arena):
    """The rewiring of ``normalize_target`` on the edge tuples."""
    t = arena.n
    edges = [e for e in arena.edges if e[0] not in arena.targets]
    edges += [(old, t, 0) for old in sorted(arena.targets)] + [(t, t, 0)]
    return edges


def test_normalize_on_the_array_matches_the_tuple_rewiring():
    rng = random.Random(3)
    for _ in range(200):
        arena = random_arena(rng, 12, 4, Objective.MCR)
        norm = normalize_target(arena)
        if norm is arena:
            continue
        assert norm.edges == tuple(sorted(_normalize_by_tuples(arena)))
        assert norm.names == arena.names + ("t",) and norm.targets == frozenset({arena.n})


def _normalize_by_insert(arena):
    """The rows of the former array rewiring of ``normalize_target``: the
    targets' rows dropped, each forwarding row inserted where they were."""
    t = arena.n
    arr = arena.edge_array
    olds = np.array(sorted(arena.targets), dtype=np.int64)
    kept = arr[~np.isin(arr[:, 0], olds)]
    rows = np.insert(kept, np.searchsorted(kept[:, 0], olds), edge_rows(olds, t), axis=0)
    return np.concatenate((rows, edge_rows(t, t)))


def _exhaustive_mcr_arenas():
    """The arenas behind ``batch.mcr_shapes`` of one to three vertices, in
    its order and each with its shape: every successor structure, owner
    pattern and target set, the edge (v, d) weighing 3v + d - 4."""
    for nv in (1, 2, 3):
        shapes = batch.mcr_shapes(nv)
        names = [f"v{i}" for i in range(nv)]
        for succ in batch.structures(nv):
            edges = [(v, d, 3 * v + d - 4) for v in range(nv) for d in succ[v]]
            for owners in batch.owner_patterns(nv):
                players = [Player.MAX if m else Player.MIN for m in owners]
                for targets in batch.target_patterns(nv):
                    yield make_arena(names, players, edges, targets, Objective.MCR), next(shapes)


def test_normalized_arenas_are_proven_and_pass_check():
    """``normalize_target`` records its result as validated without
    ``_check``; ``_check``, run directly, must accept each one, over the
    exhaustive corpus and the random MCR corpus of the acceptance tests.
    The rows equal the former ``np.insert`` rewiring's and the exhaustive
    corpus's normalized shapes."""
    cap = vertex_cap()
    corpus = list(_exhaustive_mcr_arenas())
    rng = random.Random(97)
    corpus += [(random_arena(rng, 6, 3, Objective.MCR), None) for _ in range(500)]
    rewired = 0
    for arena, shape in corpus:
        norm = normalize_target(arena)
        assert norm._validated_cap == cap
        assert norm.is_max.tolist() == [o is Player.MAX for o in norm.owners]
        _check(norm, cap)
        if norm is arena:
            continue
        rewired += 1
        rows = norm.edge_array
        assert np.array_equal(rows, _normalize_by_insert(arena))
        if shape is not None:
            assert np.array_equal(rows[:, 0], shape.src) and np.array_equal(rows[:, 1], shape.dst)
            assert np.array_equal(rows[:, 2], np.where(shape.wcol >= 0, 3 * shape.src + shape.dst - 4, 0))
            assert [o is Player.MAX for o in norm.owners] == shape.is_max.tolist()
    assert rewired > 12_000


def test_file_to_values_builds_no_edge_tuples():
    from quantgames.gamefile import parse
    from quantgames.mcr import solve_mcr

    arena = parse("objective mcr\nvertex a min\nvertex b max target\nedge a b 3\nedge a a 1\nedge b a 0\n")
    norm = normalize_target(arena)
    solve_mcr(norm)
    assert arena._edges is None and norm._edges is None
