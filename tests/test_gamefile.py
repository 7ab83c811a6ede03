import json
import random

import pytest

from quantgames import gamefile
from quantgames.arena import CapExceededError, Objective, Player, validate
from quantgames.gamefile import (
    FAMILIES,
    DuplicateVertexError,
    FamilySpec,
    GameSyntaxError,
    UndeclaredVertexError,
    export_dot,
    generate,
    parse,
    serialize,
    write_results_json,
)
from quantgames.mcr import solve_mcr
from quantgames.arena import ValueVector, normalize_target

from conftest import fig2a, layered, value_vectors

FIG2A_TEXT = """\
objective mcr
vertex v1 max
vertex v2 min
vertex v3 max target
edge v1 v2 -1
edge v1 v3 -50
edge v2 v1 0
edge v2 v3 0
edge v3 v3 0
"""


def test_parse_fig2a():
    arena = parse(FIG2A_TEXT)
    assert arena.n == 3
    assert len(arena.edges) == 5
    assert arena.targets == frozenset({2})
    assert arena.objective is Objective.MCR
    assert arena.owners == (Player.MAX, Player.MIN, Player.MAX)


def test_parse_crlf_and_comments():
    text = "objective tp\r\n# comment\r\nvertex a max\r\nedge a a 0\r\n"
    arena = parse(text.encode())
    assert arena.n == 1


def test_single_vertex_tp():
    arena = parse("objective tp\nvertex a max\nedge a a 0\n")
    assert arena.n == 1 and not arena.targets


def test_undeclared_vertex_has_line():
    text = "objective tp\nvertex a max\nedge a b 1\n"
    with pytest.raises(UndeclaredVertexError) as err:
        parse(text)
    assert err.value.line == 3
    assert err.value.name == "b"


def test_duplicate_vertex():
    with pytest.raises(DuplicateVertexError):
        parse("objective tp\nvertex a max\nvertex a min\nedge a a 0\n")


def test_syntax_errors():
    with pytest.raises(GameSyntaxError):
        parse("vertex a max\n")
    with pytest.raises(GameSyntaxError):
        parse("objective nope\n")
    with pytest.raises(GameSyntaxError) as err:
        parse("objective tp\nvertex a max\nedge a a x\n")
    assert err.value.line == 3


def test_parallel_edges_merged_with_warning():
    text = (
        "objective tp\nvertex a max\nvertex b min\n"
        "edge a b 1\nedge a b 5\nedge b a 1\nedge b a 5\nedge b b 0\n"
    )
    with pytest.warns(UserWarning):
        arena = parse(text)
    assert arena.weight(0, 1) == 5  # Max keeps the best (largest) weight
    assert arena.weight(1, 0) == 1  # Min keeps the smallest


def test_round_trip_families():
    for family, kwargs in [
        ("fig1a", {}),
        ("fig2a", {"W": 50}),
        ("fig2b", {"W": 4}),
        ("lsp_fig5", {}),
        ("layered", {"n": 3, "W": 5}),
    ]:
        arena = generate(FamilySpec(family, **kwargs))
        again = parse(serialize(arena))
        assert again.names == arena.names
        assert again.owners == arena.owners
        assert again.edges == arena.edges
        assert again.targets == arena.targets
        assert again.objective is arena.objective
        # canonical bytes are reproducible
        assert serialize(arena) == serialize(again)


def test_generate_deterministic():
    a = serialize(generate(FamilySpec("layered", n=4, W=9)))
    b = serialize(generate(FamilySpec("layered", n=4, W=9)))
    assert a == b


def test_generated_families_validate():
    for family in FAMILIES:
        validate(generate(FamilySpec(family, W=3, n=2)))


def test_layered_counts():
    arena = layered(1, 5)
    assert arena.n == 4
    assert len(arena.edges) == 7


def test_fig2a_structure_counts():
    arena = fig2a(50)
    assert arena.n == 3 and len(arena.edges) == 5


def test_layered_checks_the_vertex_cap_before_building(monkeypatch):
    monkeypatch.setenv("QG_MAX_VERTICES", "10")
    assert generate(FamilySpec("layered", n=3)).n == 10

    def unreachable(*args, **kwargs):
        raise AssertionError("the layered lists were built past the cap")

    monkeypatch.setattr(gamefile, "make_arena", unreachable)
    with pytest.raises(CapExceededError, match="13 vertices exceed the cap 10"):
        generate(FamilySpec("layered", n=4))


def test_bad_family_params():
    with pytest.raises(ValueError):
        FamilySpec("nope")
    with pytest.raises(ValueError):
        FamilySpec("layered", W=0)
    with pytest.raises(ValueError):
        FamilySpec("layered", n=0)


def test_export_dot_shapes():
    arena = fig2a(50)
    dot = export_dot(arena).decode()
    assert dot.count("shape=circle") == 2
    assert dot.count("shape=box") == 1
    assert dot.count("peripheries=2") == 1
    assert 'label="-50"' in dot


def test_export_dot_annotations():
    arena = fig2a(50)
    values = solve_mcr(normalize_target(arena)).values
    dot = export_dot(arena, ValueVector(arena, values.values[:3])).decode()
    assert 'xlabel="-50"' in dot and 'xlabel="0"' in dot
    assert "xlabel" not in export_dot(arena).decode()


def test_results_json():
    arena = fig2a(50)
    values = solve_mcr(normalize_target(arena))
    doc = json.loads(
        write_results_json(
            ValueVector(arena, values.values.values[:3]), values.stats
        ).decode()
    )
    assert doc["values"]["v1"] == -50
    assert set(doc["stats"]) == {"outer_iterations", "inner_iterations", "sweeps", "wall_ms"}
    assert list(doc["values"]) == ["v1", "v2", "v3"]


def test_results_json_infinity_literal():
    arena = parse(
        "objective mcr\nvertex a max\nvertex t max target\nedge a a 1\nedge t t 0\n"
    )
    res = solve_mcr(arena)
    doc = json.loads(write_results_json(res.values, res.stats).decode())
    assert doc["values"]["a"] == "+inf"


def test_results_json_bytes_equal_json_dumps():
    from quantgames.extvalue import MINUS_INF, PLUS_INF, to_json
    from quantgames.mcr import SolveStats

    rng = random.Random(9)
    cases = []
    for n in (1, 2, 7, 300):
        arena = layered(n, 3)
        values = ValueVector(
            arena,
            [rng.choice([PLUS_INF, MINUS_INF, 0, rng.randint(-10**15, 10**15)]) for _ in range(arena.n)],
        )
        cases.append((values, SolveStats(outer_iterations=n, inner_iterations=2 * n, sweeps=3, wall_ms=1.25)))
    stats = SolveStats(outer_iterations=4, inner_iterations=9, sweeps=9, wall_ms=3)
    cases += [(values, stats) for values in value_vectors()]
    for values, stats in cases:
        doc = {
            "values": {name: to_json(v) for name, v in values.items()},
            "stats": {
                "outer_iterations": stats.outer_iterations,
                "inner_iterations": stats.inner_iterations,
                "sweeps": stats.sweeps,
                "wall_ms": stats.wall_ms,
            },
        }
        want = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        assert write_results_json(values, stats) == want
    assert len(cases) == 4 + 35
