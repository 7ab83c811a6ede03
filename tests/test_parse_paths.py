"""The bulk parser against the line parser.

``gamefile.parse`` reads a clean file in bulk and hands every other file
to the line parser, which is the reference.  Seeded generated files must
give equal arenas on both paths, files the bulk path does not accept must
give the line parser's arena, errors and warnings, and a clean file must
never reach the line parser.
"""

import random
import string
import warnings

import numpy as np
import pytest

from quantgames import gamefile
from quantgames.arena import Arena, validate
from quantgames.gamefile import FamilySpec, generate, parse, serialize

_ATTRS = ("line", "col", "expected", "name", "edge", "vertex")


def line_parse(text):
    """The arena the line parser alone builds from ``text``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    arena = Arena(*gamefile._scan_lines(text))
    validate(arena)
    return arena


def outcome(fn):
    """(arena or the exception's type, message and attributes, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except Exception as exc:  # both parsers must raise the same thing
            attrs = {a: getattr(exc, a) for a in _ATTRS if hasattr(exc, a)}
            result = (type(exc).__name__, str(exc), attrs)
    return result, [(w.category.__name__, str(w.message)) for w in caught]


def assert_same_arena(got, want):
    assert got.names == want.names
    assert got.owners == want.owners
    assert got.targets == want.targets
    assert got.objective is want.objective
    assert got.edge_array.dtype == np.int64
    assert np.array_equal(got.edge_array, want.edge_array)
    assert got.edges == want.edges
    assert got == want
    for v in (0, got.n - 1):
        assert got.index(got.names[v]) == v


def _name(rng, taken):
    alphabet = string.ascii_letters + string.digits + "_"
    while True:
        name = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        if name not in taken and name not in ("vertex", "edge"):
            taken.add(name)
            return name


def _weight(rng):
    w = rng.choice([0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)])
    # Python's int() reads "1_000"; the file may spell weights that way.
    return f"{w:_}" if abs(w) >= 1000 and rng.random() < 0.5 else str(w)


def random_file(rng, interleave=False):
    """A clean game file: shuffled vertex and edge lines, random target
    flags and weights; with ``interleave``, each edge line follows the
    later declaration of its endpoints instead of all vertex lines."""
    n = rng.choice([1, 2, 3, rng.randint(4, 60), rng.randint(60, 3000)])
    objective = rng.choice(["mcr", "tp"])
    taken = set()
    names = [_name(rng, taken) for _ in range(n)]
    targets = {v for v in range(n) if rng.random() < 0.1}
    if objective == "mcr" and not targets:
        targets.add(rng.randrange(n))
    pairs = []
    for v in range(n):
        for d in rng.sample(range(n), rng.randint(1, min(3, n))):
            pairs.append((v, d))
    rng.shuffle(pairs)
    order = list(range(n))
    rng.shuffle(order)
    vlines = {
        v: f"vertex {names[v]} {rng.choice(['min', 'max'])}" + (" target" if v in targets else "")
        for v in order
    }
    elines = [f"edge {names[s]} {names[d]} {_weight(rng)}" for s, d in pairs]
    lines = [f"objective {objective}"]
    if interleave:
        position = {v: i for i, v in enumerate(order)}
        due = {}
        for (s, d), line in zip(pairs, elines):
            due.setdefault(max(position[s], position[d]), []).append(line)
        for i, v in enumerate(order):
            lines.append(vlines[v])
            lines += due.get(i, [])
    else:
        lines += [vlines[v] for v in order] + elines
    return "\n".join(lines) + ("\n" if rng.random() < 0.9 else "")


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_bulk_path_matches_line_parser_on_generated_files(chunk, monkeypatch):
    if chunk is not None:  # split the edge block into many chunks
        monkeypatch.setattr(gamefile, "_EDGE_CHUNK", chunk)
    rng = random.Random(20141007)
    bulk = 0
    for i in range(240):
        text = random_file(rng, interleave=i % 8 == 7)
        want = line_parse(text)
        bulk += gamefile._scan_bulk(text) is not None
        for form in (text, text.encode("ascii")):
            assert_same_arena(parse(form), want)
    # Every file but the interleaved ones (and single-edge-line corner
    # cases) takes the bulk path.
    assert bulk >= 200


@pytest.mark.parametrize(
    "variant",
    ["comment", "tab", "crlf", "parallel-edge", "interleaved", "indent", "blank-line", "no-newline"],
)
def test_files_the_bulk_path_refuses_give_the_line_parsers_result(variant):
    rng = random.Random(variant)
    for _ in range(10):
        text = random_file(rng)
        lines = text.rstrip("\n").split("\n")
        k = rng.randrange(1, len(lines))
        if variant == "comment":
            lines.insert(k, "# a comment")
            lines[0] += "  # objective"
        elif variant == "tab":
            lines[k] = lines[k].replace(" ", "\t", 1)
        elif variant == "parallel-edge":
            edge = next(line for line in lines if line.startswith("edge "))
            lines.append(edge.rsplit(" ", 1)[0] + " 7")
        elif variant == "interleaved":
            vertex = lines.pop(1)
            lines.append(vertex)
        elif variant == "indent":
            lines[k] = " " + lines[k]
        elif variant == "blank-line":
            lines.insert(k, "")
        sep = "\r\n" if variant == "crlf" else "\n"
        changed = sep.join(lines) + ("" if variant == "no-newline" else sep)
        if variant != "no-newline":
            assert gamefile._scan_bulk(changed) is None
        got, got_warnings = outcome(lambda: parse(changed))
        want, want_warnings = outcome(lambda: line_parse(changed))
        assert got_warnings == want_warnings
        if isinstance(want, Arena):
            assert_same_arena(got, want)
        else:
            assert got == want
        if variant == "parallel-edge":
            assert any("merged parallel edge" in m for _, m in want_warnings)


# Files built to break the bulk path's line alignment, or to sit at the
# edge of what it accepts.  Each must end exactly as the line parser ends.
TRICKY = {
    "vertex-named-vertex": "objective tp\nvertex vertex max\nedge vertex vertex 0\n",
    "vertex-named-edge": "objective tp\nvertex edge max\nedge edge edge 0\n",
    "vertex-named-target": "objective mcr\nvertex target max target\nedge target target 0\n",
    "vertex-target-line": "objective mcr\nvertex target\nvertex a max target\nedge a a 0\n",
    "five-then-one": "objective tp\nvertex a min vertex b\nvertex target\nedge a a 0\n",
    "four-then-two": "objective tp\nvertex a min vertex\nvertex max\nedge a a 0\n",
    "five-then-three": "objective tp\nvertex edge max\nvertex a max\nedge a a 1 edge\nedge a 5\n",
    "three-then-five": "objective tp\nvertex a max\nedge a a\nedge edge a a 5\n",
    "target-not-last": "objective mcr\nvertex a target max\nedge a a 0\n",
    "target-twice": "objective mcr\nvertex a max target target\nedge a a 0\n",
    "target-spaced": "objective mcr\nvertex a max  target\nedge a a 0\n",
    "double-spaces": "objective tp\nvertex  a   max\nedge a  a   3\n",
    "trailing-space": "objective tp\nvertex a max \nedge a a 3 \n",
    "two-final-newlines": "objective tp\nvertex a max\nedge a a 3\n\n",
    "no-final-newline": "objective tp\nvertex a max\nedge a a 3",
    "no-edges": "objective tp\nvertex a max\n",
    "undeclared": "objective tp\nvertex a max\nedge a b 3\nedge b a 3\n",
    "declared-late": "objective tp\nvertex a max\nedge a b 3\nvertex b min\nedge b a 3\n",
    "duplicate-name": "objective tp\nvertex a max\nvertex a min\nedge a a 0\n",
    "plus-weight": "objective tp\nvertex a max\nedge a a +5\n",
    "underscore-weight": "objective tp\nvertex a max\nedge a a -1_000\n",
    "leading-zeros": "objective tp\nvertex a max\nedge a a 007\n",
    "double-underscore": "objective tp\nvertex a max\nedge a a 1__0\n",
    "lone-minus": "objective tp\nvertex a max\nedge a a -\n",
    "int64-max-plus-one": "objective tp\nvertex a max\nedge a a 9223372036854775808\n",
    "int64-min": "objective tp\nvertex a max\nedge a a -9223372036854775808\n",
    "over-cap": "objective tp\nvertex a max\nedge a a 1000000001\n",
    "bad-name": "objective tp\nvertex a-b max\nedge a-b a-b 0\n",
    "deadlock": "objective tp\nvertex a max\nvertex b min\nedge a b 0\n",
    "mcr-no-target": "objective mcr\nvertex a max\nedge a a 0\n",
    "owner-case": "objective tp\nvertex a MAX\nedge a a 0\n",
    "objective-spaced": "objective  tp\nvertex a max\nedge a a 0\n",
    "non-ascii-name": "objective tp\nvertex é max\nedge é é 0\n",
    "unicode-digit-weight": "objective tp\nvertex a max\nedge a a ٣\n",
}


@pytest.mark.parametrize("case", sorted(TRICKY))
def test_tricky_files_end_as_the_line_parser_ends(case):
    text = TRICKY[case]
    want, want_warnings = outcome(lambda: line_parse(text))
    for form in (text, text.encode("utf-8")):
        got, got_warnings = outcome(lambda: parse(form))
        assert got_warnings == want_warnings
        if isinstance(want, Arena):
            assert_same_arena(got, want)
        else:
            assert got == want


def test_a_clean_file_never_reaches_the_line_parser(monkeypatch):
    def refuse(text):
        raise AssertionError("the line parser ran on a clean file")

    monkeypatch.setattr(gamefile, "_scan_lines", refuse)
    rng = random.Random(7)
    for _ in range(20):
        text = random_file(rng)
        parse(text)
        parse(text.encode("ascii"))
    for family, kw in [("fig1a", {}), ("fig2a", {"W": 50}), ("lsp_fig5", {}), ("layered", {"n": 4, "W": 3})]:
        parse(serialize(generate(FamilySpec(family, **kw))))


def test_bulk_parse_keeps_its_name_index():
    arena = parse("objective tp\nvertex b max\nvertex a min\nedge b a 1\nedge a b 2\n")
    assert arena.index("a") == 1 and arena.index("b") == 0
    with pytest.raises(KeyError, match="no vertex named 'c'"):
        arena.index("c")
