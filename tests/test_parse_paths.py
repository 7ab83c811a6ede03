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


# The bulk path keys each name by zero-padded 8-byte words and reads the
# weights byte by byte.  The files below sit at the edges of both.

_ALPHABET = string.ascii_letters + string.digits + "_"


def _long_names(rng, n):
    """``n`` distinct names of 9-40 bytes, most of them sharing their
    first 8 or 16 bytes with others."""
    stems = ["".join(rng.choice(_ALPHABET) for _ in range(16)) for _ in range(3)]
    names = set()
    while len(names) < n:
        stem = rng.choice(stems)[: rng.choice((0, 8, 16))]
        size = rng.randint(max(1, 9 - len(stem)), 40 - len(stem))
        names.add(stem + "".join(rng.choice(_ALPHABET) for _ in range(size)))
    names = sorted(names)
    rng.shuffle(names)
    return names


def named_file(rng, names, weight=_weight):
    """A clean MCR file on ``names``: one to three successors each, the
    first vertex a target, weights drawn by ``weight(rng)``."""
    n = len(names)
    lines = ["objective mcr"]
    for v, name in enumerate(names):
        lines.append(f"vertex {name} {rng.choice(['min', 'max'])}" + (" target" if v == 0 else ""))
    for v, name in enumerate(names):
        for d in rng.sample(range(n), rng.randint(1, min(3, n))):
            lines.append(f"edge {name} {names[d]} {weight(rng)}")
    return "\n".join(lines) + "\n"


def assert_line_parsers_outcome(text):
    """``parse`` ends as the line parser ends, from ``str`` and ``bytes``."""
    want, want_warnings = outcome(lambda: line_parse(text))
    for form in (text, text.encode("ascii")):
        got, got_warnings = outcome(lambda: parse(form))
        assert got_warnings == want_warnings
        if isinstance(want, Arena):
            assert_same_arena(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("chunk", [None, 1])
def test_long_names_that_share_prefixes_take_the_bulk_path(chunk, monkeypatch):
    """Names of 9-40 bytes are keys of two to five words, hashed into one
    sort key; names that share their first 8 or 16 bytes differ only in a
    later word.  With ``chunk`` 1 the edge block is cut at every line."""
    if chunk is not None:
        monkeypatch.setattr(gamefile, "_EDGE_CHUNK", chunk)
    rng = random.Random(4018)
    shared = 0
    for n in (1, 2, 7, 60, 400):
        names = _long_names(rng, n)
        shared += sum(a[:8] == b[:8] for a, b in zip(names, names[1:]))
        text = named_file(rng, names)
        assert gamefile._scan_bulk(text) is not None
        assert_line_parsers_outcome(text)
    assert shared > 20


@pytest.mark.parametrize("edit", ["add", "remove"])
def test_an_endpoint_one_byte_off_a_declared_name_ends_as_the_line_parser(edit):
    """An endpoint that is a declared name with one byte added or removed
    is undeclared (or another declared name), across the word boundaries
    at 8 and 16 bytes and past the longest name."""
    rng = random.Random(edit)
    for names in (
        ["abcdefgh", "abcdefg", "a", "abcdefghijklmnop"],
        _long_names(rng, 30),
        [f"v{i}" for i in range(12)],
    ):
        for _ in range(12):
            text = named_file(rng, names)
            lines = text.split("\n")
            k = rng.choice([i for i, line in enumerate(lines) if line.startswith("edge ")])
            _, src, dst, w = lines[k].split()
            src = src + rng.choice(_ALPHABET) if edit == "add" else src[:-1] or "x"
            lines[k] = f"edge {src} {dst} {w}"
            changed = "\n".join(lines)
            if src not in names:
                assert gamefile._scan_bulk(changed) is None
            assert_line_parsers_outcome(changed)


@pytest.mark.parametrize(
    "weight, bulk",
    [
        ("-0", True), ("007", True), ("1_000", True), ("-1_000_000", True), ("0_0", True),
        ("1__0", False), ("_1", False), ("1_", False), ("-", False), ("--1", False),
        ("-_1", False), ("1-", False), ("0x1", False),
    ],
)
def test_weights_follow_int(weight, bulk):
    """Weights the bulk path reads with ``int``'s rules, and ones ``int``
    refuses, which only the line parser may report."""
    rng = random.Random(weight)
    names = _long_names(rng, 5) + ["a", "b"]
    text = named_file(rng, names, lambda r: r.choice([weight, str(r.randint(-9, 9))]))
    assert (gamefile._scan_bulk(text) is not None) == bulk
    assert_line_parsers_outcome(text)


_DIGIT_CASES = [
    "9" * 17, "9" * 18, "-" + "9" * 18, "999_999_999_999_999_999", "1" + "0" * 18,
    str(2**63 - 1), str(2**63), str(2**63 + 1), str(-(2**63)), str(-(2**63) - 1),
    "1" + "0" * 19, "-" + "9" * 20, "0" * 19 + "5", "1_000_000_000_000_000_000",
]


@pytest.mark.parametrize("weight", _DIGIT_CASES)
def test_weights_of_18_to_20_digits_end_as_the_line_parser(weight):
    """Up to 18 digits the bulk path reads the weight, and ``validate``
    refuses it past the weight cap; from 19 digits on, int64's range
    included, the line parser reads it."""
    text = f"objective tp\nvertex a max\nvertex b min\nedge a b {weight}\nedge b a 1\n"
    digits = sum(c.isdigit() for c in weight)
    assert (gamefile._scan_bulk(text) is not None) == (digits <= 18)
    assert_line_parsers_outcome(text)
    if digits <= 18:  # the value the bulk path read, before validation
        assert gamefile._scan_bulk(text)[2][0, 2] == int(weight)


def test_colliding_keys_are_checked_word_by_word(monkeypatch):
    """With a zero multiplier the sort key of a two-word name is its last
    word alone, so names that differ only in their first word collide.
    Two declared names that collide, or an undeclared endpoint that
    collides with a declared name, send the file to the line parser."""
    monkeypatch.setattr(gamefile, "_MIX", np.uint64(0))
    head = "objective tp\nvertex aaaaaaaa_tail max\n"
    cases = {
        "declared": head + "vertex bbbbbbbb_tail min\nedge aaaaaaaa_tail bbbbbbbb_tail 1\n"
        "edge bbbbbbbb_tail aaaaaaaa_tail 2\n",
        "undeclared": head + "edge aaaaaaaa_tail cccccccc_tail 1\n",
        "distinct": head + "vertex bbbbbbbb_tall min\nedge aaaaaaaa_tail bbbbbbbb_tall 1\n"
        "edge bbbbbbbb_tall aaaaaaaa_tail 2\n",
    }
    for case, text in cases.items():
        assert (gamefile._scan_bulk(text) is None) == (case != "distinct")
        assert_line_parsers_outcome(text)
