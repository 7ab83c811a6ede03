"""Text format for game files, DOT/JSON export, and example generators.

Format, one directive per line, ``#`` starts a comment::

    objective mcr|tp          # exactly once, first non-comment line
    vertex <name> min|max [target]
    edge <src> <dst> <integer>

Vertex indices follow declaration order.  ``parse`` returns a validated
arena; ``serialize`` emits a canonical byte form with ``parse(serialize(a))``
isomorphic to ``a``.

``parse`` has two paths that end in the same arena construction.  A clean
file is read in bulk (``_scan_bulk``) as byte arrays, after the structural
index of Langdale and Lemire ("Parsing gigabytes of JSON per second",
VLDB J. 2019): one vectorized pass over each block finds every separator
(space or newline), and the work is done on token spans, not on one
Python object per token.  Names become zero-padded ``'<u8'`` words and map
to indices by a sort and ``searchsorted``, weights are read by Horner's
rule over the token bytes, and one sort on ``src * n + dst`` orders the
edges and finds parallel ones; the arena stores that ``[E, 3]`` array and
builds no edge tuples.  Clean means: only ``[A-Za-z0-9_-]``, spaces and
newlines; the objective line first, then every vertex line, then every
edge line; tokens one space apart, with no blank, indented or
space-ended line; every endpoint declared, no name declared twice, no
parallel edge, and every weight an optional ``-`` and at most 18 digits
with single ``_`` between digits.  Clean also means valid: no ``-`` in a
name, no weight beyond ``WEIGHT_CAP``, an out-edge at every vertex, a
target in an MCR file and at most ``vertex_cap()`` vertices.  So the bulk
path proves every invariant of ``arena.validate`` and records that on
its arena, which ``validate`` then does not check again.  Any other file
(a comment, a tab, CRLF line ends, a bad token, a deadlocked vertex, ...)
goes to the line parser (``_scan_lines``), which splits each line with
``str.split``, and its arena to ``validate``.  That path is the
reference and the only one that raises ``GameSyntaxError``,
``UndeclaredVertexError``, ``DuplicateVertexError`` or an ``ArenaError``,
or warns of merged parallel edges; token columns are computed only on
its error path.
"""

from __future__ import annotations

import json
import string
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .arena import (
    WEIGHT_CAP,
    Arena,
    CapExceededError,
    Objective,
    Player,
    _proven,
    make_arena,
    validate,
    vertex_cap,
)
from .extvalue import to_json


class GameSyntaxError(ValueError):
    def __init__(self, line: int, col: int, expected: str) -> None:
        super().__init__(f"line {line}, column {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class UndeclaredVertexError(ValueError):
    def __init__(self, name: str, line: int) -> None:
        super().__init__(f"line {line}: vertex {name!r} used before declaration")
        self.name = name
        self.line = line


class DuplicateVertexError(ValueError):
    def __init__(self, name: str, line: int) -> None:
        super().__init__(f"line {line}: vertex {name!r} declared twice")
        self.name = name
        self.line = line


def _tokens(line: str) -> List[Tuple[str, int]]:
    """Tokens of ``line`` with their 1-based columns; error path only."""
    out = []
    col = 0
    for chunk in line.split("#", 1)[0].split():
        col = line.index(chunk, col)
        out.append((chunk, col + 1))
        col += len(chunk)
    return out


def _syntax_error(lineno: int, raw: str, i: int, expected: str) -> GameSyntaxError:
    """The error for token ``i`` of line ``raw``, at that token's column."""
    return GameSyntaxError(lineno, _tokens(raw)[i][1], expected)


def parse(text: Union[str, bytes]) -> Arena:
    """Parse the text format into a validated arena: in bulk when the file
    is clean, and valid as read; else line by line, then ``validate``."""
    cap = vertex_cap()
    parts = _scan_bulk(text, cap)
    if parts is not None:
        return _proven(Arena(*parts), cap)
    arena = Arena(*_scan_lines(text.decode("utf-8") if isinstance(text, bytes) else text))
    validate(arena)
    return arena


# Every byte a clean file may hold.  Anything else (a comment, a tab, a
# carriage return, a zero byte, non-ASCII text) sends the file to the line
# parser.  The space and the newline are the only ones up to the space.
_CLEAN_BYTES = (string.ascii_letters + string.digits + "_- \n").encode("ascii")
# An owner token and the byte after it, read as one little-endian word
# once " target\n" is rewritten to "+\n": "max" or "min", then the newline
# or the "+" (a "+" occurs only there, so the word proves the token).
_MAX, _MIN = (int.from_bytes(s, "little") for s in (b"max", b"min"))
_PLAYERS = np.array([Player.MIN, Player.MAX], dtype=object)
# A weight read in bulk has at most 18 digits, so it fits int64 unchecked;
# with a sign and an "_" between each two digits it spans at most 36 bytes.
_DIGITS = 18
_WEIGHT_LEN = 2 * _DIGITS
# The kind of each byte of a weight row: 0 the zero padding after the
# token, 1 a digit, 2 "-", 3 "_", 4 anything else.  ``int`` reads a token
# whose first byte is a digit or "-" (``_FIRST``) and each next byte one
# that the byte before allows (``_PAIR``, at 5 * before + next): a digit
# after a digit, "-" or "_"; an "_" or the padding after a digit; the
# padding after the padding.
_KIND = np.full(256, 4, np.uint8)
_KIND[0], _KIND[ord("-")], _KIND[ord("_")] = 0, 2, 3
_KIND[ord("0"):ord("9") + 1] = 1
_FIRST = np.isin(np.arange(5), (1, 2))
_PAIR = np.isin(np.arange(25), (5 + 1, 10 + 1, 15 + 1, 5 + 3, 5 + 0, 0))
# Horner's rule multiplies by _SCALE[kind] and adds _DIGIT[byte].
_SCALE = np.array([1, 10, 1, 1, 1], np.uint8)
_DIGIT = np.zeros(256, np.uint8)
_DIGIT[ord("0"):ord("9") + 1] = range(10)
# The low k bytes of a word, k = 0..8 (taken with k clipped to that range).
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# The separators of a vertex line, once " target\n" is "+\n", and of an edge line.
_VERTEX_LINE, _EDGE_LINE = (np.frombuffer(s, np.uint8) for s in (b"  \n", b"   \n"))
# Name key rows may take at most this many bytes per byte of the block
# they are read from: a few long names among many short ones send the file
# to the line parser rather than pad every row to the longest.
_KEY_SPREAD = 4
# The multiplier that folds several name words into one sort key.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _scan_bulk(text: Union[str, bytes], cap: Optional[int] = None):
    """The parts of an arena read from a clean file in bulk, or None when
    the file needs the line parser.

    Clean is defined in the module docstring; for a clean file the result
    equals the line parser's, and every check below proves a part of it.
    ``cap`` is the vertex cap, ``vertex_cap()`` unless given.

    Validity.  The bytes, the alignment and the name keys below prove
    that every name is nonempty, distinct and of ``[A-Za-z0-9_-]``, that
    each vertex has one owner and every endpoint and target is a vertex,
    and the final sort that no edge is parallel.  A ``-`` in the vertex
    block can only be in a name, so the file is refused for one.  The
    weight cap, the out-edge at every vertex (n distinct sources among the
    sorted rows), the MCR target and the vertex cap are checked once on
    the whole, never per chunk.  A file that fails one goes to the line
    parser, so that ``validate`` raises its error in its order.

    Alignment.  The separator index of a block is the positions of its
    spaces and newlines, the only clean bytes up to the space, found in
    one vectorized pass.  A block of L lines must hold 3L of them (vertex
    lines, once ``" target\\n"`` is ``"+\\n"``) or 4L (edge lines),
    every third (fourth) a newline.  It holds exactly L newlines, so then
    each line holds exactly three (four) tokens, and each token is the
    span between two separators; an empty one is refused.  One substring
    count per block (per chunk of the edge block) proves that every line
    starts with its directive.

    Names.  A name becomes ceil(Lmax/8) ``'<u8'`` words, zero after its
    last byte, Lmax the longest declared name.  The padding is injective,
    since a clean file holds no zero byte.  The sort key of a name is its
    word, or a hash of its words.  An endpoint's key picks one declared
    name by ``searchsorted``, and the endpoint is taken for that name only
    if every word is equal, so a hash is never trusted alone.  A repeated
    key (a name declared twice, or two colliding hashes), an endpoint
    longer than Lmax or one whose words differ sends the file to the line
    parser.  So does a file whose name rows would outgrow their block
    ``_KEY_SPREAD`` times over, which keeps the memory linear in the file.

    Weights follow ``int``'s grammar byte by byte (``_weights``); a token
    of more than 18 digits goes to the line parser, so no value overflows.

    Returns no name index: ``Arena.index`` builds one on first use.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    if text.translate(None, _CLEAN_BYTES):
        return None
    nl = text.find(b"\n")
    if nl < 0 or text[:nl] not in (b"objective mcr", b"objective tp"):
        return None
    k = text.find(b"\nedge ", nl) + 1
    if k == 0:
        return None
    vblock = text[nl + 1:k]
    if b"-" in vblock:
        return None
    vertices = _scan_vertices(vblock.replace(b" target\n", b"+\n"))
    if vertices is None:
        return None
    names, owners, targets, table = vertices
    objective = Objective(text[len("objective "):nl].decode())
    cap = vertex_cap() if cap is None else cap
    if len(names) > cap or (objective is Objective.MCR and not targets):
        return None
    edges = _scan_edges(text, k, table)
    if edges is None:
        return None
    return names, owners, edges, targets, objective


def _separators(raw: np.ndarray, pattern: np.ndarray):
    """The positions of the spaces and newlines of a block, one row per
    line, or None unless each line holds them in ``pattern``: spaces, then
    its newline."""
    sep = np.flatnonzero(raw <= ord(" "))
    if len(sep) % len(pattern):
        return None
    sep = sep.reshape(-1, len(pattern))
    return sep if (raw[sep] == pattern).all() else None


def _directives(block: bytes, directive: bytes, lines: int) -> bool:
    """Whether each of the block's ``lines`` lines, all ending in a
    newline, starts with ``directive``."""
    return block.startswith(directive) and block.count(b"\n" + directive) == lines - 1


def _words(block: bytes, starts: np.ndarray, lens: np.ndarray, count: int) -> np.ndarray:
    """The tokens of ``block`` at ``starts`` of ``lens`` bytes, as
    ``count`` little-endian ``'<u8'`` words each, zero after the token."""
    # Element i of ``at`` is the 8 bytes from byte i of the block.
    at = np.ndarray((len(block) + 8 * count - 7,), "<u8", block + bytes(8 * count), 0, (1,))
    offsets = 8 * np.arange(count)
    words = at[starts[..., None] + offsets]
    words &= _MASKS.take(lens[..., None] - offsets, mode="clip")
    return words


def _fold(words: np.ndarray) -> np.ndarray:
    """One sort key per row of name words: the word itself, or a hash of
    several that a match must confirm word by word."""
    key = words[..., 0]
    for i in range(1, words.shape[-1]):
        key = key * _MIX + words[..., i]
    return key


def _scan_vertices(vblock: bytes):
    """Names, owners, targets and the name table of the vertex block,
    with ``" target\\n"`` rewritten to ``"+\\n"``, or None."""
    sep = _separators(np.frombuffer(vblock, np.uint8), _VERTEX_LINE)
    # Every line starts with "vertex ": a line "vertex target" became
    # "vertex+" and fails here.
    if sep is None or not _directives(vblock, b"vertex ", len(sep)):
        return None
    lens = sep[:, 1] - sep[:, 0] - 1
    count = -(-int(lens.max()) // 8)
    if lens.min() < 1 or len(lens) * 8 * count > _KEY_SPREAD * len(vblock):
        return None
    # Each name, and the owner token with the byte after it.
    both = _words(vblock, sep[:, :2] + 1, np.column_stack((lens, np.full_like(lens, 4))), count)
    owner = both[:, 1, 0]
    low, last = owner & 0xFFFFFF, owner >> 24
    is_max, is_target = low == _MAX, last == ord("+")
    if not ((is_max | (low == _MIN)) & (is_target | (last == ord("\n")))).all():
        return None
    words = both[:, 0]
    key = _fold(words)
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():  # a name declared twice, or a hash collision
        return None
    table = key, order, words[order]
    # The name bytes, each name ended by a newline, in one decode and split.
    joined = np.zeros((len(lens), 8 * count + 1), np.uint8)
    joined[:, :-1] = words.view(np.uint8)
    joined[np.arange(len(lens)), lens] = ord("\n")
    names = tuple(joined[joined != 0].tobytes().decode("ascii").split())
    owners = tuple(_PLAYERS[is_max.view(np.uint8)].tolist())
    return names, owners, frozenset(np.flatnonzero(is_target).tolist()), table


# Bytes of the edge block read at a time, cut at a line end, so that the
# temporary arrays stay small (a few MB) next to the arrays they fill.
_EDGE_CHUNK = 1 << 18


def _scan_edges(text: bytes, start: int, table):
    """The rows of the edge block ``text[start:]`` sorted by (src, dst),
    or None; also None for a weight beyond ``WEIGHT_CAP`` or a vertex
    with no out-edge."""
    count = table[2].shape[1]
    columns = []
    while start < len(text):
        end = text.find(b"\n", start + _EDGE_CHUNK) + 1 or len(text)
        chunk = text[start:end]
        start = end
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        sep = _separators(np.frombuffer(chunk, np.uint8), _EDGE_LINE)
        if sep is None or not _directives(chunk, b"edge ", len(sep)):
            return None
        starts = sep[:, :3] + 1
        lens = sep[:, 1:] - starts
        src_len, dst_len, wt_len = (int(col.max()) for col in lens.T)
        if (
            lens.min() < 1 or max(src_len, dst_len) > 8 * count or wt_len > _WEIGHT_LEN
            or 16 * len(sep) * count > _KEY_SPREAD * len(chunk)
        ):
            return None
        # Whole words, so each weight row ends in at least one zero byte.
        words = _words(chunk, starts, lens, max(count, wt_len // 8 + 1))
        ids = _lookup(words[:, :2, :count], table)
        wt = _weights(words[:, 2].view(np.uint8)[:, :wt_len + 1])
        if ids is None or wt is None:
            return None
        columns.append(np.column_stack((ids, wt)))
    rows = np.concatenate(columns)
    if rows[:, 2].min() < -WEIGHT_CAP or rows[:, 2].max() > WEIGHT_CAP:
        return None
    n = len(table[0])
    key = rows[:, 0] * n + rows[:, 1]
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        return None
    rows = rows[order]
    # The sorted sources lie in [0, n): all n occur when n - 1 steps do.
    src = rows[:, 0]
    if np.count_nonzero(src[1:] != src[:-1]) < n - 1:
        return None
    return rows


def _lookup(found: np.ndarray, table):
    """The ``[E, 2]`` vertex ids of the endpoints' ``[E, 2, W]`` name
    words, or None unless each is a declared name.  ``table`` holds the
    declared names' keys sorted, their ids in that order and their words
    in that order.  The endpoints are looked up in key order too, so that
    the table is read in order: about twice as fast as random lookups."""
    keys, order, words = table
    found = found.reshape(-1, words.shape[1])
    key = _fold(found)
    by_key = np.argsort(key)
    at = np.searchsorted(keys, key[by_key])
    if not (words.take(at, axis=0, mode="clip") == found[by_key]).all():
        return None
    ids = np.empty(len(key), np.int64)
    ids[by_key] = order.take(at, mode="clip")
    return ids.reshape(-1, 2)


def _weights(rows: np.ndarray):
    """The weight tokens, as rows of bytes that end in a zero byte, read as
    ``int`` reads them; or None when one has more than 18 digits or ``int``
    would refuse it: an optional ``-``, then digits with single ``_``
    between two digits."""
    width = rows.shape[1] - 1
    kind = _KIND.take(rows)
    # That grammar is: the first byte a digit or "-", and each next pair
    # of bytes one that it allows, the last pair a digit and the padding.
    if not (_FIRST.take(kind[:, 0]).all() and _PAIR.take(kind[:, :-1] * 5 + kind[:, 1:]).all()):
        return None
    if width > _DIGITS and ((kind == 1).sum(1) > _DIGITS).any():
        return None
    # Horner's rule over the token positions, passing over "-" and "_".
    scale, digit = _SCALE.take(kind), _DIGIT.take(rows)
    value = np.zeros(len(rows), np.int64)
    for j in range(width):
        value *= scale[:, j]
        value += digit[:, j]
    np.negative(value, out=value, where=kind[:, 0] == 2)
    return value


def _scan_lines(text: str):
    """The parts of an arena read line by line: the reference parser, and
    the one that raises every syntax error and warns of parallel edges."""
    objective: Optional[Objective] = None
    names: List[str] = []
    owners: List[Player] = []
    index: Dict[str, int] = {}
    targets: List[int] = []
    edges: Dict[Tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not toks:
            continue
        head = toks[0]
        if objective is None:
            if head != "objective":
                raise _syntax_error(lineno, raw, 0, "'objective' as first directive")
            if len(toks) != 2 or toks[1] not in ("mcr", "tp"):
                raise _syntax_error(lineno, raw, 0, "objective mcr|tp")
            objective = Objective(toks[1])
            continue
        if head == "objective":
            raise _syntax_error(lineno, raw, 0, "a single objective line")
        if head == "vertex":
            if len(toks) < 3 or len(toks) > 4:
                raise _syntax_error(lineno, raw, 0, "vertex <name> min|max [target]")
            name, owner_tok = toks[1], toks[2]
            if owner_tok not in ("min", "max"):
                raise _syntax_error(lineno, raw, 2, "min|max")
            if len(toks) == 4 and toks[3] != "target":
                raise _syntax_error(lineno, raw, 3, "'target'")
            if name in index:
                raise DuplicateVertexError(name, lineno)
            index[name] = len(names)
            names.append(name)
            owners.append(Player.MAX if owner_tok == "max" else Player.MIN)
            if len(toks) == 4:
                targets.append(index[name])
        elif head == "edge":
            if len(toks) != 4:
                raise _syntax_error(lineno, raw, 0, "edge <src> <dst> <integer>")
            s = index.get(toks[1])
            d = index.get(toks[2])
            if s is None or d is None:
                raise UndeclaredVertexError(toks[1] if s is None else toks[2], lineno)
            try:
                w = int(toks[3])
            except ValueError:
                raise _syntax_error(lineno, raw, 3, "an integer weight") from None
            old = edges.get((s, d))
            if old is None:
                edges[(s, d)] = w
            else:
                # Parallel edges are merged, keeping the best weight for the
                # owner of the source vertex.
                merged = max(old, w) if owners[s] is Player.MAX else min(old, w)
                warnings.warn(
                    f"line {lineno}: merged parallel edge {toks[1]}->{toks[2]} "
                    f"(kept weight {merged})",
                    stacklevel=3,
                )
                edges[(s, d)] = merged
        else:
            raise _syntax_error(lineno, raw, 0, "vertex|edge directive")
    if objective is None:
        raise GameSyntaxError(1, 1, "'objective' as first directive")
    return (
        tuple(names),
        tuple(owners),
        tuple((s, d, w) for (s, d), w in edges.items()),
        frozenset(targets),
        objective,
        index,
    )


def serialize(arena: Arena) -> bytes:
    """Canonical text form: objective, vertices in index order, sorted edges."""
    lines = [f"objective {arena.objective.value}"]
    for v, name in enumerate(arena.names):
        owner = "max" if arena.owners[v] is Player.MAX else "min"
        suffix = " target" if v in arena.targets else ""
        lines.append(f"vertex {name} {owner}{suffix}")
    for s, d, w in arena.edges:
        lines.append(f"edge {arena.names[s]} {arena.names[d]} {w}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_dot(arena: Arena, annot=None) -> bytes:
    """DOT digraph: Max vertices circles, Min boxes, targets doubled."""
    lines = ["digraph arena {"]
    for v, name in enumerate(arena.names):
        shape = "circle" if arena.owners[v] is Player.MAX else "box"
        attrs = [f"shape={shape}"]
        if v in arena.targets:
            attrs.append("peripheries=2")
        if annot is not None:
            attrs.append(f'xlabel="{to_json(annot[v])}"')
        lines.append(f'  {name} [{", ".join(attrs)}];')
    for s, d, w in arena.edges:
        lines.append(f'  {arena.names[s]} -> {arena.names[d]} [label="{w}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


FAMILIES = ("fig1a", "fig2a", "fig2b", "lsp_fig5", "layered")


@dataclass(frozen=True)
class FamilySpec:
    """Named example family with its parameters.

    ``objective`` overrides the family default (fig2a and layered support
    both objectives).
    """

    family: str
    W: int = 1
    n: int = 1
    objective: Optional[Objective] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.W < 1:
            raise ValueError("W must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def generate(spec: FamilySpec) -> Arena:
    """Build the requested example arena, exactly as documented per family."""
    W, n = spec.W, spec.n
    mk = make_arena
    if spec.family == "fig1a":
        arena = mk(
            ["v1", "v2", "v3", "v4", "v5"],
            [Player.MAX, Player.MIN, Player.MIN, Player.MAX, Player.MIN],
            [(0, 1, 2), (1, 0, -1), (1, 2, -1), (2, 3, 2), (3, 2, -2), (3, 4, -1), (4, 3, 1)],
            [],
            Objective.TP,
        )
    elif spec.family == "fig2a":
        objective = spec.objective or Objective.MCR
        arena = mk(
            ["v1", "v2", "v3"],
            [Player.MAX, Player.MIN, Player.MAX],
            [(0, 1, -1), (0, 2, -W), (1, 0, 0), (1, 2, 0), (2, 2, 0)],
            [2],
            objective,
        )
    elif spec.family == "fig2b":
        arena = mk(
            ["v1", "v2", "v3"],
            [Player.MAX, Player.MIN, Player.MAX],
            [(0, 1, -W), (1, 1, 1), (1, 2, W), (2, 2, 0)],
            [],
            Objective.TP,
        )
    elif spec.family == "lsp_fig5":
        arena = mk(
            ["v1", "v2", "v3", "v4", "t"],
            [Player.MAX, Player.MIN, Player.MIN, Player.MAX, Player.MAX],
            [
                (0, 1, -1),
                (0, 2, 0),
                (1, 0, 1),
                (1, 4, 3),
                (2, 0, 1),
                (2, 4, 1),
                (3, 3, -1),
                (3, 4, 0),
                (4, 4, 0),
            ],
            [4],
            Objective.MCR,
        )
    else:  # layered
        if 3 * n + 1 > vertex_cap():
            raise CapExceededError(f"{3 * n + 1} vertices exceed the cap {vertex_cap()}")
        objective = spec.objective or Objective.TP
        names: List[str] = []
        owners: List[Player] = []
        edges: List[Tuple[int, int, int]] = []
        for k in range(n):
            a, b, c = 3 * k, 3 * k + 1, 3 * k + 2
            names += [f"a{k}", f"b{k}", f"c{k}"]
            owners += [Player.MAX, Player.MIN, Player.MIN]
            nxt = 3 * (k + 1) if k < n - 1 else 3 * n
            edges += [(a, b, -1), (a, c, -W), (b, a, 0), (b, c, 0), (c, c, 1), (c, nxt, W)]
        t = 3 * n
        names.append("t")
        owners.append(Player.MAX)
        edges.append((t, t, 0))
        arena = mk(names, owners, edges, [t], objective)
    if spec.objective is not None and arena.objective is not spec.objective:
        if spec.objective is Objective.MCR and not arena.targets:
            raise ValueError(f"{spec.family} has no target set; cannot use mcr objective")
        arena = make_arena(arena.names, arena.owners, arena.edges, arena.targets, spec.objective)
    return arena


def write_results_json(values, stats) -> bytes:
    """Results document: values keyed by name in index order, then stats.
    The bytes are those of ``json.dumps(doc, indent=2)``; the
    values block is written with one join, since valid names need no
    escaping and an extended integer prints as its JSON literal once the
    infinities are quoted."""
    doc = {
        "stats": {
            "outer_iterations": stats.outer_iterations,
            "inner_iterations": stats.inner_iterations,
            "sweeps": stats.sweeps,
            "wall_ms": stats.wall_ms,
        },
    }
    pairs = map('": '.join, zip(values.arena.names, map(str, values.values)))
    body = ',\n    "'.join(pairs).replace(": -inf", ': "-inf"').replace(": +inf", ': "+inf"')
    block = '{\n    "' + body + "\n  }" if len(values) else "{}"
    rest = json.dumps(doc, indent=2)[len("{\n"):]
    return ('{\n  "values": ' + block + ",\n" + rest + "\n").encode("utf-8")
