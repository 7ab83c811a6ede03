"""Text format for game files, DOT/JSON export, and example generators.

Format, one directive per line, ``#`` starts a comment::

    objective mcr|tp          # exactly once, first non-comment line
    vertex <name> min|max [target]
    edge <src> <dst> <integer>

Vertex indices follow declaration order.  ``parse`` returns a validated
arena; ``serialize`` emits a canonical byte form with ``parse(serialize(a))``
isomorphic to ``a``.

``parse`` has two paths that end in the same arena construction.  A clean
file is read in bulk (``_scan_bulk``): the text is split once into a
vertex block and an edge block, each block into tokens, names map to
indices through one dict, weights are read with ``int`` into an int64
column, and one sort on ``src * n + dst`` orders the edges and finds
parallel ones; the arena stores that ``[E, 3]`` array and builds no edge
tuples.  Clean means: only ``[A-Za-z0-9_-]``, spaces and newlines; the
objective line first, then every vertex line, then every edge line; no
blank or indented line; no vertex named ``vertex`` or ``edge``; every
endpoint declared, no name declared twice, no parallel edge and every
weight within int64.  Any other file (a comment, a tab, CRLF line ends, a
bad token, ...) goes to the line parser (``_scan_lines``), which splits
each line with ``str.split``.  It is the reference and the only path that
raises ``GameSyntaxError``, ``UndeclaredVertexError`` and
``DuplicateVertexError`` or warns of merged parallel edges; token columns
are computed only on its error path.
"""

from __future__ import annotations

import json
import string
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .arena import Arena, CapExceededError, Objective, Player, make_arena, validate, vertex_cap
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
    is clean, else line by line."""
    parts = _scan_bulk(text)
    if parts is None:
        parts = _scan_lines(text.decode("utf-8") if isinstance(text, bytes) else text)
    arena = Arena(*parts)
    validate(arena)
    return arena


# Every byte a clean file may hold.  Anything else (a comment, a tab, a
# carriage return, non-ASCII text) sends the file to the line parser.
_CLEAN_BYTES = (string.ascii_letters + string.digits + "_- \n").encode("ascii")
# Owner tokens once " target\n" is rewritten to "+\n".
_OWNER_TOKENS = {"max": Player.MAX, "min": Player.MIN, "max+": Player.MAX, "min+": Player.MIN}


def _scan_bulk(text: Union[str, bytes]):
    """The parts of an arena read from a clean file in bulk, or None when
    the file needs the line parser.

    A clean file holds only ``[A-Za-z0-9_-]``, spaces and newlines: the
    objective line, then the vertex lines, then the edge lines, with no
    blank line, no indent and no parallel edge, every endpoint declared,
    no vertex named ``vertex`` or ``edge`` and every weight within int64.
    For those the result equals the line parser's.  A block's tokens are
    sliced into columns only once they provably line up.  The block must
    hold three (four) tokens per line, each line starting with its
    directive, and every token in column 0 (tokens 0, 3, 6, ... or 0, 4,
    8, ...) must be a directive.  Column 0 holds one token per line, so
    either every line starts there, and then each line has three (four)
    tokens, or some line's directive lies in another column: in a name
    column it would be a vertex named ``vertex`` or ``edge``, which is
    refused up front (so on an edge line the name lookup raises
    ``KeyError``); in the owner column the owner lookup raises
    ``KeyError``; in the weight column ``int`` raises ``ValueError``.  Each
    sends the file to the line parser, and no O(tokens) count of the
    directives is needed.
    """
    if isinstance(text, str):
        if not text.isascii() or text.encode("ascii").translate(None, _CLEAN_BYTES):
            return None
    elif text.translate(None, _CLEAN_BYTES):
        return None
    else:
        text = text.decode("ascii")
    head, _, rest = text.partition("\n")
    if head not in ("objective mcr", "objective tp") or not rest.startswith("vertex "):
        return None
    k = rest.find("\nedge ") + 1
    if k == 0:
        return None
    vblock, eblock = rest[:k], rest[k:]
    del text, rest
    nv = vblock.count("\n")
    ne = eblock.count("\n") + (not eblock.endswith("\n"))
    # Every line starts with its directive, so no line is blank, indented
    # or of another kind, and no vertex line follows an edge line.
    if vblock.count("\nvertex ") != nv - 1 or eblock.count("\nedge ") != ne - 1:
        return None
    vertices = _scan_vertices(vblock, nv)
    if vertices is None:
        return None
    names, owners, targets, index = vertices
    edges = _scan_edges(eblock, index)
    if edges is None:
        return None
    return names, owners, edges, targets, Objective(head[len("objective "):]), index


def _scan_vertices(vblock: str, nv: int):
    """Names, owners, targets and name index of the vertex block's ``nv``
    lines, or None."""
    # " target\n" becomes "+\n" so that every vertex line has three tokens;
    # on a line "vertex target" that would glue "+" to the directive.
    if vblock.startswith("vertex target\n") or "\nvertex target\n" in vblock:
        return None
    toks = vblock.replace(" target\n", "+\n").split()
    if len(toks) != 3 * nv or toks[::3].count("vertex") != nv:
        return None
    names = tuple(toks[1::3])
    index = dict(zip(names, range(nv)))
    # No name may be a directive (see ``_scan_bulk``); a repeated name
    # shrinks the index.
    if len(index) != nv or "vertex" in index or "edge" in index:
        return None
    owner_toks = toks[2::3]
    try:
        owners = tuple(map(_OWNER_TOKENS.__getitem__, owner_toks))
    except KeyError:
        return None
    is_target = np.fromiter(map(len, owner_toks), np.int64, nv) == len("max+")
    return names, owners, frozenset(np.flatnonzero(is_target).tolist()), index


# Characters of the edge block split at a time, so that the token lists
# stay small (about 2 MB) next to the arrays they fill.
_EDGE_CHUNK = 1 << 18


def _scan_edges(eblock: str, index: Dict[str, int]):
    """The edge block's rows sorted by (src, dst), or None."""
    columns = []
    start = 0
    while start < len(eblock):
        end = eblock.find("\n", start + _EDGE_CHUNK) + 1 or len(eblock)
        chunk = eblock[start:end]
        start = end
        lines = chunk.count("\n") + (not chunk.endswith("\n"))
        toks = chunk.split()
        if len(toks) != 4 * lines or toks[::4].count("edge") != lines:
            return None
        try:
            columns.append((
                np.fromiter(map(index.__getitem__, toks[1::4]), np.int64, lines),
                np.fromiter(map(index.__getitem__, toks[2::4]), np.int64, lines),
                # int() keeps the line parser's rules (signs, ``1_000``); a
                # weight beyond int64 raises OverflowError.
                np.fromiter(map(int, toks[3::4]), np.int64, lines),
            ))
        except (KeyError, ValueError, OverflowError):
            return None
    src, dst, wt = (np.concatenate(col) for col in zip(*columns))
    key = src * len(index) + dst
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        return None
    return np.column_stack((src[order], dst[order], wt[order]))


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


def write_results_json(values, stats, strategies=None) -> bytes:
    """Results document: values keyed by name in index order, stats,
    strategies.  The bytes are those of ``json.dumps(doc, indent=2)``; the
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
    if strategies is not None:
        doc["strategies"] = strategies
    pairs = map('": '.join, zip(values.arena.names, map(str, values.values)))
    body = ',\n    "'.join(pairs).replace(": -inf", ': "-inf"').replace(": +inf", ': "+inf"')
    block = '{\n    "' + body + "\n  }" if len(values) else "{}"
    rest = json.dumps(doc, indent=2)[len("{\n"):]
    return ('{\n  "values": ' + block + ",\n" + rest + "\n").encode("utf-8")
