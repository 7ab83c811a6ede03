"""Game arenas: weighted directed graphs with a Max/Min vertex partition.

An arena is immutable after construction.  ``validate`` enforces the model
invariants (deadlock-freeness, weight and size caps, simple edges); every
solver in this package validates its arena.

``Arena.edge_array`` is the stored form of the edges: ``[E, 3]`` int64
rows ``(src, dst, w)``, sorted and read-only.  Validation, the compiled
solver arrays, ``max_abs_weight`` and the derived games read it; the
parser, ``normalize_target`` and the derived games build arenas from such
rows (``edge_rows``) and name their new vertices with ``fresh_names``.
``Arena.edges``, the sorted ``(src, dst, w)`` tuples, is built lazily
from it on first use.  An arena built from tuples, as the generators and
tests do, keeps them and builds the array on first use instead.  The
per-vertex successor tuples and the name -> index dict behind
``Arena.index`` are also built lazily, so a plain reachability solve from
a file builds none of them.  ``Arena.is_max``, the owners as a read-only
bool array, is the form the compiled solver arrays, ``make_bipartite``
and the attractor read; the bulk parser and ``normalize_target`` hand in
the one they computed, and any other arena builds it from ``owners`` on
first use.  A successful ``validate`` records the vertex cap it checked
against on the arena, and a later call under the same cap returns at
once.  The bulk parser and ``normalize_target`` build their arenas valid
by construction, with their rows already sorted: they pass that cap to
the constructor, which records it and takes the rows without proving the
sort again, so ``_check`` never runs on them.  Rows from any other caller
are checked, and sorted if need be.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
from functools import partial
from enum import Enum
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .extvalue import ExtValue

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# Every name valid, joined by newlines; a name holding a newline is caught
# by the line count.
_NAMES_RE = re.compile(r"[A-Za-z0-9_]+(?:\n[A-Za-z0-9_]+)*\Z")
WEIGHT_CAP = 10**9
DEFAULT_VERTEX_CAP = 10**6


def vertex_cap() -> int:
    """Maximum vertex count; override with QG_MAX_VERTICES, a whole
    number of at least 1, else ``ValueError``."""
    raw = os.environ.get("QG_MAX_VERTICES")
    if not raw:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QG_MAX_VERTICES={raw!r} is not a whole number of vertices of at least 1")
    return cap


class Player(Enum):
    MAX = "max"
    MIN = "min"

    def opponent(self) -> "Player":
        return Player.MIN if self is Player.MAX else Player.MAX


class Objective(Enum):
    MCR = "mcr"
    TP = "tp"


class ArenaError(Exception):
    """Base class for arena validation failures."""


class DeadlockVertexError(ArenaError):
    def __init__(self, name: str) -> None:
        super().__init__(f"vertex {name!r} has no outgoing edge")
        self.vertex = name


class WeightOverflowError(ArenaError):
    def __init__(self, edge: Tuple[str, str, int]) -> None:
        super().__init__(f"edge {edge[0]}->{edge[1]} weight {edge[2]} exceeds +/-{WEIGHT_CAP}")
        self.edge = edge


class DuplicateEdgeError(ArenaError):
    def __init__(self, src: str, dst: str) -> None:
        super().__init__(f"duplicate edge {src}->{dst}")
        self.edge = (src, dst)


class EmptyTargetError(ArenaError):
    def __init__(self) -> None:
        super().__init__("min-cost reachability arena needs a nonempty target set")


class BadNameError(ArenaError):
    def __init__(self, name: str) -> None:
        super().__init__(f"bad vertex name {name!r}")
        self.name = name


class CapExceededError(ArenaError):
    pass


class Arena:
    """Weighted game graph.  Edges are kept sorted by (src, dst).

    ``edges`` is either an iterable of ``(src, dst, w)`` tuples or an int64
    ``[E, 3]`` array of such rows.  The arena stores the form it is given
    (rows sorted); the other form is derived on first use and cached.
    ``index`` is an optional name -> index dict the caller already holds.
    Arenas are immutable and compare equal when their names, owners,
    sorted edges, targets and objective are equal.

    ``_is_max`` and ``_cap`` are for the builders of arenas valid by
    construction, the bulk parser and ``normalize_target``: the owners'
    Max flags as a bool array, and the vertex cap the arena is valid
    under.  With ``_cap`` the rows are taken as sorted, unchecked, and the
    cap is recorded, so ``validate`` returns at once under it.
    """

    __slots__ = (
        "names", "owners", "targets", "objective",
        "_edges", "_edge_array", "_succ", "_index", "_is_max", "_validated_cap",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        owners: Tuple[Player, ...],
        edges,
        targets: frozenset,
        objective: Objective,
        index: Optional[Dict[str, int]] = None,
        *,
        _is_max: Optional[np.ndarray] = None,
        _cap: Optional[int] = None,
    ) -> None:
        init = partial(object.__setattr__, self)
        init("names", names)
        init("owners", owners)
        init("targets", targets)
        init("objective", objective)
        if isinstance(edges, np.ndarray):
            init("_edges", None)
            init("_edge_array", _read_only(edges if _cap else _sorted_rows(edges)))
        else:
            init("_edges", tuple(sorted(edges)))
            init("_edge_array", None)
        init("_succ", None)
        init("_index", index)
        init("_is_max", None if _is_max is None else _read_only(_is_max))
        init("_validated_cap", _cap)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Arena is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Arena is immutable")

    def __reduce__(self):
        edges = self._edges if self._edges is not None else self._edge_array
        return self.__class__, (self.names, self.owners, edges, self.targets, self.objective)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.names, self.owners, self.targets, self.objective) != (
            other.names, other.owners, other.targets, other.objective
        ):
            return False
        try:
            return np.array_equal(self.edge_array, other.edge_array)
        except OverflowError:
            return self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.names, self.owners, self.targets, self.objective))

    def __repr__(self) -> str:
        return (
            f"Arena(names={self.names!r}, owners={self.owners!r}, edges={self.edges!r}, "
            f"targets={self.targets!r}, objective={self.objective!r})"
        )

    @property
    def edges(self) -> Tuple[Tuple[int, int, int], ...]:
        """The edges as sorted ``(src, dst, w)`` tuples; built on first use
        when the arena was built from an array."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(map(tuple, self._edge_array.tolist())))
        return self._edges

    @property
    def edge_array(self) -> np.ndarray:
        """The edges as read-only ``[E, 3]`` int64 rows ``(src, dst, w)``,
        sorted; built on first use when the arena was built from tuples.
        Raises ``OverflowError`` when a value does not fit int64."""
        if self._edge_array is None:
            flat = np.fromiter(
                itertools.chain.from_iterable(self._edges), dtype=np.int64, count=3 * len(self._edges)
            )
            flat.flags.writeable = False
            object.__setattr__(self, "_edge_array", flat.reshape(-1, 3))
        return self._edge_array

    @property
    def is_max(self) -> np.ndarray:
        """A read-only bool array, True at the Max vertices: given by the
        bulk parser and ``normalize_target``, else built from ``owners``
        on first use."""
        if self._is_max is None:
            # The partial looks ``Player.MAX`` up once, not once per vertex
            # (an enum member lookup costs about 0.2 us).
            is_max = partial(operator.is_, Player.MAX)
            flags = np.fromiter(map(is_max, self.owners), dtype=bool, count=self.n)
            object.__setattr__(self, "_is_max", _read_only(flags))
        return self._is_max

    @property
    def n(self) -> int:
        return len(self.names)

    def successors(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(dst, weight) pairs of v, ascending by dst.  The first call builds
        them for every vertex."""
        if self._succ is None:
            succ: list = [[] for _ in self.names]
            rows = self._edges if self._edges is not None else zip(*self._edge_array.T.tolist())
            for s, d, w in rows:
                succ[s].append((d, w))
            object.__setattr__(self, "_succ", tuple(tuple(x) for x in succ))
        return self._succ[v]

    def successor_ids(self, v: int) -> Tuple[int, ...]:
        return tuple(d for d, _ in self.successors(v))

    def weight(self, src: int, dst: int) -> int:
        for d, w in self.successors(src):
            if d == dst:
                return w
        raise KeyError(f"no edge {self.names[src]}->{self.names[dst]}")

    def has_edge(self, src: int, dst: int) -> bool:
        return any(d == dst for d, _ in self.successors(src))

    def index(self, name: str) -> int:
        """Index of the vertex called ``name``, through a dict built on
        first use (the first of repeated names wins, as in ``names``)."""
        if self._index is None:
            n = len(self.names)
            object.__setattr__(self, "_index", dict(zip(reversed(self.names), range(n - 1, -1, -1))))
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no vertex named {name!r}") from None

    def is_target(self, v: int) -> bool:
        return v in self.targets


def _sorted_rows(arr: np.ndarray) -> np.ndarray:
    """The ``[E, 3]`` int64 rows ``arr``, sorted as their tuples would
    be; sorted input is not copied."""
    if arr.dtype != np.int64 or arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("an edge array must be int64 of shape [E, 3]")
    s, d = arr[:, 0], arr[:, 1]
    if not ((s[1:] > s[:-1]) | ((s[1:] == s[:-1]) & (d[1:] > d[:-1]))).all():
        arr = arr[np.lexsort(arr.T[::-1])]
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``."""
    view = arr.view()
    view.flags.writeable = False
    return view


def make_arena(
    names: Sequence[str],
    owners: Sequence[Player],
    edges,
    targets: Iterable[int] = (),
    objective: Objective = Objective.TP,
) -> Arena:
    """Build and validate an arena in one step.  ``edges`` is an iterable
    of ``(src, dst, w)`` tuples or an int64 ``[E, 3]`` array."""
    arena = Arena(tuple(names), tuple(owners), edges, frozenset(targets), objective)
    validate(arena)
    return arena


def validate(arena: Arena) -> None:
    """Raise an ArenaError unless every arena invariant holds.  A success
    is recorded with the vertex cap; a later call under the same cap
    returns at once."""
    cap = vertex_cap()
    if arena._validated_cap == cap:
        return
    _check(arena, cap)
    object.__setattr__(arena, "_validated_cap", cap)


def _check(arena: Arena, cap: int) -> None:
    """The checks of ``validate``, vectorized.  A fault found is named by a
    Python scan, so the first offender in scan order is the one raised."""
    n = arena.n
    if n == 0:
        raise ArenaError("arena has no vertices")
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the cap {cap}")
    if len(arena.owners) != n:
        raise ArenaError("owner list length mismatch")
    joined = "\n".join(arena.names)
    if joined.count("\n") != n - 1 or not _NAMES_RE.match(joined) or len(set(arena.names)) != n:
        _scan_names(arena)
    try:
        arr = arena.edge_array
    except OverflowError:
        _scan_edges(arena)
        raise
    src, dst, w = arr.T
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (w < -WEIGHT_CAP) | (w > WEIGHT_CAP)
    bad[1:] |= (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if bad.any():
        _scan_edges(arena)
    deadlocked = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    if len(deadlocked):
        raise DeadlockVertexError(arena.names[deadlocked[0]])
    for t in arena.targets:
        if not (0 <= t < n):
            raise ArenaError(f"target index {t} out of range")
    if arena.objective is Objective.MCR and not arena.targets:
        raise EmptyTargetError()


def _scan_names(arena: Arena) -> None:
    """Raise BadNameError for the first invalid or repeated name."""
    seen_names = set()
    for name in arena.names:
        if not NAME_RE.match(name):
            raise BadNameError(name)
        if name in seen_names:
            raise BadNameError(name)
        seen_names.add(name)


def _scan_edges(arena: Arena) -> None:
    """Raise for the first faulty edge: range, then weight, then duplicate."""
    n = arena.n
    seen_pairs = set()
    for s, d, w in arena.edges:
        if not (0 <= s < n and 0 <= d < n):
            raise ArenaError(f"edge endpoint out of range: {(s, d, w)}")
        if abs(w) > WEIGHT_CAP:
            raise WeightOverflowError((arena.names[s], arena.names[d], w))
        if (s, d) in seen_pairs:
            raise DuplicateEdgeError(arena.names[s], arena.names[d])
        seen_pairs.add((s, d))


def max_abs_weight(arena: Arena) -> int:
    w = arena.edge_array[:, 2]
    return max(int(w.max()), -int(w.min())) if len(w) else 0


def is_normalized_mcr(arena: Arena) -> bool:
    """Single target whose only edge is a 0-weight self loop."""
    if arena.objective is not Objective.MCR or len(arena.targets) != 1:
        return False
    (t,) = arena.targets
    arr = arena.edge_array
    lo, hi = np.searchsorted(arr[:, 0], (t, t + 1))
    return bool(hi - lo == 1 and arr[lo, 1] == t and arr[lo, 2] == 0)


def edge_rows(src, dst, w=0) -> np.ndarray:
    """``[E, 3]`` int64 edge rows ``(src, dst, w)`` from the three
    broadcast against each other and flattened."""
    rows = np.stack(np.broadcast_arrays(src, dst, w), -1)
    return rows.reshape(-1, 3).astype(np.int64, copy=False)


def fresh_names(taken: Collection[str], wanted: Sequence[str]) -> List[str]:
    """Names for new vertices, the one allocator of the derived games.

    Each wanted name is kept unless ``taken`` or an earlier name of this
    call holds it; then it gets the first free numeric suffix (``t`` ->
    ``t0``, ``t1``, ...).  For one wanted name ``taken`` is probed as
    given, since a scan of a tuple costs less than building a set of it;
    for more, one set is built per call, not one per name.
    """
    if len(wanted) > 1:
        taken = set(taken)
    used = set()
    out = []
    for base in wanted:
        name = base
        i = 0
        while name in used or name in taken:
            name = f"{base}{i}"
            i += 1
        used.add(name)
        out.append(name)
    return out


def normalize_target(arena: Arena) -> Arena:
    """Rewire an MCR arena to a single Max-owned target with a 0 self loop.

    Former targets keep their name, owner and incoming edges but forward
    straight to the fresh target for free: the payoff is sealed at the
    first target visit, so leaving them their old moves would hand the
    owner new (value-changing) options.  Canonical inputs are returned
    unchanged.  Any other input gains a vertex, so it may have at most
    ``vertex_cap() - 1`` vertices; that is checked before anything is
    built (``CapExceededError``).  The rewiring works on the sorted edge
    array: of each former target's rows it keeps the first and overwrites
    it with the forwarding row, drops the others and appends the fresh
    target's loop, so the rows stay sorted.

    The result is valid by construction, and built so: ``validate``
    returns at once on it and its sorted rows are not checked again.  The
    input is valid, the fresh name matches ``NAME_RE`` and is not taken,
    every vertex keeps or gains exactly one row per successor, and the
    fresh target's loop is its only row.
    """
    if arena.objective is not Objective.MCR:
        raise ArenaError("normalize_target expects an MCR arena")
    validate(arena)
    if is_normalized_mcr(arena):
        return arena
    cap = vertex_cap()
    if arena.n + 1 > cap:
        raise CapExceededError(
            f"{arena.n} vertices and a fresh target exceed the cap {cap}: an MCR game "
            f"that needs a fresh target may have at most {cap - 1} vertices"
        )
    t = arena.n
    names = arena.names + tuple(fresh_names(arena.names, ["t"]))
    owners = arena.owners + (Player.MAX,)
    is_max = np.append(arena.is_max, True)
    arr = arena.edge_array
    src = arr[:, 0]
    olds = np.array(sorted(arena.targets), dtype=np.int64)
    keep = np.ones(t, dtype=bool)
    keep[olds] = False
    keep = keep[src]
    # Each former target has a row (no vertex deadlocks): its first.
    keep[np.searchsorted(src, olds)] = True
    edges = np.empty((np.count_nonzero(keep) + 1, 3), dtype=np.int64)
    np.compress(keep, arr, axis=0, out=edges[:-1])
    edges[np.searchsorted(edges[:-1, 0], olds), 1:] = (t, 0)
    edges[-1] = (t, t, 0)
    return Arena(names, owners, edges, frozenset((t,)), Objective.MCR, _is_max=is_max, _cap=cap)


class ValueVector:
    """Per-vertex assignment of extended integers for one arena."""

    __slots__ = ("arena", "values")

    def __init__(self, arena: Arena, values: Sequence[ExtValue]) -> None:
        if len(values) != arena.n:
            raise ValueError("value vector length mismatch")
        self.arena = arena
        self.values = list(values)

    def __getitem__(self, key) -> ExtValue:
        if isinstance(key, str):
            key = self.arena.index(key)
        return self.values[key]

    def __iter__(self) -> Iterator[ExtValue]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueVector):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v}" for n, v in self.items())
        return f"ValueVector({pairs})"

    def items(self) -> Iterator[Tuple[str, ExtValue]]:
        return zip(self.arena.names, self.values)

    def pointwise_le(self, other: "ValueVector") -> bool:
        return all(a <= b for a, b in zip(self.values, other.values))


def scale_weights(arena: Arena, c: int) -> Arena:
    """Multiply all edge weights by a positive integer c.  The products are
    Python ints, so ``validate`` sees an overflow that int64 would wrap."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    edges = tuple((s, d, w * c) for s, d, w in arena.edges)
    return make_arena(arena.names, arena.owners, edges, arena.targets, arena.objective)
