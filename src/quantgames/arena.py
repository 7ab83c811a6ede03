"""Game arenas: weighted directed graphs with a Max/Min vertex partition.

An arena is immutable after construction.  ``validate`` enforces the model
invariants (deadlock-freeness, weight and size caps, simple edges); every
solver in this package assumes a validated arena.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence, Tuple

from .extvalue import ExtValue

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
WEIGHT_CAP = 10**9
DEFAULT_VERTEX_CAP = 10**6


def vertex_cap() -> int:
    """Maximum vertex count; override with QG_MAX_VERTICES."""
    raw = os.environ.get("QG_MAX_VERTICES")
    return int(raw) if raw else DEFAULT_VERTEX_CAP


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


@dataclass(frozen=True)
class Arena:
    """Weighted game graph.  Edges are kept sorted by (src, dst)."""

    names: Tuple[str, ...]
    owners: Tuple[Player, ...]
    edges: Tuple[Tuple[int, int, int], ...]
    targets: frozenset
    objective: Objective
    _succ: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        succ: list = [[] for _ in self.names]
        for s, d, w in self.edges:
            succ[s].append((d, w))
        object.__setattr__(self, "_succ", tuple(tuple(x) for x in succ))

    @property
    def n(self) -> int:
        return len(self.names)

    def successors(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(dst, weight) pairs of v, ascending by dst."""
        return self._succ[v]

    def successor_ids(self, v: int) -> Tuple[int, ...]:
        return tuple(d for d, _ in self._succ[v])

    def weight(self, src: int, dst: int) -> int:
        for d, w in self._succ[src]:
            if d == dst:
                return w
        raise KeyError(f"no edge {self.names[src]}->{self.names[dst]}")

    def has_edge(self, src: int, dst: int) -> bool:
        return any(d == dst for d, _ in self._succ[src])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no vertex named {name!r}") from None

    def is_target(self, v: int) -> bool:
        return v in self.targets

    def owner(self, v: int) -> Player:
        return self.owners[v]


def make_arena(
    names: Sequence[str],
    owners: Sequence[Player],
    edges: Iterable[Tuple[int, int, int]],
    targets: Iterable[int] = (),
    objective: Objective = Objective.TP,
) -> Arena:
    """Build and validate an arena in one step."""
    arena = Arena(tuple(names), tuple(owners), tuple(edges), frozenset(targets), objective)
    validate(arena)
    return arena


def validate(arena: Arena) -> None:
    """Raise an ArenaError unless every arena invariant holds."""
    n = arena.n
    if n == 0:
        raise ArenaError("arena has no vertices")
    if n > vertex_cap():
        raise CapExceededError(f"{n} vertices exceed the cap {vertex_cap()}")
    if len(arena.owners) != n:
        raise ArenaError("owner list length mismatch")
    seen_names = set()
    for name in arena.names:
        if not NAME_RE.match(name):
            raise BadNameError(name)
        if name in seen_names:
            raise BadNameError(name)
        seen_names.add(name)
    seen_pairs = set()
    for s, d, w in arena.edges:
        if not (0 <= s < n and 0 <= d < n):
            raise ArenaError(f"edge endpoint out of range: {(s, d, w)}")
        if abs(w) > WEIGHT_CAP:
            raise WeightOverflowError((arena.names[s], arena.names[d], w))
        if (s, d) in seen_pairs:
            raise DuplicateEdgeError(arena.names[s], arena.names[d])
        seen_pairs.add((s, d))
    for v in range(n):
        if not arena.successors(v):
            raise DeadlockVertexError(arena.names[v])
    for t in arena.targets:
        if not (0 <= t < n):
            raise ArenaError(f"target index {t} out of range")
    if arena.objective is Objective.MCR and not arena.targets:
        raise EmptyTargetError()


def max_abs_weight(arena: Arena) -> int:
    return max((abs(w) for _, _, w in arena.edges), default=0)


def is_normalized_mcr(arena: Arena) -> bool:
    """Single target whose only edge is a 0-weight self loop."""
    if arena.objective is not Objective.MCR or len(arena.targets) != 1:
        return False
    (t,) = arena.targets
    return arena.successors(t) == ((t, 0),)


def fresh_name(taken: Iterable[str], base: str) -> str:
    used = set(taken)
    if base not in used:
        return base
    i = 0
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def normalize_target(arena: Arena) -> Arena:
    """Rewire an MCR arena to a single Max-owned target with a 0 self loop.

    Former targets keep their name, owner and incoming edges but forward
    straight to the fresh target for free: the payoff is sealed at the
    first target visit, so leaving them their old moves would hand the
    owner new (value-changing) options.  Canonical inputs are returned
    unchanged.
    """
    if arena.objective is not Objective.MCR:
        raise ArenaError("normalize_target expects an MCR arena")
    validate(arena)
    if is_normalized_mcr(arena):
        return arena
    t = arena.n
    names = arena.names + (fresh_name(arena.names, "t"),)
    owners = arena.owners + (Player.MAX,)
    edges = [(s, d, w) for s, d, w in arena.edges if s not in arena.targets]
    for old in sorted(arena.targets):
        edges.append((old, t, 0))
    edges.append((t, t, 0))
    return make_arena(names, owners, edges, [t], Objective.MCR)


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
    """Multiply all edge weights by a positive integer c."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    edges = tuple((s, d, w * c) for s, d, w in arena.edges)
    return make_arena(arena.names, arena.owners, edges, arena.targets, arena.objective)
