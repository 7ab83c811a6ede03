"""The four benchmark workloads: seeded game files, the `qg` command each
operation runs, and the correctness gate applied to every output.

Every input is a plain game file written from the seed; the program under
test only ever sees that file.  The layered family is the paper's table
(values (0, 0, W) per layer and closed-form iteration counts); the seed
permutes its vertex declarations and edge lines, which changes every
internal index but none of the values or counts.  The random reachability
file is drawn from the seed outright.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from quantgames import gamefile
from quantgames.accel import solve_mcr_accelerated
from quantgames.arena import Arena, Objective, Player, ValueVector, normalize_target
from quantgames.extvalue import to_json
from quantgames.strategies import (
    MemorylessStrategy,
    MooreStrategy,
    make_switching,
    play_out,
)


class Mismatch(Exception):
    """An operation's output differs from the expected one."""


def _emit(arena: Arena, rng: random.Random) -> bytes:
    """Game-file text for ``arena`` with vertex declarations and edge lines
    in a seeded order."""
    order = list(range(arena.n))
    rng.shuffle(order)
    edges = list(arena.edges)
    rng.shuffle(edges)
    lines = [f"objective {arena.objective.value}"]
    for v in order:
        target = " target" if v in arena.targets else ""
        lines.append(f"vertex {arena.names[v]} {arena.owners[v].value}{target}")
    for s, d, w in edges:
        lines.append(f"edge {arena.names[s]} {arena.names[d]} {w}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class InputInfo:
    vertices: int
    edges: int
    bytes: int


@dataclass(frozen=True)
class Layered:
    """`qg solve` or `qg strategy` on the layered family."""

    name: str
    objective: Objective
    n: int
    W: int
    command: str  # "solve" or "strategy"
    accel: bool = False

    def make_input(self, seed: int) -> Tuple[bytes, InputInfo]:
        spec = gamefile.FamilySpec("layered", W=self.W, n=self.n, objective=self.objective)
        arena = gamefile.generate(spec)
        blob = _emit(arena, random.Random(f"{self.name}:{seed}"))
        return blob, InputInfo(arena.n, len(arena.edges), len(blob))

    def argv(self, path: str) -> List[str]:
        if self.command == "strategy":
            return ["strategy", path, "--player", "both"]
        return ["solve", path, "--json"] + (["--accel", "scc+paths"] if self.accel else [])

    def expected_values(self) -> Dict[str, int]:
        """Closed form: per layer k, a_k and b_k are worth 0 and c_k is worth W."""
        out = {"t": 0}
        for k in range(self.n):
            out[f"a{k}"] = 0
            out[f"b{k}"] = 0
            out[f"c{k}"] = self.W
        return out

    def expected_counts(self) -> Tuple[int, int]:
        """Closed-form (k_e, k_i), as frozen by the acceptance tests."""
        n, W = self.n, self.W
        if self.accel:
            return 4 * n + 2, 14 * n + 4
        return n + W + 1, (2 * W + 1) * n + W * W + 3

    def reference(self, blob: bytes) -> dict:
        ref = {"values": self.expected_values()}
        if self.command == "strategy":
            ref["arena"] = gamefile.parse(blob)
        return ref

    def check(self, out: bytes, ref: dict) -> None:
        if self.command == "strategy":
            _check_strategies(out, ref["arena"], ref["values"])
            return
        doc = json.loads(out)
        if doc["values"] != ref["values"]:
            raise Mismatch("values differ from the closed form")
        counts = (doc["stats"]["outer_iterations"], doc["stats"]["inner_iterations"])
        if counts != self.expected_counts():
            raise Mismatch(f"(k_e, k_i) = {counts}, closed form {self.expected_counts()}")


@dataclass(frozen=True)
class RandomMcr:
    """`qg solve FILE --json` on a seeded random reachability game."""

    name: str
    vertices: int
    max_out_degree: int = 3
    max_weight: int = 20
    target_prob: float = 0.01
    command: str = "solve"
    accel: bool = False

    def make_input(self, seed: int) -> Tuple[bytes, InputInfo]:
        rng = random.Random(f"{self.name}:{seed}")
        V = self.vertices
        lines = ["objective mcr"]
        for v in range(V):
            owner = "max" if rng.random() < 0.5 else "min"
            target = " target" if v == 0 or rng.random() < self.target_prob else ""
            lines.append(f"vertex v{v} {owner}{target}")
        edges = 0
        for v in range(V):
            for d in sorted(rng.sample(range(V), rng.randint(1, self.max_out_degree))):
                lines.append(f"edge v{v} v{d} {rng.randint(0, self.max_weight)}")
                edges += 1
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        return blob, InputInfo(V, edges, len(blob))

    def argv(self, path: str) -> List[str]:
        return ["solve", path, "--json"]

    def reference(self, blob: bytes) -> dict:
        """One solve through the accelerated path, which shares no loop
        with the plain solver the operations run."""
        arena = gamefile.parse(blob)
        res = solve_mcr_accelerated(normalize_target(arena))
        values = {name: to_json(v) for name, v in zip(arena.names, res.values.values)}
        return {"values": values, "sweeps": None}

    def check(self, out: bytes, ref: dict) -> None:
        doc = json.loads(out)
        if doc["values"] != ref["values"]:
            raise Mismatch("values differ from the accelerated reference solve")
        sweeps = doc["stats"]["sweeps"]
        if ref["sweeps"] is None:
            ref["sweeps"] = sweeps
        elif sweeps != ref["sweeps"]:
            raise Mismatch(f"sweep count {sweeps} differs from an earlier {ref['sweeps']}")


_SECTION = re.compile(rb"^--- (\S+) ---\n", re.MULTILINE)


def _sections(out: bytes) -> Dict[str, dict]:
    parts = _SECTION.split(out)
    if parts[0] != b"":
        raise Mismatch("strategy output does not start with a section header")
    return {parts[i].decode(): json.loads(parts[i + 1]) for i in range(1, len(parts), 2)}


def _check_strategies(out: bytes, arena: Arena, values: Dict[str, int]) -> None:
    """Max's memoryless strategy against Min's switching strategy and
    against Min's Moore strategy must realize the solved value from every
    vertex."""
    docs = _sections(out)
    if sorted(docs) != ["max", "min", "min_moore"]:
        raise Mismatch(f"unexpected strategy sections {sorted(docs)}")
    ix = {name: i for i, name in enumerate(arena.names)}

    def choice(table: Dict[str, str]) -> Dict[int, int]:
        return {ix[v]: ix[d] for v, d in table.items()}

    smax = MemorylessStrategy(Player.MAX, choice(docs["max"]["choice"]))
    want = ValueVector(arena, [values[name] for name in arena.names])
    switching = make_switching(
        MemorylessStrategy(Player.MIN, choice(docs["min"]["sigma1"])),
        MemorylessStrategy(Player.MIN, choice(docs["min"]["sigma2"])),
        want,
        arena,
    )
    moore_doc = docs["min_moore"]
    size = moore_doc["memory_size"]
    table = {int(m): choice(row) for m, row in moore_doc["decision"].items()}
    # The rewind machine counts play length and saturates at its last state.
    moore = MooreStrategy(
        Player.MIN, 0, lambda m, v: min(m + 1, size - 1), lambda m, v: table[m][v], size
    )
    for sigma_min, label in ((switching, "switching"), (moore, "moore")):
        for v in range(arena.n):
            _, payoff = play_out(arena, smax, sigma_min, v)
            if payoff != want[v]:
                raise Mismatch(
                    f"max vs {label} from {arena.names[v]}: payoff {payoff}, value {want[v]}"
                )


# Why each workload exists is in BENCHMARK.json and NOTES.md.  Sizes keep
# one operation between about 0.2 and 0.8 s on a 2-vCPU x86 VM, so a
# 25 s run holds a few dozen operations and the tail percentile has ten
# operations beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        Layered("layered-tp-accel", Objective.TP, n=500, W=50, command="solve", accel=True),
        Layered("layered-tp-plain", Objective.TP, n=100, W=50, command="solve"),
        RandomMcr("random-mcr-file", vertices=20_000),
        Layered("layered-mcr-strategy", Objective.MCR, n=15, W=50, command="strategy"),
    )
}
