"""Opt-in scale test at the vertex cap: ``pytest -m scale``.

A seeded random reachability file of 999,999 vertices (with the fresh
target, the solved arena holds exactly the cap of 10^6) is read by the
bulk parser and by the line parser, which must build equal arenas, and
solved by ``qg solve`` with and without ``--accel scc``, which must print
the same values.  ``gamefile.parse`` and ``normalize_target`` record
their arenas as validated without ``arena._check``, which must accept
both when run directly.  The times of the bulk scan, ``parse`` and
``normalize_target`` are printed.
"""

import time

import numpy as np
import pytest

from quantgames import arena as arena_mod
from quantgames import cli, gamefile
from quantgames.arena import Arena, normalize_target, vertex_cap

pytestmark = pytest.mark.scale

VERTICES = 999_999


def reachability_file(vertices: int, seed: int) -> bytes:
    """A seeded random reachability game file, drawn with numpy: owners at
    even odds, v0 and about 1% of the vertices targets, one to three
    distinct successors per vertex, weights 0-20, edges in (src, dst)
    order."""
    rng = np.random.default_rng(seed)
    owners = np.where(rng.random(vertices) < 0.5, "max", "min").tolist()
    target = rng.random(vertices) < 0.01
    target[0] = True
    suffix = np.where(target, " target", "").tolist()
    src = np.repeat(np.arange(vertices), rng.integers(1, 4, vertices))
    src, dst = np.divmod(np.unique(src * vertices + rng.integers(0, vertices, len(src))), vertices)
    wt = rng.integers(0, 21, len(src))
    lines = ["objective mcr\n"]
    lines += [f"vertex v{v} {o}{t}\n" for v, o, t in zip(range(vertices), owners, suffix)]
    lines += [f"edge v{s} v{d} {w}\n" for s, d, w in zip(src.tolist(), dst.tolist(), wt.tolist())]
    return "".join(lines).encode("ascii")


def test_qg_solve_at_the_vertex_cap(tmp_path, capsys):
    blob = reachability_file(VERTICES, seed=18)
    started = time.perf_counter()
    parts = gamefile._scan_bulk(blob)
    parse_s = time.perf_counter() - started
    assert parts is not None
    bulk = Arena(*parts)
    del parts
    started = time.perf_counter()
    arena = gamefile.parse(blob)
    full_parse_s = time.perf_counter() - started
    started = time.perf_counter()
    norm = normalize_target(arena)
    normalize_s = time.perf_counter() - started
    cap = vertex_cap()
    assert norm.n == cap == 10**6
    arena_mod._check(arena, cap)
    arena_mod._check(norm, cap)
    assert arena == bulk
    del arena, norm
    with capsys.disabled():
        print(
            f"\nbulk parse of {bulk.n:,} vertices, {len(bulk.edge_array):,} edges "
            f"({len(blob):,} bytes): {parse_s:.2f} s; gamefile.parse {full_parse_s:.2f} s, "
            f"normalize_target {normalize_s:.2f} s"
        )
    assert bulk == Arena(*gamefile._scan_lines(blob.decode("ascii")))
    del bulk
    path = tmp_path / "cap.qg"
    path.write_bytes(blob)
    del blob
    listings = []
    for accel in ("none", "scc"):
        assert cli.run(["solve", str(path), "--accel", accel]) == 0
        listings.append(capsys.readouterr().out)
    assert listings[0] == listings[1]
    assert listings[0].count("\n") == VERTICES
