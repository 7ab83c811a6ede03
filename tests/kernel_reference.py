"""One per-edge reference for every sweep form of ``quantgames._engine``.

``sweep``, ``fixpoint`` and ``nested_fixpoint`` here take the same slices
and arguments as the kernel's, but work one edge at a time on Python ints
and lists, with no column form, frontier, scalar form or numpy reduction.
Each reads one weight row of a slice (``row``; None for 1-D weights), and
its vectors ``x``, ``y`` and ``ytrans`` are lists (or arrays, read by
index) of that row over the slice's positions: its k members at 0..k-1,
then its exits.  ``fixpoint`` and ``nested_fixpoint`` update the members
of ``x`` and ``y`` in place, as the kernel does.

The semantics, in kernel order:

- a candidate is an edge's weight plus its destination's continuation,
  min(x, ytrans) with ``ytrans``, else x; a sentinel continuation stays
  that sentinel (saturation);
- a member's new value is the largest candidate for Max, the smallest for
  Min;
- the post-step: values below ``cutoff`` drop to -inf (descending) or
  values above ``lift`` rise to +inf (ascending), and values at or beyond
  +-``SNAP`` become the sentinel on their side; then each member with a
  table moves to its largest entry not above the value (down) or its
  smallest entry not below it (up, with ``lift``);
- ``fixpoint`` counts every sweep, the one that confirms stabilization
  included, and once a member still changes after more than ``bound``
  sweeps it raises ``UnsoundOracleError`` when tables are given, else
  ``AssertionError``, leaving the last iterate in ``x``;
- ``nested_fixpoint``'s pass caps ``y`` at 0 from below on the members,
  restarts them at +inf, runs ``fixpoint`` with ``ytrans = y`` and the
  cutoff, lifts values above ``lift`` to +inf and stores them in ``x``
  and ``y``; it counts passes and inner sweeps, the confirming pass
  included, and raises ``AssertionError`` once the outer vector still
  changes after more than ``outer_bound`` passes.
"""

from __future__ import annotations

from quantgames import _engine as eng
from quantgames._engine import UnsoundOracleError

POS, NEG, SNAP = int(eng.POS), int(eng.NEG), int(eng.SNAP)


def out_edges(sl, row=None) -> list:
    """Each member's out-edges as (destination, weight) pairs."""
    wt = sl.wt if row is None else sl.wt[row]
    ends = sl.starts.tolist() + [len(sl.dst)]
    pairs = list(zip(sl.dst.tolist(), wt.tolist()))
    return [pairs[a:b] for a, b in zip(ends, ends[1:])]


def _reduce(is_max, edges, x, ytrans) -> list:
    out = []
    for mx, es in zip(is_max, edges):
        best = None
        for d, w in es:
            c = int(x[d])
            if ytrans is not None:
                c = min(c, int(ytrans[d]))
            c = POS if c >= POS else NEG if c <= NEG else c + w
            if best is None or (c > best if mx else c < best):
                best = c
        out.append(best)
    return out


def sweep(sl, x, ytrans=None, row=None) -> list:
    """One Jacobi update: the members' new values, all read from ``x``."""
    new = _reduce(sl.is_max.tolist(), out_edges(sl, row), x, ytrans)
    return [POS if v >= SNAP else NEG if v <= -SNAP else v for v in new]


def _post(v: int, cutoff, lift) -> int:
    if lift is None:
        return NEG if v < cutoff else POS if v >= SNAP else v
    return POS if v > lift else NEG if v <= -SNAP else v


def _clamp(v: int, table, up: bool) -> int:
    if table is None:
        return v
    if up:
        return min(t for t in table if t >= v)
    return max(t for t in table if t <= v)


def fixpoint(sl, x, bound, *, cutoff=None, lift=None, ytrans=None, tables=None, trace=None,
             row=None) -> int:
    """Sweep until the members are stable; returns the sweep count.  Calls
    ``trace.append`` with a copy of ``x`` after every sweep when given."""
    ms = range(len(sl.starts))
    is_max, edges = sl.is_max.tolist(), out_edges(sl, row)
    cutoff = None if cutoff is None else int(cutoff)
    lift = None if lift is None else int(lift)
    if tables is not None:
        tables = [None if t is None else [int(v) for v in t] for t in tables]
    sweeps = 0
    while True:
        new = [_post(v, cutoff, lift) for v in _reduce(is_max, edges, x, ytrans)]
        if tables is not None:
            new = [_clamp(v, t, lift is not None) for v, t in zip(new, tables)]
        old = [int(x[v]) for v in ms]
        for v, value in zip(ms, new):
            x[v] = value
        sweeps += 1
        if trace is not None:
            trace.append([int(v) for v in x])
        if new == old:
            return sweeps
        if sweeps > bound:
            if tables is not None:
                raise UnsoundOracleError("component failed to stabilize")
            raise AssertionError("value iteration exceeded its sweep bound")


def nested_fixpoint(sl, x, y, *, cutoff, lift, inner_bound, outer_bound, row=None,
                    inner_counts=None):
    """The outer total-payoff loop; returns (passes, inner sweeps).  With
    ``inner_counts`` (a list), appends each pass's sweep count."""
    ms = range(len(sl.starts))
    lift = int(lift)
    passes = sweeps = 0
    while True:
        prev = [int(y[v]) for v in ms]
        for v in ms:
            y[v] = max(int(y[v]), 0)
            x[v] = POS
        count = fixpoint(sl, x, inner_bound, cutoff=cutoff, ytrans=y, row=row)
        sweeps += count
        if inner_counts is not None:
            inner_counts.append(count)
        new = [POS if x[v] > lift else int(x[v]) for v in ms]
        for v, value in zip(ms, new):
            x[v] = y[v] = value
        passes += 1
        if new == prev:
            return passes, sweeps
        if passes > outer_bound:
            raise AssertionError("outer iteration exceeded its pass bound")
