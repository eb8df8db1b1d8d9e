"""Constructive list incidence colouring of cactuses (every vertex on at
most one cycle) that are neither trees nor cycles.

Contracting each cycle gives a tree of units.  Units are processed from a
chosen first cycle so that every later unit touches exactly one coloured
unit: each cycle unit, together with all neighbours of its cycle, is a
generalized corona with rows of pendants of any length, and
:func:`~incolour.constructive.coronae.paint_cycle_unit` colours it in
place on the cactus, starting the ring at the end of the single
already-coloured connecting edge, which plays the pre-coloured pendant
edge.  Its exact ring transfer colours the unit whenever the connecting
edge's colours allow it.  Each remaining vertex is finished greedily,
seeing at most max_degree coloured adjacent incidences.  A stuck cycle
unit raises :class:`~.report.StuckError`; nothing searches.

A cactus is coloured by :func:`~incolour.constructive.construct` from a
``cactus`` spec: ``{"size", "seed"}`` for a random one, or its ``edges``
(and optionally its ``cycles``) for any cactus; the generated spec carries
the cycles that :func:`cactus_bound` and :func:`paint_cactus` read.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..families import is_connected
from ..graphs import Graph, InputError, _vertex_index
from .coronae import paint_cycle_unit
from .report import Painter


def cactus_bound(g: Graph, cycles: Sequence[Sequence[int]]) -> int:
    """List size guaranteed to suffice for the cactus ``g`` with cycles
    ``cycles``, by maximum degree and the census of maximal cycles (cycles
    containing a maximum-degree vertex)."""
    delta = g.max_degree
    maximal = [c for c in cycles if any(g.degree(v) == delta for v in c)]
    if delta == 3:
        return 5
    if delta == 4:
        return 6 if maximal else 5
    maximal_triangles = [c for c in maximal if len(c) == 3]
    if len(maximal_triangles) <= 1:
        return max(delta + 1, 7)
    return max(delta + 1, 8)


def paint_cactus(painter: Painter, cycles: Sequence[Sequence[int]]) -> None:
    """Paint the cactus of ``painter``, whose cycles are ``cycles``
    (:func:`~incolour.families.cactus_cycles`), unit by unit from a first
    cycle; it must be connected and neither a tree nor a cycle."""
    g = painter.graph
    if not is_connected(g):
        raise InputError("cactus colouring expects a connected graph")
    if not cycles:
        raise InputError("input is a tree: use the tree colouring")
    if len(cycles) == 1 and len(cycles[0]) == g.n and len(g.edges) == g.n:
        raise InputError("input is a cycle: use the cycle colouring")
    on_cycle: dict[int, int] = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            on_cycle[v] = ci

    def unit_of(v: int):
        return ("cyc", on_cycle[v]) if v in on_cycle else ("v", v)

    start_unit = ("cyc", _pick_start(g, cycles))
    order, entry = _unit_order(g, unit_of, start_unit)
    off, _, mate = _vertex_index(g)
    for unit in order:
        if unit[0] == "cyc":
            _paint_cycle_unit(painter, list(cycles[unit[1]]), entry.get(unit))
        else:
            v = unit[1]
            painter.fill(range(off[v], off[v + 1]), "cactus-normal")
            painter.fill(mate[off[v]:off[v + 1]], "cactus-normal")


def _pick_start(g: Graph, cycles: Sequence[Sequence[int]]) -> int:
    delta = g.max_degree
    maximal_triangles = [
        i for i, c in enumerate(cycles)
        if len(c) == 3 and any(g.degree(v) == delta for v in c)
    ]
    if maximal_triangles:
        return maximal_triangles[0]
    triangles = sorted(
        (i for i, c in enumerate(cycles) if len(c) == 3),
        key=lambda i: (-max(g.degree(v) for v in cycles[i]), i),
    )
    if triangles:
        return triangles[0]
    return 0


def _unit_order(g: Graph, unit_of, start):
    """BFS order over the contracted unit tree; for each non-start unit the
    entry, its end of the edge that connects it to its parent."""
    adj: dict = {}
    for u, v in g.edges:
        a, b = unit_of(u), unit_of(v)
        if a == b:
            continue
        adj.setdefault(a, []).append((b, v))
        adj.setdefault(b, []).append((a, u))
    order = [start]
    entry = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, x in sorted(adj.get(cur, [])):
            if nxt not in seen:
                seen.add(nxt)
                entry[nxt] = x
                order.append(nxt)
                queue.append(nxt)
    return order, entry


def _paint_cycle_unit(painter: Painter, cycle: list[int], entry) -> None:
    """Colour all incidences touching this cycle as a corona unit on the
    host painter.  The cycle starts at ``entry``, the end on this cycle of
    the unit's connecting edge, whose incidences are both painted; a first
    unit has no ``entry``."""
    ring = cycle
    if entry is not None:
        pos = cycle.index(entry)
        ring = cycle[pos:] + cycle[:pos]
        if ring[1] > ring[-1]:
            ring = [ring[0]] + ring[1:][::-1]
    in_cycle = set(cycle)
    pendants = [[w for w in painter.graph.adj[u] if w not in in_cycle] for u in ring]
    paint_cycle_unit(painter, ring, pendants, prefix="cactus-")
