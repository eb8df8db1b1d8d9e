"""Constructive list incidence colouring of cactuses (every vertex on at
most one cycle) that are neither trees nor cycles.

The units, each cycle and each vertex on no cycle, form a tree, and
:func:`paint_cactus` paints them parent first by one breadth-first walk
over the vertices from a first cycle.  A vertex on no cycle greedily paints
the incidences on its edges, each seeing at most max_degree coloured
adjacent incidences.  The walk first reaches a cycle at the end of the one
edge joining it to its parent unit.  The cycle with all neighbours of its
vertices is a generalized corona with pendant rows of any length, and
:func:`~incolour.constructive.coronae.paint_cycle_unit` colours it in
place, the ring starting at that end and the connecting edge playing the
pre-coloured pendant edge.  Its exact ring transfer colours the unit
whenever the connecting edge's colours allow it; a stuck unit raises
:class:`~.report.StuckError`, and nothing searches.

A unit paints only the incidences on its own edges and on the edges to
its child units.  Two units neither of which is the other's parent paint
incidences on edges with no common vertex, which are not adjacent, so
every parent-first order gives the same colours and only the order of the
trace depends on the walk.

A cactus is coloured by :func:`~incolour.constructive.construct` from a
``cactus`` spec: ``{"size", "seed"}`` for a random one, or its ``edges``
(and optionally its ``cycles``) for any cactus; the generated spec carries
the cycles that :func:`cactus_bound` and :func:`paint_cactus` read.
"""

from __future__ import annotations

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
    (:func:`~incolour.families.cactus_cycles`), by a breadth-first walk over
    its vertices from the first vertex of the cycle :func:`_pick_start`
    names: a cycle is painted when the walk first finds it, a vertex on no
    cycle when the walk visits it.  Every parent-first order of the units
    gives these colours.  The cactus must be connected, not a tree or cycle."""
    g = painter.graph
    if not is_connected(g):
        raise InputError("cactus colouring expects a connected graph")
    if not cycles:
        raise InputError("input is a tree: use the tree colouring")
    if len(cycles) == 1 and len(cycles[0]) == g.n and len(g.edges) == g.n:
        raise InputError("input is a cycle: use the cycle colouring")
    cycle_of = {v: cyc for cyc in cycles for v in cyc}
    off, _, mate = _vertex_index(g)
    first = cycles[_pick_start(g, cycles)]
    _paint_cycle_unit(painter, first, first[0])
    order, seen = list(first), set(first)
    for v in order:
        if v not in cycle_of:
            painter.fill(range(off[v], off[v + 1]), "cactus-normal")
            painter.fill(mate[off[v]:off[v + 1]], "cactus-normal")
        for w in g.adj[v]:
            if w in seen:
                continue
            if w in cycle_of:
                _paint_cycle_unit(painter, cycle_of[w], w)
                seen.update(cycle_of[w])
                order.extend(cycle_of[w])
            else:
                seen.add(w)
                order.append(w)


def _pick_start(g: Graph, cycles: Sequence[Sequence[int]]) -> int:
    """Index of the first cycle: the first triangle of greatest maximum degree, else 0."""
    triangles = [i for i, c in enumerate(cycles) if len(c) == 3]
    return min(triangles, key=lambda i: (-max(map(g.degree, cycles[i])), i), default=0)


def _paint_cycle_unit(painter: Painter, cycle: Sequence[int], entry: int) -> None:
    """Colour all incidences touching this cycle as a corona unit on the
    host painter.  The ring starts at ``entry`` and goes on towards its
    lesser neighbour on the cycle; for every unit but the first, ``entry`` is
    the end of its connecting edge, whose incidences are both painted."""
    pos = cycle.index(entry)
    ring = [*cycle[pos:], *cycle[:pos]]
    if ring[1] > ring[-1]:
        ring = [ring[0]] + ring[1:][::-1]
    in_cycle = set(cycle)
    pendants = [[w for w in painter.graph.adj[u] if w not in in_cycle] for u in ring]
    paint_cycle_unit(painter, ring, pendants, prefix="cactus-")
