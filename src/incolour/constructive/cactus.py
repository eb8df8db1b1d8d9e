"""Constructive list incidence colouring of cactuses (every vertex on at
most one cycle) that are neither trees nor cycles.

Contracting each cycle gives a tree of units.  Units are processed from a
chosen first cycle so that every later unit touches exactly one coloured
unit: each cycle unit, together with all neighbours of its cycle, embeds
into a generalized corona (padded with phantom pendants) and is coloured
by the corona procedure, with the single already-coloured connecting edge
playing the pre-coloured pendant edge; each remaining vertex is finished
greedily, seeing at most max_degree coloured adjacent incidences.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..families import cactus_cycles, gen_corona, is_connected
from ..graphs import Graph, InputError, ListAssignment, incidences
from .coronae import paint_corona_instance
from .report import ConstructiveReport, Painter


def cactus_bound(g: Graph, cycles: Optional[list[list[int]]] = None) -> int:
    """List size guaranteed to suffice, by maximum degree and the census of
    maximal cycles (cycles containing a maximum-degree vertex)."""
    if cycles is None:
        cycles = cactus_cycles(g)
        if cycles is None:
            raise InputError("not a cactus")
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


def colour_cactus(g: Graph, lists: ListAssignment) -> ConstructiveReport:
    """Total list incidence colouring of a connected cactus at the census
    bound of :func:`cactus_bound`."""
    cycles = cactus_cycles(g)
    if cycles is None:
        raise InputError("input graph is not a cactus")
    if not is_connected(g):
        raise InputError("cactus colouring expects a connected graph")
    if not cycles:
        raise InputError("input is a tree: use the tree colouring")
    if len(cycles) == 1 and len(cycles[0]) == g.n and len(g.edges) == g.n:
        raise InputError("input is a cycle: use the cycle colouring")
    required = cactus_bound(g, cycles)
    if lists.min_size() < required:
        raise InputError(f"this cactus needs lists of size >= {required}")

    painter = Painter(g, lists)
    on_cycle: dict[int, int] = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            on_cycle[v] = ci

    def unit_of(v: int):
        return ("cyc", on_cycle[v]) if v in on_cycle else ("v", v)

    start_unit = ("cyc", _pick_start(g, cycles))
    order, parent_edge = _unit_order(g, unit_of, start_unit)
    # phantom incidences take private colours above every list colour
    fresh = max((max(l) for l in lists.lists), default=0) + 1
    k_block = lists.min_size()

    for unit in order:
        if unit[0] == "cyc":
            _paint_cycle_unit(painter, cycles[unit[1]], parent_edge.get(unit), fresh, k_block)
        else:
            _paint_normal_vertex(painter, unit[1])
    return painter.report()


def _pick_start(g: Graph, cycles: list[list[int]]) -> int:
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
    connecting edge (x inside the unit, y in its already-ordered parent)."""
    adj: dict = {}
    for u, v in g.edges:
        a, b = unit_of(u), unit_of(v)
        if a == b:
            continue
        adj.setdefault(a, []).append((b, (v, u)))
        adj.setdefault(b, []).append((a, (u, v)))
    order = [start]
    parent_edge = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, (x, y) in sorted(adj.get(cur, []), key=lambda t: (t[0], t[1])):
            if nxt not in seen:
                seen.add(nxt)
                parent_edge[nxt] = (x, y)  # x inside nxt, y inside cur
                order.append(nxt)
                queue.append(nxt)
    return order, parent_edge


def _paint_normal_vertex(painter: Painter, v: int) -> None:
    g = painter.graph
    for w in g.adj[v]:
        i = painter.id_of(v, w)
        if not painter.painted(i):
            painter.greedy(i, "cactus-normal")
    for w in g.adj[v]:
        i = painter.id_of(w, v)
        if not painter.painted(i):
            painter.greedy(i, "cactus-normal")


def _paint_cycle_unit(
    painter: Painter, cycle: list[int], connector, fresh: int, k_block: int
) -> None:
    """Colour all incidences touching this cycle through an embedded corona
    instance (phantom pendants pad every vertex to a common count; phantom
    incidence ``kid`` gets the ``k_block`` colours from
    ``fresh + kid * k_block``)."""
    g = painter.graph
    n = len(cycle)
    in_cycle = set(cycle)

    if connector is not None:
        x, y = connector  # x on the cycle, (x,xy) and (y,yx) already painted
        pos = cycle.index(x)
        fwd = cycle[pos:] + cycle[:pos]
        if fwd[1] > fwd[-1]:
            fwd = [fwd[0]] + fwd[1:][::-1]
        ring = fwd
        pendants = []
        for u in ring:
            outs = sorted(w for w in g.adj[u] if w not in in_cycle)
            if u == x:
                outs = [y] + [w for w in outs if w != y]
            pendants.append(outs)
        pre = (
            painter.colour[painter.id_of(x, y)],
            painter.colour[painter.id_of(y, x)],
        )
    else:
        ring = cycle
        pendants = [sorted(w for w in g.adj[u] if w not in in_cycle) for u in ring]
        pre = None

    p = max(1, max(len(outs) for outs in pendants))
    corona, _spec = gen_corona(n, p)

    def host_vertex(kv: int) -> Optional[int]:
        if kv < n:
            return ring[kv]
        i, j = divmod(kv - n, p)
        return pendants[i][j] if j < len(pendants[i]) else None

    host_ids: list[Optional[int]] = []
    klists = []
    for kid, inc in enumerate(incidences(corona)):
        hv = host_vertex(inc.vertex)
        other = inc.edge[0] if inc.edge[1] == inc.vertex else inc.edge[1]
        hu = host_vertex(other)
        if hv is None or hu is None:
            host_ids.append(None)
            klists.append(frozenset(range(fresh + kid * k_block, fresh + (kid + 1) * k_block)))
        else:
            hid = painter.id_of(hv, hu)
            host_ids.append(hid)
            klists.append(painter.lists[hid])

    rep = paint_corona_instance(corona, n, p, ListAssignment(klists), pre)
    for step in rep.trace:
        hid = host_ids[step.incidence]
        if hid is None or painter.painted(hid):
            continue
        painter.paint(hid, step.colour, f"cactus-{step.tag}")
