"""Constructive list incidence colouring of generalized coronae of cycles
(a cycle with p pendant vertices on every cycle vertex), optionally
extending a pre-coloured pendant edge at v0.

A cycle with rows of pendants is a cycle unit, and :func:`paint_cycle_unit`
paints it in two steps.  First the ring and, at each ring vertex r_i, its
unpainted incidences (r_i, r_i w) to vertices w off the ring, the
internals, by one exact ring transfer, :meth:`Painter.paint_ring`
(``corona-ring``), which finds the internals itself: an internal sees of
the ring only the four incidences on the edges at r_i, so the ring is
searched block by block as a bare cycle is, and consecutive blocks must
leave the internals at r_i distinct free colours (Hall).  Then the
externals (w, w r_i) greedily (``corona-external``): each sees only the
d(r_i) incidences at r_i, so a list of d(r_i) + 1 colours, never more than
the bound, keeps one.  So a unit is coloured whenever it can be; that it
can at the bound is the paper's theorem.  An uncolourable unit raises
:class:`StuckError` with nothing of it painted; nothing searches
exponentially.

The painting rule :func:`paint_corona` paints the pre-coloured edge and
hands the rest to :func:`paint_cycle_unit`, which works on host vertices
of any graph, so the cactus colouring runs it on each cycle unit in place;
pendant rows of any length are allowed there.  The ring transfer reads
free lists, so colours painted before the unit count wherever they lie.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..families import corona_pendant
from ..graphs import Graph, InputError, incidence_id
from .report import Painter


def corona_bound(n: int, p: int, pre: bool) -> int:
    """List size at which the corona procedure is guaranteed to succeed."""
    if p <= 2:
        return p + 4
    if pre and n == 3:
        return max(p + 3, 8)
    return max(p + 3, 7)


def paint_corona(painter: Painter, n: int, p: int, pre: Optional[dict[int, int]]) -> None:
    """Paint the corona ``gen_corona(n, p)`` of ``painter``, the cycle C_n
    with p pendants per vertex.  ``pre``, when given, must cover exactly
    the two incidences of the pendant edge v0-v0^1, and fixes them
    beforehand; a stuck run raises :class:`StuckError`."""
    if pre:
        down, up = pendant_edge_ids(painter.graph, n, p)
        if sorted(pre) != sorted((down, up)):
            raise InputError(
                f"corona pre-colouring must cover incidences {down} and {up} only")
        painter.paint(down, pre[down], "corona-pre")
        painter.paint(up, pre[up], "corona-pre")
    paint_cycle_unit(painter, range(n))


def pendant_edge_ids(g: Graph, n: int, p: int) -> tuple[int, int]:
    """Ids of the two incidences of the pendant edge v0-v0^1 of the corona
    ``g``: ``(v0, v0·v0^1)`` first, then ``(v0^1, v0^1·v0)``."""
    leaf = corona_pendant(0, 1, n, p)
    return incidence_id(g, 0, leaf), incidence_id(g, leaf, 0)


def paint_cycle_unit(painter: Painter, ring: Sequence[int], prefix: str = "") -> None:
    """Colour every unpainted incidence on the cycle ``ring`` (host vertices
    in cycle order) and on the edges from its vertices to vertices off it:
    the ring and the internals (r, r w) under ``prefix`` + ``corona-ring``,
    then the externals (w, w r) under ``prefix`` + ``corona-external``, in
    ring order and at each r in adjacency order.  Incidences painted
    before, such as a pre-coloured pendant edge or a cactus unit's
    connector, are kept wherever they lie (:meth:`Painter.paint_ring` reads
    free lists)."""
    painter.paint_ring(ring, prefix + "corona-ring")
    g, on_ring = painter.graph, set(ring)
    painter.fill((incidence_id(g, w, r) for r in ring for w in g.adj[r] if w not in on_ring),
                 prefix + "corona-external")
