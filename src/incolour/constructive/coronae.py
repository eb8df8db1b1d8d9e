"""Constructive list incidence colouring of generalized coronae of cycles
(a cycle with p pendant vertices on every cycle vertex), optionally
extending a pre-coloured pendant edge at v0.

A cycle with rows of pendants is a cycle unit, and :func:`paint_cycle_unit`
paints it in two steps.  First the ring and, at each ring vertex r_i, its
unpainted pendant incidences (r_i, r_i w), the internals, by one exact ring
transfer, :meth:`Painter.paint_ring` with ``inner`` (``corona-ring``): an
internal sees of the ring only the four incidences on the edges at r_i, so
the ring is searched block by block as a bare cycle is, and consecutive
blocks must leave the internals at r_i distinct free colours (Hall).  Then the
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
    rows = [[corona_pendant(i, j, n, p) for j in range(1, p + 1)] for i in range(n)]
    paint_cycle_unit(painter, range(n), rows)


def pendant_edge_ids(g: Graph, n: int, p: int) -> tuple[int, int]:
    """Ids of the two incidences of the pendant edge v0-v0^1 of the corona
    ``g``: ``(v0, v0·v0^1)`` first, then ``(v0^1, v0^1·v0)``."""
    leaf = corona_pendant(0, 1, n, p)
    return incidence_id(g, 0, leaf), incidence_id(g, leaf, 0)


def paint_cycle_unit(painter: Painter, ring: Sequence[int], pendants: Sequence[Sequence[int]],
                     prefix: str = "") -> None:
    """Colour every unpainted incidence on the cycle ``ring`` (host vertices
    in cycle order) and on the edges to ``pendants[i]``, the pendant
    vertices of ``ring[i]``: the ring and the internals under ``prefix`` +
    ``corona-ring``, then the externals under ``prefix`` +
    ``corona-external``.  Incidences painted before, such as a pre-coloured
    pendant edge or a cactus unit's connector, are kept wherever they lie
    (:meth:`Painter.paint_ring` reads free lists)."""
    painter.paint_ring(ring, prefix + "corona-ring", inner=dict(zip(ring, pendants)))
    g = painter.graph
    painter.fill((incidence_id(g, w, r) for r, row in zip(ring, pendants) for w in row),
                 prefix + "corona-external")
