"""Constructive list incidence colouring of trees, with support for a set
of pre-coloured incidences.

With k pre-coloured incidences and every list of size at least
``max_degree + max(k, 1)``, a total colouring extending the pre-colouring
always exists, and the painting rule :func:`paint_tree` finds it on one
:class:`Painter`.  It paints every pre-colour first (``tree-anchor``).
Then it takes an anchor (x, xy): the highest-id pre-coloured incidence, or
incidence 0 in its least colour when there is none (``tree-anchor-free``).
It paints the anchor's mate (``tree-anchor-mate``), then the rest root to
leaves from x (:meth:`Painter.greedy_tree`, ``tree-topdown``).  In that
order a step sees at most ``max_degree`` colours painted before it, plus
at most k - 1 pre-colours painted out of order, since the anchor went
first: at most max_degree + k - 1 colours, so a list of max_degree +
max(k, 1) always keeps one.  Nothing is withheld and nothing is unpainted.

A tree is coloured by :func:`~incolour.constructive.construct` from a
``tree`` spec: ``{"n", "seed"}`` for a random tree, or ``{"edges"}`` for
any tree; ``construct`` checks the pre-colouring before the rule runs.
"""

from __future__ import annotations

from ..graphs import Graph, _vertex_index
from .report import Painter


def tree_bound(g: Graph, k: int) -> int:
    """List size at which the tree ``g`` is coloured extending k
    pre-coloured incidences: max degree + max(k, 1)."""
    return g.max_degree + max(k, 1)


def paint_tree(painter: Painter, pre: dict[int, int]) -> None:
    """Paint the tree of ``painter`` extending ``pre``, a proper colouring
    of some of its incidences from their lists."""
    if not painter.colour:
        return
    for i, colour in sorted(pre.items()):
        painter.paint(i, colour, "tree-anchor")
    anchor = max(pre, default=0)
    if not pre:
        painter.fill((anchor,), "tree-anchor-free")
    _, _, mate, tail = _vertex_index(painter.graph)
    painter.fill((mate[anchor],), "tree-anchor-mate")
    painter.greedy_tree(tail[anchor], "tree-topdown")
