"""Constructive list incidence colouring of trees, with support for a set
of pre-coloured incidences.

With k pre-coloured incidences and every list of size at least
``max_degree + max(k, 1)``, a total colouring extending the pre-colouring
always exists: peel pre-colours one colour class at a time, and solve the
single-anchor base case by fixing the anchor edge and colouring the rest
root to leaves from the anchor's vertex (:meth:`Painter.greedy_tree`),
where every step sees at most ``max_degree`` forbidden colours.  All of
it, the painting rule :func:`paint_tree`, paints one :class:`Painter`: a
peeled colour is withheld from every greedy choice below its level, and
once the inner problem is solved the peeled class is unpainted and
repainted in that colour.  The anchor's ends and
mate come from the graph's per-vertex incidence index.

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
    if painter.colour:
        _solve(painter, sorted(pre.items()), frozenset())


def _solve(painter: Painter, pre: list[tuple[int, int]], drop: frozenset[int]) -> None:
    """Extend ``pre`` over the tree, never choosing a colour of ``drop``."""
    if not pre:
        alpha = min(painter.lists[0] - drop)
        _base(painter, 0, alpha, "tree-anchor-free", drop)
    elif len(pre) == 1:
        anchor, alpha = pre[0]
        _base(painter, anchor, alpha, "tree-anchor", drop)
    else:
        # peel the colour class of the highest-id pre-coloured incidence
        alpha = pre[-1][1]
        peeled = [i for i, c in pre if c == alpha]
        _solve(painter, [(i, c) for i, c in pre if c != alpha], drop | {alpha})
        for i in peeled:
            painter.unpaint(i)
            painter.paint(i, alpha, "tree-peel")


def _base(
    painter: Painter,
    anchor: int,
    alpha: int,
    anchor_tag: str,
    drop: frozenset[int],
) -> None:
    """Single pre-coloured incidence (x, xy): fix the anchor edge, then
    colour all remaining incidences root to leaves from x."""
    _, head, mate = _vertex_index(painter.graph)
    painter.paint(anchor, alpha, anchor_tag)
    painter.greedy(mate[anchor], "tree-anchor-mate", drop)
    painter.greedy_tree(head[mate[anchor]], "tree-topdown", extra=drop)
