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
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from ..families import is_tree
from ..graphs import (
    Graph,
    IncidenceColouring,
    InputError,
    ListAssignment,
    _vertex_index,
    validate_colouring,
)
from .report import ConstructiveReport, Painter

PreColouring = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def tree_bound(g: Graph, k: int) -> int:
    """List size at which the tree ``g`` is coloured extending k
    pre-coloured incidences: max degree + max(k, 1)."""
    return g.max_degree + max(k, 1)


def colour_tree(
    g: Graph,
    lists: ListAssignment,
    pre: Optional[PreColouring] = None,
) -> ConstructiveReport:
    """Total list incidence colouring of a tree extending ``pre``, from
    lists of :func:`tree_bound` colours."""
    painter = Painter(g, lists)
    if not is_tree(g):
        raise InputError("input graph is not a tree")
    pre = dict(pre or ())
    required = tree_bound(g, len(pre))
    if g.edges and lists.min_size() < required:
        raise InputError(f"every list needs at least {required} colours")
    paint_tree(painter, pre)
    return painter.report()


def paint_tree(painter: Painter, pre: Optional[PreColouring]) -> None:
    """Paint the tree of ``painter`` extending ``pre``, which must lie on
    its incidences and be a proper colouring from the lists."""
    pre_items = sorted(dict(pre or ()).items())
    m = len(painter.colour)
    for i, _ in pre_items:
        if not 0 <= i < m:
            raise InputError(f"pre-coloured incidence {i} out of range")
    if pre_items:
        verdict = validate_colouring(painter.graph, painter.lists, IncidenceColouring(dict(pre_items)))
        if not (verdict.proper and verdict.list_respecting):
            raise InputError(f"bad pre-colouring: {verdict.violation}")
    if m:
        _solve(painter, pre_items, frozenset())


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
