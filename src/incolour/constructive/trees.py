"""Constructive list incidence colouring of trees, with support for a set
of pre-coloured incidences.

With k pre-coloured incidences and every list of size at least
``max_degree + max(k, 1)``, a total colouring extending the pre-colouring
always exists: peel pre-colours one colour class at a time, and solve the
single-anchor base case by splitting at the anchor edge and colouring both
sides root-to-leaves, where every step sees at most ``max_degree``
forbidden colours.  All of it paints one :class:`Painter`: a peeled colour
is withheld from every greedy choice below its level, and once the inner
problem is solved the peeled class is unpainted and repainted in that
colour.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional, Union

from ..families import is_tree
from ..graphs import (
    Graph,
    InputError,
    ListAssignment,
    check_lists_cover,
    incidence_adjacent,
    incidences,
)
from .report import ConstructiveReport, Painter

PreColouring = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def colour_tree(
    g: Graph,
    lists: ListAssignment,
    pre: Optional[PreColouring] = None,
) -> ConstructiveReport:
    """Total list incidence colouring of a tree extending ``pre``."""
    check_lists_cover(g, lists)
    if not is_tree(g):
        raise InputError("input graph is not a tree")
    m = 2 * len(g.edges)
    pre_items = sorted(dict(pre).items()) if pre is not None else []
    k = len(pre_items)
    required = g.max_degree + max(k, 1)
    if m and lists.min_size() < required:
        raise InputError(f"every list needs at least {required} colours")
    incs = incidences(g)
    for i, c in pre_items:
        if not 0 <= i < m:
            raise InputError(f"pre-coloured incidence {i} out of range")
        if c not in lists[i]:
            raise InputError(f"pre-colour {c} outside the list of incidence {i}")
    for a in range(k):
        for b in range(a + 1, k):
            (i, ci), (j, cj) = pre_items[a], pre_items[b]
            if ci == cj and incidence_adjacent(incs[i], incs[j]):
                raise InputError(f"pre-coloured incidences {i}, {j} are adjacent and equal")

    painter = Painter(g, lists)
    if m:
        _solve(painter, pre_items, frozenset())
    return painter.report()


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
    """Single pre-coloured incidence: fix the anchor edge, then colour all
    remaining incidences root-to-leaves starting from the anchor vertex."""
    g = painter.graph
    inc = incidences(g)[anchor]
    x = inc.vertex
    y = inc.edge[0] if inc.edge[1] == x else inc.edge[1]
    painter.paint(anchor, alpha, anchor_tag)
    painter.greedy(painter.id_of(y, x), "tree-anchor-mate", drop)

    parent: dict[int, Optional[int]] = {x: None}
    order = [x]
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                queue.append(w)
    for v in order:
        p = parent[v]
        if p is not None:
            i = painter.id_of(v, p)
            if not painter.painted(i):
                painter.greedy(i, "tree-topdown", drop)
        for w in g.adj[v]:
            if w == p:
                continue
            i = painter.id_of(v, w)
            if not painter.painted(i):
                painter.greedy(i, "tree-topdown", drop)
