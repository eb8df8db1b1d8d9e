"""Constructive list incidence colouring of Halin graphs.

One route for every Halin graph, K4 and the wheels included: the painting
rule :func:`paint_halin`.  First the incidences at the internal vertices
are painted greedily, root to leaves over the inner tree (``halin-tree``),
by the walk that colours trees, :meth:`Painter.greedy_tree` with the rim
as ``outside``: each step sees at most the maximum degree's number of
colours.  Then the rim and the leaf ends of the spokes are painted
together by the exact ring transfer :meth:`Painter.paint_ring`
(``halin-outer-cycle``), with the leaf end (r, r s) of each spoke as the
one internal at its rim vertex r: it sees the same four rim incidences
that a corona's pendant internal sees.  Once
the tree is painted, each rim incidence sees one painted incidence and
each spoke incidence at most the maximum degree's number, so at 6 colours
and maximum degree 3 or 4 the rim lists keep at least 5 colours and the
spoke lists at least 2.  That such a strip is always colourable (the strip
lemma) is checked, not proven: by exhaustive and random strips and hill
climbing, and in the tests.  With 7 or more colours each rim incidence
keeps 4 whatever the spokes take, which suffices on the cycle (C_2k
squared is 4-choosable).  A failure raises :class:`~.report.StuckError`;
nothing searches.
"""

from __future__ import annotations

from ..families import FamilySpec
from ..graphs import Graph
from .report import Painter

# K4 as a Halin graph: a star on three leaves plus the rim
K4_HALIN = FamilySpec("halin", {"tree_edges": [[0, 3], [1, 3], [2, 3]], "leaf_order": [0, 1, 2]})


def required_halin_lists(g: Graph, spec: FamilySpec) -> int:
    """The guaranteed-sufficient list size for this Halin graph."""
    delta = g.max_degree
    if delta == 5 or (_tree_is_star(g, spec) and delta == 4):
        return 7
    if delta in (3, 4):
        return 6
    return delta + 1


def paint_halin(painter: Painter, spec: FamilySpec) -> None:
    """Paint the Halin graph of ``painter`` described by the halin ``spec``
    at its guaranteed list size (6 for maximum degree 3 or 4 except the
    4-wheel, 7 for maximum degree 5 and the 4-wheel, max degree + 1
    beyond): the inner tree root to leaves, then the rim with the leaf
    ends of its spokes as internals."""
    g = painter.graph
    leaves = spec.params["leaf_order"]
    rim = set(leaves)
    # the inner tree: the vertices off the rim, from the least of them
    root = min(v for v in range(g.n) if v not in rim)
    painter.greedy_tree(root, "halin-tree", outside=rim)
    painter.paint_ring(leaves, "halin-outer-cycle")


def _tree_is_star(g: Graph, spec: FamilySpec) -> bool:
    return g.n == len(spec.params["leaf_order"]) + 1
