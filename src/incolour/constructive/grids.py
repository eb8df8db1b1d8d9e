"""Constructive list incidence colouring of square grids.

Two-row grids are coloured square by square with 5-colour lists.  Wider
grids use 6-colour lists and five passes: the top border and left column,
the second row, the interior rows, the last column, and the bottom row.
The painting rule :func:`paint_grid` replays the grid's schedule, built
once per graph and kept in its cache: one :meth:`~.report.Painter.fill`
per greedy run, and the windows of ``grid-step-3b``, four ids each.

In each interior row, the incidences a = (v, vw), b = (v, v down),
c = (w, wv) and d = (w, w up) of each pair of neighbours v, w are painted
together, a window.  Their free lists (each list less the colours of its
painted neighbours) keep at least 2, 2, 3 and 2 colours at 6-colour
lists, and a, b, c must be pairwise distinct, as must a, c, d (b and d
are not adjacent).  :func:`_window` searches these at most 6^4 choices
least first, so it finds one whenever one exists, which the paper's
window lemma guarantees; a window with none raises
:class:`~.report.StuckError` tagged ``grid-step-3b``.
"""

from __future__ import annotations

from ..families import grid_vertex
from ..graphs import Graph, _vertex_index, incidence_id
from .report import Painter, StuckError, _check_unpainted, _schedule


def _window(A: list[int], B: list[int], C: list[int], D: list[int]):
    """Colours (a, b, c, d) from the sorted lists A, B, C, D with a, b, c
    pairwise distinct and a, c, d pairwise distinct, or None if there are
    none: the first (a, c) in sorted order for which some b and some d
    avoid both, with the least such b and d."""
    for a in A:
        for c in C:
            if a != c:
                b = next((x for x in B if x != a and x != c), None)
                d = next((x for x in D if x != a and x != c), None)
                if b is not None and d is not None:
                    return a, b, c, d
    return None


def grid_bound(n: int) -> int:
    """List size at which the m-by-n grid, m >= n >= 2, is coloured: 5
    colours when the short side is 2, 6 otherwise."""
    return 5 if n == 2 else 6


def paint_grid(painter: Painter, m: int, n: int) -> None:
    """Paint the m-by-n grid ``gen_grid(m, n)`` of ``painter``, m >= n >= 2,
    from lists of :func:`grid_bound` colours, by the grid's schedule: each
    greedy run by one :meth:`Painter.fill`, each window by :func:`_window`."""
    g, key = painter.graph, ("grid", m, n)
    if key not in g._cache:

        def iid(i1: int, j1: int, i2: int, j2: int) -> int:
            return incidence_id(g, grid_vertex(i1, j1, n), grid_vertex(i2, j2, n))

        runs = _two_rows(m, iid) if n == 2 else _five_passes(g, m, n, iid)
        g._cache[key] = _schedule(2 * len(g.edges), runs)
    _check_unpainted(painter, g._cache[key])
    for tag, ids in g._cache[key]:
        if tag != "grid-step-3b":
            painter.fill(ids, tag)
            continue
        for targets in (ids[q:q + 4] for q in range(0, len(ids), 4)):
            quad = _window(*map(painter.free, targets))
            if quad is None:
                raise StuckError(targets[0], tag, painter.trace)
            for t, colour in zip(targets, quad):
                painter.paint(t, colour, tag)


def _two_rows(m: int, iid):
    yield "grid2-square-1", sorted(
        iid(*pair)
        for pair in [
            (1, 1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 1),
            (1, 2, 2, 2), (2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 2, 1),
        ]
    )
    for i in range(2, m):
        order = [
            (i, 1, i + 1, 1), (i + 1, 1, i, 1),
            (i, 2, i + 1, 2), (i + 1, 2, i, 2),
            (i + 1, 1, i + 1, 2), (i + 1, 2, i + 1, 1),
        ]
        yield f"grid2-square-{i}", [iid(*pair) for pair in order]


def _five_passes(g: Graph, m: int, n: int, iid):
    off = _vertex_index(g)[0]

    def internals(i: int, j: int) -> range:
        v = grid_vertex(i, j, n)
        return range(off[v], off[v + 1])

    # pass 1: top row then left column, internal incidences only
    for j in range(1, n + 1):
        yield "grid-step-1", internals(1, j)
    for i in range(2, m + 1):
        yield "grid-step-1", internals(i, 1)

    # pass 2: second row, fixed order within each vertex
    for j in range(2, n + 1):
        order = [(2, j, 2, j - 1), (2, j, 1, j), (2, j, 3, j)]
        if j < n:
            order.append((2, j, 2, j + 1))
        yield "grid-step-2", [iid(*pair) for pair in order]

    # pass 3: the interior rows below row 2, which pass 2 completed; each
    # window (a, b, c, d) at (i, j), (i, j+1) by the exact search _window
    for i in range(3, m):
        yield "grid-step-3a", [iid(i, 2, i - 1, 2), iid(i, 2, i, 1)]
        for j in range(2, n - 1):
            yield "grid-step-3b", [
                iid(i, j, i, j + 1),          # a
                iid(i, j, i + 1, j),          # b
                iid(i, j + 1, i, j),          # c
                iid(i, j + 1, i - 1, j + 1),  # d
            ]
        yield "grid-step-3c", [iid(i, n - 1, i, n), iid(i, n - 1, i + 1, n - 1)]

    # pass 4: last column
    for i in range(3, m):
        order = [(i, n, i, n - 1), (i, n, i - 1, n), (i, n, i + 1, n)]
        yield "grid-step-4", [iid(*pair) for pair in order]

    # pass 5: bottom row
    for j in range(2, n + 1):
        order = [(m, j, m - 1, j), (m, j, m, j - 1)]
        if j < n:
            order.append((m, j, m, j + 1))
        yield "grid-step-5", [iid(*pair) for pair in order]
