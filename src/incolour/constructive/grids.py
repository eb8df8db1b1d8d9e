"""Constructive list incidence colouring of square grids.

Two-row grids are coloured square by square with 5-colour lists.  Wider
grids use 6-colour lists and five passes: the top border and left column,
the second row, the interior rows, the last column, and the bottom row.
The painting rule is :func:`paint_grid`.

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
from ..graphs import _vertex_index
from .report import Painter, StuckError


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
    from lists of :func:`grid_bound` colours."""
    def iid(i1: int, j1: int, i2: int, j2: int) -> int:
        return painter.id_of(grid_vertex(i1, j1, n), grid_vertex(i2, j2, n))

    if n == 2:
        _two_rows(painter, m, iid)
    else:
        _five_passes(painter, m, n, iid)


def _two_rows(painter: Painter, m: int, iid) -> None:
    first = sorted(
        iid(*pair)
        for pair in [
            (1, 1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 1),
            (1, 2, 2, 2), (2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 2, 1),
        ]
    )
    for i in first:
        painter.greedy(i, "grid2-square-1")
    for i in range(2, m):
        order = [
            (i, 1, i + 1, 1), (i + 1, 1, i, 1),
            (i, 2, i + 1, 2), (i + 1, 2, i, 2),
            (i + 1, 1, i + 1, 2), (i + 1, 2, i + 1, 1),
        ]
        for pair in order:
            painter.greedy(iid(*pair), f"grid2-square-{i}")


def _five_passes(painter: Painter, m: int, n: int, iid) -> None:
    off = _vertex_index(painter.graph)[0]

    def internals(i: int, j: int) -> range:
        v = grid_vertex(i, j, n)
        return range(off[v], off[v + 1])

    # pass 1: top row then left column, internal incidences only
    for j in range(1, n + 1):
        for inc in internals(1, j):
            painter.greedy(inc, "grid-step-1")
    for i in range(2, m + 1):
        for inc in internals(i, 1):
            painter.greedy(inc, "grid-step-1")

    # pass 2: second row, fixed order within each vertex
    for j in range(2, n + 1):
        order = [(2, j, 2, j - 1), (2, j, 1, j), (2, j, 3, j)]
        if j < n:
            order.append((2, j, 2, j + 1))
        for pair in order:
            painter.greedy(iid(*pair), "grid-step-2")

    # pass 3: the interior rows below row 2, which pass 2 completed; each
    # window (a, b, c, d) at (i, j), (i, j+1) by the exact search _window
    for i in range(3, m):
        painter.fill([iid(i, 2, i - 1, 2), iid(i, 2, i, 1)], "grid-step-3a")
        for j in range(2, n - 1):
            targets = [
                iid(i, j, i, j + 1),          # a
                iid(i, j, i + 1, j),          # b
                iid(i, j + 1, i, j),          # c
                iid(i, j + 1, i - 1, j + 1),  # d
            ]
            quad = _window(*map(painter.free, targets))
            if quad is None:
                raise StuckError(targets[0], "grid-step-3b", painter.trace)
            for t, colour in zip(targets, quad):
                painter.paint(t, colour, "grid-step-3b")
        painter.fill([iid(i, n - 1, i, n), iid(i, n - 1, i + 1, n - 1)], "grid-step-3c")

    # pass 4: last column
    for i in range(3, m):
        order = [(i, n, i, n - 1), (i, n, i - 1, n), (i, n, i + 1, n)]
        for pair in order:
            painter.greedy(iid(*pair), "grid-step-4")

    # pass 5: bottom row
    for j in range(2, n + 1):
        order = [(m, j, m - 1, j), (m, j, m, j - 1)]
        if j < n:
            order.append((m, j, m, j + 1))
        for pair in order:
            painter.greedy(iid(*pair), "grid-step-5")
