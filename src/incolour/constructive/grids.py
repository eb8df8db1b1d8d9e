"""Constructive list incidence colouring of square grids.

Two-row grids are coloured square by square with 5-colour lists.  Wider
grids use 6-colour lists and five passes: the top border and left column,
the second row, the interior rows (through a four-incidence window
selector), the last column, and the bottom row.  The painting rule is
:func:`paint_grid`.
"""

from __future__ import annotations

from typing import Iterable

from ..families import grid_vertex
from ..graphs import IncolourError, InputError, _vertex_index
from .report import Painter


def choose_grid_window(
    list_a: Iterable[int],
    list_b: Iterable[int],
    list_c: Iterable[int],
    list_d: Iterable[int],
    alphas: tuple[int, int, int, int],
    betas: tuple[int, int, int, int],
) -> tuple[tuple[int, int, int, int], str]:
    """Pick colours (a, b, c, d) for the four uncoloured incidences of an
    interior-row window.

    Requirements: a and b avoid all four alpha context colours, c avoids
    {alpha1, alpha2, beta4}, d avoids all four betas, and both {a, b, c}
    and {a, c, d} are triples of pairwise distinct colours.  Lists need at
    least 6 colours each.  Returns the chosen quadruple plus the case tag
    of the branch that produced it.
    """
    La, Lb, Lc, Ld = map(frozenset, (list_a, list_b, list_c, list_d))
    if min(len(La), len(Lb), len(Lc), len(Ld)) < 6:
        raise InputError("window selector needs lists of size >= 6")
    alpha1, alpha1p, alpha2, alpha2p = alphas
    beta1, beta2, beta3, beta4 = betas
    alpha_all = {alpha1, alpha1p, alpha2, alpha2p}
    gc = {alpha1, alpha2, beta4}
    gd = {beta1, beta2, beta3, beta4}
    A = sorted(La - alpha_all)
    B = sorted(Lb - alpha_all)

    if len(Lc & gc) <= 2:
        a = A[0]
        b = _pick(B, {a})
        d = _pick(Ld, gd | {a})
        c = _pick(Lc, gc | {a, b, d})
        case = "slack-c"
    elif len(Ld & gd) <= 3:
        a = A[0]
        b = _pick(B, {a})
        c = _pick(Lc, gc | {a, b})
        d = _pick(Ld, gd | {a, c})
        case = "slack-d"
    elif beta4 in A:
        a = beta4
        b = _pick(B, {beta4})
        c = _pick(Lc, gc | {b})
        d = _pick(Ld, gd | {c})
        case = "beta4-a"
    elif beta4 in B:
        b = beta4
        a = _pick(A, {beta4})
        d = _pick(Ld, gd | {a})
        c = _pick(Lc, gc | {a, d})
        case = "beta4-b"
    else:
        eps_ab = A[:2]
        eps_b = B[:2]
        shared = sorted(set(eps_ab) & set(eps_b))
        if not shared:
            found = None
            for d0 in sorted(Ld - gd):
                for c0 in sorted(Lc - gc):
                    if c0 != d0 and {c0, d0} != set(eps_ab):
                        found = (c0, d0)
                        break
                if found:
                    break
            c, d = found
            a = _pick(eps_ab, {c, d})
            b = _pick(eps_b, {c})
            case = "split-pairs"
        else:
            mu = shared[0]
            if mu not in Lc:
                a = mu
                b = _pick(eps_b, {mu})
                d = _pick(Ld, gd | {mu})
                c = _pick(Lc, gc | {b, d})
                case = "mu-off-c"
            elif mu not in Ld:
                a = mu
                b = _pick(eps_b, {mu})
                c = _pick(Lc, gc | {a, b})
                d = _pick(Ld, gd | {c})
                case = "mu-off-d"
            elif mu not in gd:
                b = d = mu
                a = _pick(eps_ab, {mu})
                c = _pick(Lc, gc | {a, mu})
                case = "mu-shared"
            else:
                a = mu
                b = _pick(eps_b, {mu})
                c = _pick(Lc, gc | {mu, b})
                d = _pick(Ld, gd | {c})
                case = "mu-beta"
    quad = (a, b, c, d)
    if not window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas):  # pragma: no cover
        raise IncolourError(f"window selector produced an invalid quadruple in case {case}")
    return quad, case


def window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas) -> bool:
    """Check a quadruple against the window constraints (also used by the
    exhaustive test oracle)."""
    a, b, c, d = quad
    alpha1, alpha1p, alpha2, alpha2p = alphas
    beta1, beta2, beta3, beta4 = betas
    return (
        a in La and a not in {alpha1, alpha1p, alpha2, alpha2p}
        and b in Lb and b not in {alpha1, alpha1p, alpha2, alpha2p}
        and c in Lc and c not in {alpha1, alpha2, beta4}
        and d in Ld and d not in {beta1, beta2, beta3, beta4}
        and len({a, b, c}) == 3
        and len({a, c, d}) == 3
    )


def _pick(pool: Iterable[int], avoid: set[int]) -> int:
    for x in sorted(pool):
        if x not in avoid:
            return x
    raise IncolourError("window selector ran out of colours")  # pragma: no cover


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

    # pass 3: interior rows (row 2 is already complete and skipped)
    if m >= 4:
        for i in range(2, m):
            painter.fill([iid(i, 2, i - 1, 2), iid(i, 2, i, 1)], "grid-step-3a")
            for j in range(2, n - 1):
                targets = [
                    iid(i, j, i, j + 1),          # a
                    iid(i, j, i + 1, j),          # b
                    iid(i, j + 1, i, j),          # c
                    iid(i, j + 1, i - 1, j + 1),  # d
                ]
                if any(painter.painted(t) for t in targets):
                    continue
                col = painter.colour
                alphas = (
                    col[iid(i, j, i, j - 1)],
                    col[iid(i, j - 1, i, j)],
                    col[iid(i, j, i - 1, j)],
                    col[iid(i - 1, j, i, j)],
                )
                betas = (
                    col[iid(i - 1, j + 1, i - 1, j)],
                    col[iid(i - 1, j + 1, i - 2, j + 1)],
                    col[iid(i - 1, j + 1, i - 1, j + 2)],
                    col[iid(i - 1, j + 1, i, j + 1)],
                )
                quad, case = choose_grid_window(
                    painter.lists[targets[0]], painter.lists[targets[1]],
                    painter.lists[targets[2]], painter.lists[targets[3]],
                    alphas, betas,
                )
                for t, colour in zip(targets, quad):
                    painter.paint(t, colour, f"grid-step-3b:{case}")
            painter.fill([iid(i, n - 1, i, n), iid(i, n - 1, i + 1, n - 1)], "grid-step-3c")

    # pass 4: last column
    if m >= 4:
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
