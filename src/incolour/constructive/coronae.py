"""Constructive list incidence colouring of generalized coronae of cycles
(a cycle with p pendant vertices on every cycle vertex), optionally
extending a pre-coloured pendant edge at v0.

For p <= 2 the cycle is coloured first behind a small guard, then the
pendant incidences.  For p >= 3 a partial colouring of the cycle is built
so that, at every cycle vertex, the colours of its two incoming cycle
incidences block at most one colour of its last pendant list; the cycle is
then completed greedily and the pendant incidences follow.

The per-vertex pendant blocks additionally carry a local exhaustive
completion: when the straight greedy order runs dry (possible at the
stated list sizes only for the pre-coloured vertex with p >= 4), the block
is redone as a tiny distinct-colour assignment search.  As a last resort
the instance starts over from the pre-coloured pendant edge alone and is
finished by :meth:`Painter.finish_by_search` (``corona-solver-fallback``).
"""

from __future__ import annotations

from typing import Optional

from ..families import corona_pendant
from ..graphs import (
    Graph,
    IncolourError,
    InputError,
    ListAssignment,
    incidence_id,
)
from .report import ConstructiveReport, Painter, StuckError


class _GiveUp(IncolourError):
    """Internal: a selector ran dry; the caller retries via exact search."""


def corona_bound(n: int, p: int, pre: bool) -> int:
    """List size at which the corona procedure is guaranteed to succeed."""
    if p <= 2:
        return p + 4
    if pre and n == 3:
        return max(p + 3, 8)
    return max(p + 3, 7)


def _colour_corona(
    g: Graph,
    n: int,
    p: int,
    lists: ListAssignment,
    pre: Optional[dict[int, int]],
) -> ConstructiveReport:
    """Total list incidence colouring of the corona ``g = gen_corona(n, p)``,
    the cycle C_n with p pendants per vertex; ``pre`` fixes the two
    incidences of the pendant edge v0-v0^1 beforehand."""
    pair = _corona_pre(g, n, p, lists, pre)
    required = corona_bound(n, p, pair is not None)
    if lists.min_size() < required:
        raise InputError(f"corona (n={n}, p={p}{', pre' if pair else ''}) needs lists of size >= {required}")
    return paint_corona_instance(g, n, p, lists, pair)


def paint_corona_instance(
    g: Graph,
    n: int,
    p: int,
    lists: ListAssignment,
    pre: Optional[tuple[int, int]],
) -> ConstructiveReport:
    """Run the corona procedure without re-checking the list bound (the
    cactus colouring reuses it on embedded sub-coronae whose bounds are
    governed by the cactus dispatch)."""
    painter = Painter(g, lists)
    try:
        _paint(painter, n, p, pre)
    except (StuckError, _GiveUp):
        # start over from the pre-colours alone and finish by exact search
        painter = Painter(g, lists)
        if pre is not None:
            _paint_pre(painter, n, p, pre)
        painter.finish_by_search("corona-solver-fallback")
    return painter.report()


def pendant_edge_ids(g: Graph, n: int, p: int) -> tuple[int, int]:
    """Ids of the two incidences of the pendant edge v0-v0^1 of the corona
    ``g``: ``(v0, v0·v0^1)`` first, then ``(v0^1, v0^1·v0)``."""
    leaf = corona_pendant(0, 1, n, p)
    return incidence_id(g, 0, leaf), incidence_id(g, leaf, 0)


def _corona_pre(
    g: Graph,
    n: int,
    p: int,
    lists: ListAssignment,
    pre: Optional[dict[int, int]],
) -> Optional[tuple[int, int]]:
    """The pre-colours ``(a, b)`` of the pendant edge v0-v0^1, cycle side
    first, from ``pre``, which must cover exactly its two incidences with
    two different colours from their lists."""
    if not pre:
        return None
    down, up = pendant_edge_ids(g, n, p)
    if sorted(pre) != sorted((down, up)):
        raise InputError(
            f"corona pre-colouring must cover incidences {down} and {up} only")
    for i in (down, up):
        if pre[i] not in lists[i]:
            raise InputError(f"pre-colour {pre[i]} outside the list of incidence {i}")
    if pre[down] == pre[up]:
        raise InputError("the two pre-colours must differ")
    return pre[down], pre[up]


def _paint(painter: Painter, n: int, p: int, pre: Optional[tuple[int, int]]) -> None:
    def pend(i, j):
        return corona_pendant(i, j, n, p)

    def iid(x, y):
        return painter.id_of(x, y)

    def lst(x, y):
        return painter.lists[iid(x, y)]

    seed = pre is not None or p <= 2
    if seed:
        if pre is not None:
            a, b = pre
            _paint_pre(painter, n, p, pre)
        else:
            a = min(lst(0, pend(0, 1)))
            painter.paint(iid(0, pend(0, 1)), a, "corona-seed")
            b = painter.greedy(iid(pend(0, 1), 0), "corona-seed")
    if p <= 2:
        _small(painter, n, p, a, b, iid, lst, pend)
    else:
        _large(painter, n, p, (a, b) if pre is not None else None, iid, lst, pend)

    # pendant externals, shared by both branches
    for i in range(n):
        for j in range(1, p + 1):
            t = iid(pend(i, j), i)
            if not painter.painted(t):
                painter.greedy(t, "corona-external")


def _paint_pre(painter: Painter, n: int, p: int, pre: tuple[int, int]) -> None:
    down, up = pendant_edge_ids(painter.graph, n, p)
    painter.paint(down, pre[0], "corona-pre")
    painter.paint(up, pre[1], "corona-pre")


def _cycle_walk(painter: Painter, n: int, iid, tag: str) -> None:
    """Complete the cycle incidences edge pair by edge pair, starting at
    the edge v0-v_{n-1}."""
    order = [(0, n - 1), (n - 1, 0)]
    for i in range(n - 1):
        order.extend([(i, i + 1), (i + 1, i)])
    for x, y in order:
        t = iid(x, y)
        if not painter.painted(t):
            painter.greedy(t, tag)


def _small(painter, n, p, a, b, iid, lst, pend) -> None:
    if p == 2:
        guard = lst(0, pend(0, 2))
        pool = lst(n - 1, 0)
        if not {a, b} <= guard:
            c = _least(pool - {a})
        elif b in pool:
            c = b
        else:
            c = _least(pool - guard)
        painter.paint(iid(n - 1, 0), c, "corona-cycle-guard")
    _cycle_walk(painter, n, iid, "corona-cycle")
    if p == 2:
        painter.greedy(iid(0, pend(0, 2)), "corona-internal")
    for i in range(1, n):
        for j in range(1, p + 1):
            painter.greedy(iid(i, pend(i, j)), "corona-internal")


def _large(painter, n, p, pre_ab, iid, lst, pend) -> None:
    def guard_list(i):
        return lst(i, pend(i, p))

    alpha: dict[int, int] = {}
    if pre_ab is not None:
        a, b = pre_ab
        c, d = _choose_cd(lst(1, 0), lst(n - 1, 0), guard_list(0), a, b)
        painter.paint(iid(1, 0), c, "corona-cd")
        painter.paint(iid(n - 1, 0), d, "corona-cd")

        # externals of v1
        left = lst(0, 1) - {a, b, c, d}
        right = lst(2, 1) - ({c, d} if n == 3 else {c})
        alpha[1] = _place_pair(painter, iid(0, 1), iid(2, 1), left, right, guard_list(1))

        # externals of v_{n-1}
        left = lst(0, n - 1) - {a, b, c, d, alpha[1]}
        if n == 3:
            sub = {c, d, alpha[1]}
        elif n == 4:
            sub = {d, alpha[1]}
        else:
            sub = {d}
        right = lst(n - 2, n - 1) - sub
        if d not in guard_list(n - 1):
            colour = _least(left)
            painter.paint(iid(0, n - 1), colour, "corona-pass")
            alpha[n - 1] = colour
        else:
            alpha[n - 1] = _place_pair(
                painter, iid(n - 2, n - 1), iid(0, n - 1), right, left, guard_list(n - 1),
            )
        sweep = range(2, n - 1)
    else:
        sweep = range(n)

    for i in sweep:
        if pre_ab is not None and i == 2:
            left_sub = {c} | {alpha[j] for j in (1, 3) if j in alpha}
        else:
            left_sub = {alpha[j % n] for j in (i - 2, i - 1, i + 1) if (j % n) in alpha}
        if pre_ab is not None and i == n - 2:
            right_sub = {d} | {alpha[j] for j in (n - 3, n - 1) if j in alpha}
        else:
            right_sub = {alpha[j % n] for j in (i - 1, i + 1, i + 2) if (j % n) in alpha}
        left = lst((i - 1) % n, i) - left_sub
        right = lst((i + 1) % n, i) - right_sub
        alpha[i] = _place_pair(
            painter, iid((i - 1) % n, i), iid((i + 1) % n, i), left, right, guard_list(i),
        )

    _cycle_walk(painter, n, iid, "corona-cycle")

    for i in range(n):
        start = 2 if (pre_ab is not None and i == 0) else 1
        block = [iid(i, pend(i, j)) for j in range(start, p + 1)]
        _paint_block(painter, block)


def _place_pair(painter, left_id, right_id, left_pool, right_pool, guard) -> int:
    """Colour one or both of a vertex's two incoming cycle incidences:
    either both with a shared colour, or a single one with a colour missing
    from the vertex's last-pendant list."""
    both = left_pool & right_pool
    if both:
        colour = min(both)
        painter.paint(left_id, colour, "corona-pass")
        painter.paint(right_id, colour, "corona-pass")
        return colour
    pick = sorted(left_pool - guard)
    if pick:
        painter.paint(left_id, pick[0], "corona-pass")
        return pick[0]
    pick = sorted(right_pool - guard)
    if not pick:
        raise _GiveUp("no pass colour available")
    painter.paint(right_id, pick[0], "corona-pass")
    return pick[0]


def _choose_cd(pool_c, pool_d, guard, a, b) -> tuple[int, int]:
    """Colours for the two cycle externals of v0 in the pre-coloured case:
    c != a, d != a, and at most two of {a, b, c, d} in the last-pendant
    guard list."""
    if len({a, b} & guard) <= 1:
        both = (pool_c & pool_d) - {a}
        if both:
            g = min(both)
            return g, g
        cc = sorted(pool_c - guard - {a})
        if cc:
            return cc[0], _least(pool_d - {a})
        dd = sorted(pool_d - guard - {a})
        if not dd:
            raise _GiveUp("no c/d choice")
        return _least(pool_c - {a}), dd[0]
    c = b if b in pool_c else _least(pool_c - guard)
    d = b if b in pool_d else _least(pool_d - guard)
    return c, d


def _paint_block(painter: Painter, block: list[int]) -> None:
    """Pendant internals of one cycle vertex, in pendant order; on a dead
    end, redo the block as an exhaustive distinct-colour assignment."""
    try:
        for t in block:
            painter.greedy(t, "corona-pendant")
        return
    except StuckError:
        for t in block:
            if painter.painted(t):
                painter.unpaint(t)
    free = [painter.free(t) for t in block]
    chosen: list[int] = []

    def rec(pos: int) -> bool:
        if pos == len(block):
            return True
        for colour in free[pos]:
            if colour not in chosen:
                chosen.append(colour)
                if rec(pos + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0):
        raise _GiveUp("pendant block admits no distinct assignment")
    for t, colour in zip(block, chosen):
        painter.paint(t, colour, "corona-pendant-matched")


def _least(pool) -> int:
    if not pool:
        raise _GiveUp("selector pool ran dry")
    return min(pool)
