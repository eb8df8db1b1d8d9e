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
is redone as a tiny distinct-colour assignment search.  There is no
exact-search fallback: a run that still gets stuck raises
:class:`StuckError`, as a stuck cactus unit does; a selector that runs
dry names the unit's first unpainted incidence, under the tag ``corona``.

The painting rule :func:`paint_corona` paints the pre-coloured edge and
hands the rest to :func:`paint_cycle_unit`, which works on host vertices
of any graph, so the cactus colouring runs it on each cycle unit in place;
pendant rows shorter than p are allowed there.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..families import corona_pendant
from ..graphs import Graph, IncolourError, InputError, incidence_id
from .report import Painter, StuckError


class _GiveUp(IncolourError):
    """Internal: a selector ran dry.  :func:`paint_cycle_unit` reports it as
    a :class:`StuckError`, so it never leaves this module."""


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


def paint_cycle_unit(painter: Painter, ring: Sequence[int], pendants: list[list[int]],
                     prefix: str = "") -> None:
    """Colour every unpainted incidence on the cycle ``ring`` (host vertices
    in cycle order) and on the edges to ``pendants[i]``, the pendant
    vertices of ``ring[i]``, with p = the longest pendant row.  When the
    first pendant edge of ``ring[0]`` is already painted it plays the
    pre-coloured pendant edge.  A missing pendant slot (a row shorter than
    p) is never painted, and its list reads as empty where it guards a
    choice.  Every step's tag is ``prefix`` followed by its corona tag."""
    n = len(ring)
    p = max(1, max(map(len, pendants)))

    def pend(i, j):
        return pendants[i][j - 1] if j <= len(pendants[i]) else None

    def iid(x, y):
        return None if x is None or y is None else painter.id_of(x, y)

    def lst(x, y):
        i = iid(x, y)
        return frozenset() if i is None else painter.lists[i]

    down, up = iid(ring[0], pend(0, 1)), iid(pend(0, 1), ring[0])
    pre = a = b = None
    if down is not None and painter.painted(down):
        pre = a, b = painter.colour[down], painter.colour[up]
    elif p <= 2 and down is not None:
        a = min(painter.lists[down])
        painter.paint(down, a, prefix + "corona-seed")
        b = painter.greedy(up, prefix + "corona-seed")
    try:
        if p <= 2:
            _small(painter, ring, pendants, p, a, b, iid, lst, pend, prefix)
        else:
            _large(painter, ring, pendants, p, pre, iid, lst, pend, prefix)
    except _GiveUp:
        # a selector ran dry: report the first incidence of the unit left
        # unpainted, as a stuck greedy step would
        edges = [(x, y) for i, x in enumerate(ring) for y in (ring[i - 1], *pendants[i])]
        stuck = next(t for x, y in edges for t in (iid(x, y), iid(y, x))
                     if not painter.painted(t))
        raise StuckError(stuck, prefix + "corona", painter.trace) from None

    # pendant externals, shared by both branches
    painter.fill((iid(w, ring[i]) for i in range(n) for w in pendants[i]),
                 prefix + "corona-external")


def _cycle_walk(painter: Painter, ring: Sequence[int], iid, tag: str) -> None:
    """Complete the cycle incidences edge pair by edge pair, starting at
    the edge v0-v_{n-1}."""
    order = [(0, -1), (-1, 0)]
    for i in range(len(ring) - 1):
        order.extend([(i, i + 1), (i + 1, i)])
    painter.fill((iid(ring[x], ring[y]) for x, y in order), tag)


def _small(painter, v, pendants, p, a, b, iid, lst, pend, prefix) -> None:
    if p == 2:
        guard = lst(v[0], pend(0, 2))
        pool = lst(v[-1], v[0])
        if not {a, b} <= guard:
            c = _least(pool - {a})
        elif b in pool:
            c = b
        else:
            c = _least(pool - guard)
        painter.paint(iid(v[-1], v[0]), c, prefix + "corona-cycle-guard")
    _cycle_walk(painter, v, iid, prefix + "corona-cycle")
    if pend(0, 2) is not None:
        painter.greedy(iid(v[0], pend(0, 2)), prefix + "corona-internal")
    for i in range(1, len(v)):
        for w in pendants[i]:
            painter.greedy(iid(v[i], w), prefix + "corona-internal")


def _large(painter, v, pendants, p, pre_ab, iid, lst, pend, prefix) -> None:
    n = len(v)
    pass_tag = prefix + "corona-pass"

    def guard_list(i):
        return lst(v[i], pend(i, p))

    alpha: dict[int, int] = {}
    if pre_ab is not None:
        a, b = pre_ab
        c, d = _choose_cd(lst(v[1], v[0]), lst(v[-1], v[0]), guard_list(0), a, b)
        painter.paint(iid(v[1], v[0]), c, prefix + "corona-cd")
        painter.paint(iid(v[-1], v[0]), d, prefix + "corona-cd")

        # externals of v1
        left = lst(v[0], v[1]) - {a, b, c, d}
        right = lst(v[2], v[1]) - ({c, d} if n == 3 else {c})
        alpha[1] = _place_pair(painter, iid(v[0], v[1]), iid(v[2], v[1]), left, right,
                               guard_list(1), pass_tag)

        # externals of v_{n-1}
        left = lst(v[0], v[-1]) - {a, b, c, d, alpha[1]}
        if n == 3:
            sub = {c, d, alpha[1]}
        elif n == 4:
            sub = {d, alpha[1]}
        else:
            sub = {d}
        right = lst(v[-2], v[-1]) - sub
        if d not in guard_list(n - 1):
            colour = _least(left)
            painter.paint(iid(v[0], v[-1]), colour, pass_tag)
            alpha[n - 1] = colour
        else:
            alpha[n - 1] = _place_pair(
                painter, iid(v[-2], v[-1]), iid(v[0], v[-1]), right, left, guard_list(n - 1),
                pass_tag,
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
        left = lst(v[i - 1], v[i]) - left_sub
        right = lst(v[(i + 1) % n], v[i]) - right_sub
        alpha[i] = _place_pair(
            painter, iid(v[i - 1], v[i]), iid(v[(i + 1) % n], v[i]), left, right, guard_list(i),
            pass_tag,
        )

    _cycle_walk(painter, v, iid, prefix + "corona-cycle")

    for i in range(n):
        start = 1 if (pre_ab is not None and i == 0) else 0
        _paint_block(painter, [iid(v[i], w) for w in pendants[i][start:]], prefix)


def _place_pair(painter, left_id, right_id, left_pool, right_pool, guard,
                tag="corona-pass") -> int:
    """Colour one or both of a vertex's two incoming cycle incidences:
    either both with a shared colour, or a single one with a colour missing
    from the vertex's last-pendant list."""
    both = left_pool & right_pool
    if both:
        colour = min(both)
        painter.paint(left_id, colour, tag)
        painter.paint(right_id, colour, tag)
        return colour
    pick = sorted(left_pool - guard)
    if pick:
        painter.paint(left_id, pick[0], tag)
        return pick[0]
    pick = sorted(right_pool - guard)
    if not pick:
        raise _GiveUp("no pass colour available")
    painter.paint(right_id, pick[0], tag)
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


def _paint_block(painter: Painter, block: list[int], prefix: str = "") -> None:
    """Pendant internals of one cycle vertex, in pendant order; on a dead
    end, redo the block as an exhaustive distinct-colour assignment."""
    try:
        for t in block:
            painter.greedy(t, prefix + "corona-pendant")
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
        painter.paint(t, colour, prefix + "corona-pendant-matched")


def _least(pool) -> int:
    if not pool:
        raise _GiveUp("selector pool ran dry")
    return min(pool)
