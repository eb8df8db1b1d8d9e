"""Constructive list incidence colouring of Hamiltonian cubic graphs
(a Hamilton cycle plus a perfect matching) from 6-colour lists.

Order 4 is K4, coloured as the Halin graph it is (one route for every
Halin graph, :func:`~incolour.constructive.halin.paint_halin`).  Larger
graphs, by the painting rule :func:`paint_ham_cubic`, rotate the cycle so
vertex 0 is not matched two steps ahead, fix five incidences around the
cycle edge v0-v1 (``ham-pick``), colour the matching, then close the
cycle leaving the two guarded incidences (v0, v0v1) and (v1, v1v0) last.

The five are a = (v1, v1vt), b = (vs, vsv0), c = (v2, v2v1),
d = (v0, v0vs) and e = (vt, vtv1), with vs and vt the matching partners
of v0 and v1; a must avoid c and e, and b must avoid d.  Two guards keep
the closing pair colourable: at most one colour of {a, b} in the list of
(v0, v0v1), the outer guard, and at most one colour of {c, d, e} in the
list of (v1, v1v0), the inner guard.  :func:`_boundary` searches these
at most 6^5 choices least first, so it finds one whenever one exists,
which the paper's boundary lemma guarantees at 6-colour lists; a boundary
with none raises :class:`~.report.StuckError` tagged ``ham-pick``.
"""

from __future__ import annotations

from itertools import product

from ..families import FamilySpec
from .halin import K4_HALIN, paint_halin
from .report import Painter, StuckError

# the list size at which every Hamiltonian cubic graph is coloured
HAM_CUBIC_BOUND = 6


def _boundary(A, B, C, D, E, outer, inner):
    """Colours (a, b, c, d, e) from the sorted lists A to E with a not in
    {c, e}, b != d, at most one colour of {a, b} in the set ``outer`` and
    at most one colour of {c, d, e} in the set ``inner``, or None if there
    are none: the first (c, d, e) in sorted order for which some (a, b)
    fits, with the least such (a, b)."""
    for c, d, e in product(C, D, E):
        if len(inner & {c, d, e}) <= 1:
            for a in A:
                if a != c and a != e:
                    for b in B:
                        if b != d and len(outer & {a, b}) <= 1:
                            return a, b, c, d, e
    return None


def paint_ham_cubic(painter: Painter, spec: FamilySpec) -> None:
    """Paint the Hamiltonian cubic graph of ``painter``, of the ham_cubic
    ``spec``, from lists of :data:`HAM_CUBIC_BOUND` colours; K4, of order
    4, is painted as the Halin graph it is."""
    n = spec.params["n"]
    if n == 4:
        paint_halin(painter, K4_HALIN)
        return
    match = {}
    for u, w in spec.params["matching"]:
        match[u] = w
        match[w] = u
    shift = 2 if match[0] == 2 else 0

    def vertex(i: int) -> int:
        return (i + shift) % n

    def iid(i: int, j: int) -> int:
        return painter.id_of(vertex(i), vertex(j))

    v_s = (match[vertex(0)] - shift) % n
    v_t = (match[vertex(1)] - shift) % n

    picked = [iid(1, v_t), iid(v_s, 0), iid(2, 1), iid(0, v_s), iid(v_t, 1)]
    picks = _boundary(*map(painter.free, picked),
                      painter.lists[iid(0, 1)], painter.lists[iid(1, 0)])
    if picks is None:
        raise StuckError(picked[0], "ham-pick", painter.trace)
    for i, colour in zip(picked, picks):
        painter.paint(i, colour, "ham-pick")

    painter.fill((painter.id_of(x, y) for u, w in spec.params["matching"]
                  for x, y in ((u, w), (w, u))), "ham-matching")

    painter.greedy(iid(1, 2), "ham-cycle")
    for i in range(2, n):
        painter.greedy(iid(i, (i + 1) % n), "ham-cycle")
        painter.greedy(iid((i + 1) % n, i), "ham-cycle")
    painter.greedy(iid(0, 1), "ham-close")
    painter.greedy(iid(1, 0), "ham-close")
