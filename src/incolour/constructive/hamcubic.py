"""Constructive list incidence colouring of Hamiltonian cubic graphs
(a Hamilton cycle plus a perfect matching) from 6-colour lists.

Order 4 is K4, coloured as the Halin graph it is (one route for every
Halin graph, :func:`~incolour.constructive.halin.paint_halin`).  Larger
graphs, by the painting rule :func:`paint_ham_cubic`, rotate the cycle so
vertex 0 is not matched two steps ahead, fix five incidences around the
cycle edge v0-v1 with a selector, colour the matching, then close the
cycle leaving the two guarded incidences last.  The selector's
(c, d, e) stage is the guarded-triple rule :func:`choose_k4_triple`: three
colours from three lists with at most one of them in a guard list.
"""

from __future__ import annotations

from typing import Iterable

from ..families import FamilySpec
from ..graphs import IncolourError
from .halin import K4_HALIN, paint_halin
from .report import Painter

# the list size at which every Hamiltonian cubic graph is coloured
HAM_CUBIC_BOUND = 6


def choose_k4_triple(
    first: Iterable[int],
    second: Iterable[int],
    third: Iterable[int],
    target: Iterable[int],
) -> tuple[tuple[int, int, int], str]:
    """Pick (a, b, c) from three 6-colour lists so that at most one of the
    three values lies in ``target``."""
    A, B, C = map(frozenset, (first, second, third))
    target = frozenset(target)
    common = sorted(A & B & C)
    if common:
        g = common[0]
        return (g, g, g), "common"
    pairs = (("ab", A & B), ("ac", A & C), ("bc", B & C))
    for name, inter in pairs:
        if inter:
            g = min(inter)
            if name == "ab":
                other, pick = C, lambda x: (g, g, x)
            elif name == "ac":
                other, pick = B, lambda x: (g, x, g)
            else:
                other, pick = A, lambda x: (x, g, g)
            if g in target:
                x = min(other - target)  # other != target since g sits in target only
            else:
                x = min(other)
            return pick(x), f"pair-{name}"
    # pairwise disjoint: at most one of the three sets can equal the target
    a = min(A - target) if A != target else min(A)
    b = min(B - target) if B != target else min(B)
    c = min(C - target) if C != target else min(C)
    return (a, b, c), "disjoint"


def k4_triple_valid(triple, first, second, third, target) -> bool:
    a, b, c = triple
    return (
        a in first and b in second and c in third
        and len(frozenset(target) & {a, b, c}) <= 1
    )


# the guarded-triple rule's case names as the ham boundary's (c, d, e)
# stage reports them
_CDE_CASE = {
    "common": "cde-common",
    "pair-ab": "cde-cd",
    "pair-ac": "cde-ce",
    "pair-bc": "cde-de",
    "disjoint": "cde-disjoint",
}


def choose_ham_boundary(
    list_c: Iterable[int],
    list_d: Iterable[int],
    list_e: Iterable[int],
    list_a: Iterable[int],
    list_b: Iterable[int],
    guard_outer: Iterable[int],
    guard_inner: Iterable[int],
) -> tuple[tuple[int, int, int, int, int], str]:
    """Pick (a, b, c, d, e) from 6-colour lists with a != c, a != e,
    b != d, at most one of {a, b} in ``guard_outer`` and at most one of
    {c, d, e} in ``guard_inner``.  The (c, d, e) stage is the guarded-triple
    rule, :func:`choose_k4_triple` with ``guard_inner`` as its target."""
    C, D, E = map(frozenset, (list_c, list_d, list_e))
    A, B = frozenset(list_a), frozenset(list_b)
    guard_outer = frozenset(guard_outer)
    guard_inner = frozenset(guard_inner)

    (c, d, e), k4_case = choose_k4_triple(C, D, E, guard_inner)
    case = _CDE_CASE[k4_case]

    pool_a = A - {e, c}
    pool_b = B - {d}
    both = pool_a & pool_b
    if both:
        a = b = min(both)
    else:
        spare_b = sorted(pool_b - guard_outer)
        if spare_b:
            b = spare_b[0]
            a = min(pool_a)
        else:
            a = min(pool_a - guard_outer)  # |pool_a| + |pool_b| >= 9 > |guard_outer|
            b = min(pool_b)
    result = (a, b, c, d, e)
    if not ham_boundary_valid(result, A, B, C, D, E, guard_outer, guard_inner):
        raise IncolourError(f"ham boundary selector failed in case {case}")  # pragma: no cover
    return result, case


def ham_boundary_valid(values, A, B, C, D, E, guard_outer, guard_inner) -> bool:
    a, b, c, d, e = values
    return (
        a in A and b in B and c in C and d in D and e in E
        and a != c and a != e and b != d
        and len(frozenset(guard_outer) & {a, b}) <= 1
        and len(frozenset(guard_inner) & {c, d, e}) <= 1
    )


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

    def lst(i: int, j: int):
        return painter.lists[iid(i, j)]

    v_s = (match[vertex(0)] - shift) % n
    v_t = (match[vertex(1)] - shift) % n

    picks, _case = choose_ham_boundary(
        lst(2, 1), lst(0, v_s), lst(v_t, 1),
        lst(1, v_t), lst(v_s, 0),
        lst(0, 1), lst(1, 0),
    )
    a, b, c, d, e = picks
    painter.paint(iid(1, v_t), a, "ham-pick")
    painter.paint(iid(v_s, 0), b, "ham-pick")
    painter.paint(iid(2, 1), c, "ham-pick")
    painter.paint(iid(0, v_s), d, "ham-pick")
    painter.paint(iid(v_t, 1), e, "ham-pick")

    painter.fill((painter.id_of(x, y) for u, w in spec.params["matching"]
                  for x, y in ((u, w), (w, u))), "ham-matching")

    painter.greedy(iid(1, 2), "ham-cycle")
    for i in range(2, n):
        painter.greedy(iid(i, (i + 1) % n), "ham-cycle")
        painter.greedy(iid((i + 1) % n, i), "ham-cycle")
    painter.greedy(iid(0, 1), "ham-close")
    painter.greedy(iid(1, 0), "ham-close")
