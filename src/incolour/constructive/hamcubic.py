"""Constructive list incidence colouring of Hamiltonian cubic graphs
(a Hamilton cycle plus a perfect matching) from 6-colour lists.

Order 4 is the complete graph and reuses its bespoke procedure.  Larger
graphs rotate the cycle so vertex 0 is not matched two steps ahead, fix
five incidences around the cycle edge v0-v1 with a selector, colour the
matching, then close the cycle leaving the two guarded incidences last.
"""

from __future__ import annotations

from typing import Iterable

from ..families import FamilySpec, generate
from ..graphs import Graph, IncolourError, InputError, ListAssignment
from .halin import _colour_k4
from .report import ConstructiveReport, Painter


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
    {c, d, e} in ``guard_inner``."""
    C, D, E = map(frozenset, (list_c, list_d, list_e))
    A, B = frozenset(list_a), frozenset(list_b)
    guard_outer = frozenset(guard_outer)
    guard_inner = frozenset(guard_inner)

    common = sorted(C & D & E)
    if common:
        c = d = e = common[0]
        case = "cde-common"
    elif not (C & D) and not (C & E) and not (D & E):
        c = min(C - guard_inner) if C != guard_inner else min(C)
        d = min(D - guard_inner) if D != guard_inner else min(D)
        e = min(E - guard_inner) if E != guard_inner else min(E)
        case = "cde-disjoint"
    elif C & D:
        c = d = min(C & D)
        e = min(E - guard_inner) if c in guard_inner else min(E)
        case = "cde-cd"
    elif C & E:
        c = e = min(C & E)
        d = min(D - guard_inner) if c in guard_inner else min(D)
        case = "cde-ce"
    else:
        d = e = min(D & E)
        c = min(C - guard_inner) if d in guard_inner else min(C)
        case = "cde-de"

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


def colour_hamiltonian_cubic(
    g: Graph,
    spec: FamilySpec,
    lists: ListAssignment,
) -> ConstructiveReport:
    """Total list incidence colouring of a Hamiltonian cubic graph from
    6-colour lists."""
    if spec.family != "ham_cubic":
        raise InputError("colour_hamiltonian_cubic needs a ham_cubic spec")
    built, _ = generate(spec)
    if built != g:
        raise InputError("graph does not match its ham_cubic spec")
    return _colour_hamiltonian_cubic(g, spec, lists)


def _colour_hamiltonian_cubic(
    g: Graph,
    spec: FamilySpec,
    lists: ListAssignment,
) -> ConstructiveReport:
    """:func:`colour_hamiltonian_cubic` on a graph known to match its spec."""
    if lists.min_size() < 6:
        raise InputError("hamiltonian cubic colouring needs lists of size >= 6")
    n = spec.params["n"]
    painter = Painter(g, lists)
    if n == 4:
        _colour_k4(painter, (0, 1, 2, 3))
        return painter.report()

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

    for u, w in spec.params["matching"]:
        for x, y in ((u, w), (w, u)):
            t = painter.id_of(x, y)
            if not painter.painted(t):
                painter.greedy(t, "ham-matching")

    painter.greedy(iid(1, 2), "ham-cycle")
    for i in range(2, n):
        painter.greedy(iid(i, (i + 1) % n), "ham-cycle")
        painter.greedy(iid((i + 1) % n, i), "ham-cycle")
    painter.greedy(iid(0, 1), "ham-close")
    painter.greedy(iid(1, 0), "ham-close")
    return painter.report()
