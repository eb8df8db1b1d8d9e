"""Constructive list incidence colouring of Halin graphs.

Dispatch by shape: K4 has a bespoke 6-list procedure; wheels and every
graph of maximum degree >= 6 are coloured tree-first (then the outer cycle
is finished in leaf order by the exact ring transfer
:meth:`Painter.paint_ring`, its lists keeping at least four colours); the
remaining graphs, whose inner tree is not a star, use a two-block boundary
of the outer cycle: five incidences around the boundary are fixed by a
selector, the tree is completed around the path joining the two boundary
parents, and the cycle is closed against the selector's guarantees.  Leaf
orders with no such boundary go whole to exact search,
:meth:`Painter.finish_by_search` (``halin-solver-fallback``).

K4 and the boundary share one guarded-triple rule (:func:`choose_k4_triple`):
three colours from three lists with at most one of them in a guard list.
The boundary selector takes its (c, d, e) stage from it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from ..families import FamilySpec
from ..graphs import Graph, IncolourError, InputError, ListAssignment
from .report import ConstructiveReport, Painter, relabelled_subgraph
from .trees import colour_tree


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


# the K4 selector's case names as the (c, d, e) stage of a boundary reports them
_CDE_CASE = {
    "common": "cde-common",
    "pair-ab": "cde-cd",
    "pair-ac": "cde-ce",
    "pair-bc": "cde-de",
    "disjoint": "cde-disjoint",
}


def k4_triple_valid(triple, first, second, third, target) -> bool:
    a, b, c = triple
    return (
        a in first and b in second and c in third
        and len(frozenset(target) & {a, b, c}) <= 1
    )


def choose_halin_boundary(
    list_a: Iterable[int],
    list_b: Iterable[int],
    list_c: Iterable[int],
    list_d: Iterable[int],
    list_e: Iterable[int],
    guard_last: Iterable[int],
    guard_first: Iterable[int],
    guard_inner: Iterable[int],
) -> tuple[tuple[int, int, int, int, int], str]:
    """Pick the five boundary colours (a, b, c, d, e).

    Constraints: b != c, at most two of {a, b, c} lie in ``guard_last`` and
    in ``guard_first``, and at most one of {c, d, e} lies in
    ``guard_inner``.  All lists need at least max_degree+2 (and at least 6)
    colours.  The (c, d, e) stage is the K4 guarded-triple rule,
    :func:`choose_k4_triple` with ``guard_inner`` as its target."""
    A, B = frozenset(list_a), frozenset(list_b)
    C, D, E = frozenset(list_c), frozenset(list_d), frozenset(list_e)
    guard_last = frozenset(guard_last)
    guard_first = frozenset(guard_first)
    guard_inner = frozenset(guard_inner)

    (c, d, e), k4_case = choose_k4_triple(C, D, E, guard_inner)
    case = _CDE_CASE[k4_case]

    a: Optional[int] = None
    b: Optional[int] = None
    if c in guard_first:
        if len(A & B) >= 2:
            a = b = min((A & B) - {c})
        elif A != guard_first:
            a = min(A - guard_first)
        else:
            b = min(B - guard_first)
    if c in guard_last:
        if a is None and b is None:
            if len(A & B) >= 2:
                a = b = min((A & B) - {c})
            elif A != guard_last:
                a = min(A - guard_last)
            else:
                b = min(B - guard_last)
        elif a is not None and b is not None:
            pass
        elif a is not None:
            if a in B:
                b = a
            elif a not in guard_last:
                pass
            else:
                b = min(B - guard_last)  # B != guard_last: a sits in guard_last but not in B
        else:
            if b in A:
                a = b
            elif b not in guard_last:
                pass
            else:
                a = min(A - guard_last)
    if b is None:
        b = min(B - {c})
    if a is None:
        a = min(A)
    result = (a, b, c, d, e)
    if not halin_boundary_valid(result, A, B, C, D, E, guard_last, guard_first, guard_inner):
        raise IncolourError(f"boundary selector failed in case {case}")  # pragma: no cover
    return result, case


def halin_boundary_valid(values, A, B, C, D, E, guard_last, guard_first, guard_inner) -> bool:
    a, b, c, d, e = values
    return (
        a in A and b in B and c in C and d in D and e in E
        and b != c
        and len(frozenset(guard_last) & {a, b, c}) <= 2
        and len(frozenset(guard_first) & {a, b, c}) <= 2
        and len(frozenset(guard_inner) & {c, d, e}) <= 1
    )


def required_halin_lists(g: Graph, spec: FamilySpec) -> int:
    """The guaranteed-sufficient list size for this Halin graph."""
    delta = g.max_degree
    if _is_k4(g):
        return 6
    if delta == 5 or (_tree_is_star(g, spec) and delta == 4):
        return 7
    if delta in (3, 4):
        return 6
    return delta + 1


def _colour_halin(g: Graph, spec: FamilySpec, lists: ListAssignment) -> ConstructiveReport:
    """Total list incidence colouring of the Halin graph ``g`` of the halin
    ``spec`` at its guaranteed list size (6 for maximum degree 3 or 4
    except the 4-wheel, 7 for maximum degree 5 and the 4-wheel, max degree
    + 1 beyond)."""
    required = required_halin_lists(g, spec)
    if lists.min_size() < required:
        raise InputError(f"halin colouring needs lists of size >= {required}")
    painter = Painter(g, lists)
    if _is_k4(g):
        _colour_k4(painter, (0, 1, 2, 3))
    elif _tree_is_star(g, spec) or g.max_degree >= 6:
        _colour_tree_first(painter, spec)
    else:
        leaves = spec.params["leaf_order"]
        tree = Graph(g.n, spec.params["tree_edges"])
        parents = [tree.adj[v][0] for v in leaves]
        start = _two_block_boundary(parents)
        if start is not None:
            _colour_boundary(painter, tree, leaves, parents, start)
        elif lists.min_size() >= max(g.max_degree + 1, 7):
            _colour_tree_first(painter, spec)
        else:
            # leaf orders with no two adjacent parent blocks of length >= 2
            # fall outside the boundary procedure; defer to exact search
            painter.finish_by_search("halin-solver-fallback")
    return painter.report()


def _is_k4(g: Graph) -> bool:
    return g.n == 4 and len(g.edges) == 6


def _tree_is_star(g: Graph, spec: FamilySpec) -> bool:
    return g.n == len(spec.params["leaf_order"]) + 1


def _two_block_boundary(parents: list[int]) -> Optional[int]:
    """Index i such that leaves i-1 and i have different parents and each
    sits in a parent run of length >= 2 (all indices cyclic)."""
    k = len(parents)
    for i in range(k):
        if (
            parents[i - 1] != parents[i]
            and parents[i - 2] == parents[i - 1]
            and parents[i] == parents[(i + 1) % k]
        ):
            return i
    return None


# ----------------------------------------------------------------- K4 ---

def _k4_case1_order(v0, x, y, z):
    return [(z, x), (z, y), (y, z), (x, z), (y, x), (x, y), (v0, z), (v0, y), (v0, x)]


def _k4_case1_far_order(v0, x, y, z):
    # equal pair away from x: both late slots see both pair colours
    return [(x, y), (x, z), (y, x), (z, x), (y, z), (z, y), (v0, z), (v0, y), (v0, x)]


def _colour_k4(painter: Painter, vs: tuple[int, int, int, int]) -> None:
    v0, v1, v2, v3 = vs

    def lst(x, y):
        return painter.lists[painter.id_of(x, y)]

    target = lst(v0, v1)
    (a, b, c), _case = choose_k4_triple(lst(v1, v0), lst(v2, v0), lst(v3, v0), target)

    if len({a, b, c}) <= 2:
        for vert, col in ((v1, a), (v2, b), (v3, c)):
            painter.paint(painter.id_of(vert, v0), col, "halin-k4-pick")
        if a == b:
            order = _k4_case1_order(v0, v1, v2, v3)
        elif a == c:
            order = _k4_case1_order(v0, v1, v3, v2)
        else:
            order = _k4_case1_far_order(v0, v1, v2, v3)
        for pair in order:
            painter.greedy(painter.id_of(*pair), "halin-k4-case1")
        return

    if a not in target and b not in target:
        _k4_case2(painter, v0, (v1, a), (v2, b), (v3, c))
    elif a not in target and c not in target:
        _k4_case2(painter, v0, (v1, a), (v3, c), (v2, b))
    else:
        _k4_pattern_far(painter, v0, v1, v2, v3, lst)


def _k4_case2(painter, v0, x_pick, y_pick, z_pick) -> None:
    """All three selector colours distinct, the pair on x and y avoiding
    the list of (v0, v0·x)."""
    (x, px), (y, py), (z, pz) = x_pick, y_pick, z_pick

    def lst(s, t):
        return painter.lists[painter.id_of(s, t)]

    painter.paint(painter.id_of(x, v0), px, "halin-k4-pick")
    painter.paint(painter.id_of(y, v0), py, "halin-k4-pick")
    if len(lst(v0, y) & {px, py}) <= 1:
        # z's colour is dropped and re-chosen greedily mid-order
        order = [(x, z), (x, y), (y, x), (y, z), (z, y), (z, x), (z, v0),
                 (v0, z), (v0, y), (v0, x)]
        tag = "halin-k4-case2a"
    elif len(lst(v0, z) & {px, py}) <= 1:
        order = [(x, z), (x, y), (y, x), (y, z), (z, y), (z, x), (z, v0),
                 (v0, y), (v0, z), (v0, x)]
        tag = "halin-k4-case2a"
    else:
        # both pair colours live in both remaining inner lists: keep z's
        # colour, move the pair onto the inner incidences instead
        painter.unpaint(painter.id_of(x, v0))
        painter.unpaint(painter.id_of(y, v0))
        painter.paint(painter.id_of(z, v0), pz, "halin-k4-pick")
        painter.paint(painter.id_of(v0, y), px, "halin-k4-case2b")
        painter.paint(painter.id_of(v0, z), py, "halin-k4-case2b")
        if py not in lst(x, v0):
            d = min(lst(x, y))
        elif py in lst(x, y):
            d = py
        else:
            d = min(lst(x, y) - lst(x, v0))
        painter.paint(painter.id_of(x, y), d, "halin-k4-case2b")
        order = [(z, x), (z, y), (y, z), (y, v0), (y, x), (x, z), (x, v0), (v0, x)]
        tag = "halin-k4-case2b"
    for pair in order:
        painter.greedy(painter.id_of(*pair), tag)


def _k4_pattern_far(painter, v0, v1, v2, v3, lst) -> None:
    """The avoiding pair sits on v2 and v3 (forced when the list of
    (v1, v1·v0) equals the list of (v0, v0·v1) and the three source lists
    are pairwise disjoint).  Re-choose the pair against the inner guard and
    recolour (v1, v1·v0) greedily."""
    B, C = lst(v2, v0), lst(v3, v0)
    guard = lst(v0, v2)
    found = None
    for b2 in sorted(B):
        for c2 in sorted(C):
            if len(guard & {b2, c2}) <= 1:
                found = (b2, c2)
                break
        if found:
            break
    if found is None:  # pragma: no cover - impossible: |B | C| > |guard|
        raise IncolourError("k4 pair re-choice failed")
    b2, c2 = found
    painter.paint(painter.id_of(v2, v0), b2, "halin-k4-pick")
    painter.paint(painter.id_of(v3, v0), c2, "halin-k4-pick")
    order = [
        (v3, v1), (v3, v2), (v2, v3), (v2, v1), (v1, v2), (v1, v3),
        (v1, v0), (v0, v3), (v0, v2), (v0, v1),
    ]
    for pair in order:
        painter.greedy(painter.id_of(*pair), "halin-k4-far-pair")


# ------------------------------------------------------- tree-first ---

def _colour_tree_first(painter: Painter, spec: FamilySpec) -> None:
    """Colour the inner tree greedily, then the outer cycle by the exact
    ring transfer (:meth:`Painter.paint_ring`) in leaf order; each cycle
    incidence keeps at least four colours, which always suffices on a
    cycle."""
    _colour_tree_part(painter, spec.params["tree_edges"], "halin-tree")
    painter.paint_ring(spec.params["leaf_order"], "halin-outer-cycle")


# --------------------------------------------------------- boundary ---

def _tree_path(tree: Graph, s: int, t: int) -> list[int]:
    prev = {s: None}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        if v == t:
            break
        for w in tree.adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [t]
    while path[-1] != s:
        path.append(prev[path[-1]])
    return path[::-1]


def _colour_boundary(
    painter: Painter,
    tree: Graph,
    leaf_order: Sequence[int],
    parents: list[int],
    start: int,
) -> None:
    k = len(leaf_order)
    v = leaf_order[start - 1:] + leaf_order[:start - 1]
    t = parents[start - 1:] + parents[:start - 1]
    # now t[0] != t[1], t[-1] == t[0], t[2] == t[1]

    def lst(x, y):
        return painter.lists[painter.id_of(x, y)]

    t0, t1 = t[0], t[1]
    picks, _case = choose_halin_boundary(
        lst(v[-1], t0), lst(v[0], t0), lst(v[0], v[1]), lst(t1, v[1]), lst(v[2], v[1]),
        lst(v[-1], v[0]), lst(v[0], v[-1]), lst(v[1], v[0]),
    )
    a, b, c, d, e = picks
    painter.paint(painter.id_of(v[-1], t0), a, "halin-boundary-pick")
    painter.paint(painter.id_of(v[0], t0), b, "halin-boundary-pick")
    painter.paint(painter.id_of(v[0], v[1]), c, "halin-boundary-pick")
    painter.paint(painter.id_of(t1, v[1]), d, "halin-boundary-pick")
    painter.paint(painter.id_of(v[2], v[1]), e, "halin-boundary-pick")

    path = _tree_path(tree, t0, t1)

    # internal incidences of t0, the boundary leaf edge first
    first = [painter.id_of(t0, v[0])]
    if tree.has_edge(t0, t1):
        first.append(painter.id_of(t0, t1))
    for i in first:
        painter.greedy(i, "halin-boundary-t0")
    for w in tree.adj[t0]:
        i = painter.id_of(t0, w)
        if not painter.painted(i):
            painter.greedy(i, "halin-boundary-t0")

    # internal incidences along the path, predecessor edge first
    for pos in range(1, len(path) - 1):
        u = path[pos]
        painter.greedy(painter.id_of(u, path[pos - 1]), "halin-boundary-path")
        for w in tree.adj[u]:
            i = painter.id_of(u, w)
            if not painter.painted(i):
                painter.greedy(i, "halin-boundary-path")

    # the guarded corner of t1
    painter.greedy(painter.id_of(t1, path[-2]), "halin-boundary-t1")
    painter.greedy(painter.id_of(v[1], t1), "halin-boundary-t1")
    painter.greedy(painter.id_of(t1, v[2]), "halin-boundary-t1")
    for w in tree.adj[t1]:
        i = painter.id_of(t1, w)
        if not painter.painted(i):
            painter.greedy(i, "halin-boundary-t1")

    # external incidences of every path vertex
    for u in path:
        for w in tree.adj[u]:
            i = painter.id_of(w, u)
            if not painter.painted(i):
                painter.greedy(i, "halin-boundary-ext")

    # hang the remaining subtrees off the path
    on_path = set(path)
    for u in path:
        for w in tree.adj[u]:
            if w in on_path or tree.degree(w) == 1:
                continue
            _colour_subtree(painter, tree, u, w)

    # close the outer cycle
    painter.greedy(painter.id_of(v[1], v[2]), "halin-boundary-cycle")
    for i in range(2, k - 1):
        painter.greedy(painter.id_of(v[i], v[i + 1]), "halin-boundary-cycle")
        painter.greedy(painter.id_of(v[i + 1], v[i]), "halin-boundary-cycle")
    painter.greedy(painter.id_of(v[-1], v[0]), "halin-boundary-close")
    painter.greedy(painter.id_of(v[0], v[-1]), "halin-boundary-close")
    painter.greedy(painter.id_of(v[1], v[0]), "halin-boundary-close")


def _colour_subtree(painter: Painter, tree: Graph, u: int, w: int) -> None:
    """Extend the two already-painted incidences of the edge u-w over the
    maximal subtree hanging away from u."""
    edges = [(u, w)]
    todo = [(w, u)]
    while todo:
        x, back = todo.pop()
        for y in tree.adj[x]:
            if y != back:
                edges.append((x, y))
                todo.append((y, x))
    _colour_tree_part(painter, edges, "halin-boundary-subtree")


def _colour_tree_part(painter: Painter, edges: Sequence[tuple[int, int]], tag: str) -> None:
    """Colour the tree spanned by ``edges`` (host vertices) with
    :func:`colour_tree`, extending the incidences already painted there, and
    paint the rest into ``painter`` in host incidence-id order under
    ``tag``."""
    sub, sub_lists, host_of = relabelled_subgraph(painter.graph, painter.lists, edges)
    pre = {s: painter.colour[h] for s, h in enumerate(host_of) if painter.painted(h)}
    rep = colour_tree(sub, sub_lists, pre=pre)
    for s, h in enumerate(host_of):
        if not painter.painted(h):
            painter.paint(h, rep.colouring[s], tag)
