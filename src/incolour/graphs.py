"""Graphs, incidences, incidence adjacency and colouring validation.

An incidence of a graph is a pair ``(v, e)`` where ``e`` is an edge with
endpoint ``v``.  Two incidences ``(v, e)`` and ``(w, f)`` are adjacent when
``v == w``, or ``e == f``, or the edge ``vw`` equals ``e`` or ``f``.  Every
structure in this module is keyed by *incidence ids*: positions in the
deterministic enumeration returned by :func:`incidences`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Edge = tuple[int, int]


class IncolourError(Exception):
    """Base class for library errors."""


class GraphError(IncolourError):
    """Malformed graph, list assignment or colouring structure."""


class InputError(IncolourError):
    """An operation was called outside its documented preconditions."""


def canon_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def repeated_edge(edges: Iterable[Sequence[int]]) -> Optional[Edge]:
    """The first edge that ``edges`` names a second time, in either
    orientation, or None.  :class:`Graph` merges such repeats; the readers
    of edge lists from outside reject them."""
    seen: set[Edge] = set()
    for u, v in edges:
        e = canon_edge(u, v)
        if e in seen:
            return e
        seen.add(e)
    return None


class Graph:
    """Simple undirected loopless graph on dense vertices ``0..n-1``.

    Instances are immutable after construction and safe to share between
    threads; derived structures (incidence enumeration, adjacency) are
    cached lazily and are pure functions of the graph.
    """

    __slots__ = ("n", "edges", "adj", "_cache")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        canon = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            canon.add(canon_edge(u, v))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._cache: dict = {}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @property
    def edge_set(self) -> frozenset[Edge]:
        if "edge_set" not in self._cache:
            self._cache["edge_set"] = frozenset(self.edges)
        return self._cache["edge_set"]

    def without_edge(self, u: int, v: int) -> "Graph":
        e = canon_edge(u, v)
        return Graph(self.n, [f for f in self.edges if f != e])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Incidence(NamedTuple):
    vertex: int
    edge: Edge


def incidences(g: Graph) -> tuple[Incidence, ...]:
    """All incidences of ``g``, sorted by (vertex, other endpoint).

    Each edge contributes two incidences, so the result has length
    ``2 * len(g.edges)``.  The position of an incidence in this tuple is
    its id; every list assignment and colouring is keyed by these ids.
    """
    if "incidences" not in g._cache:
        out = []
        for v in range(g.n):
            for u in g.adj[v]:
                out.append(Incidence(v, canon_edge(v, u)))
        g._cache["incidences"] = tuple(out)
    return g._cache["incidences"]


def incidence_id(g: Graph, vertex: int, other: int) -> int:
    """Id of the incidence ``(vertex, vertex·other)``: the ids at ``vertex``
    start at ``off[vertex]`` and follow ``g.adj[vertex]`` in order."""
    if 0 <= vertex < g.n:
        nbrs = g.adj[vertex]
        pos = bisect_left(nbrs, other)
        if pos < len(nbrs) and nbrs[pos] == other:
            return _vertex_index(g)[0][vertex] + pos
    raise GraphError(f"({vertex}, {vertex}{other}) is not an incidence")


def incidence_adjacent(a: Incidence, b: Incidence) -> bool:
    """Whether two distinct incidences are adjacent."""
    if a.vertex == b.vertex:
        return a != b
    if a.edge == b.edge:
        return True
    return canon_edge(a.vertex, b.vertex) in (a.edge, b.edge)


def incidence_neighbourhood(inc: Incidence, g: Graph) -> set[Incidence]:
    """Incidences adjacent to ``inc = (v, vu)`` in ``g``.

    The result is ``A-(v) | A+(v) | A-(u)`` minus ``inc`` itself and has
    exactly ``2*deg(v) + deg(u) - 2`` members.
    """
    v = inc.vertex
    e = inc.edge
    u = e[0] if e[1] == v else e[1]
    if e not in g.edge_set:
        raise GraphError(f"{inc!r} is not an incidence of the graph")
    out: set[Incidence] = set()
    for x in g.adj[v]:
        out.add(Incidence(v, canon_edge(v, x)))   # A-(v)
        out.add(Incidence(x, canon_edge(x, v)))   # A+(v)
    for x in g.adj[u]:
        out.add(Incidence(u, canon_edge(u, x)))   # A-(u)
    out.discard(inc)
    return out


def _vertex_index(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The incidence ids grouped by vertex, as ``(off, head, mate)``.

    ``off[v]:off[v+1]`` are the ids of the incidences at ``v`` (contiguous,
    because :func:`incidences` sorts by vertex); for ``i = (v, vu)``,
    ``head[i]`` is ``u`` and ``mate[i]`` is the id of ``(u, uv)``.  So
    ``head[mate[i]]`` is ``v``.
    """
    if "vertex_index" not in g._cache:
        off = [0]
        for a in g.adj:
            off.append(off[-1] + len(a))
        # The incidences (u, uv) at a fixed u are met in increasing order of
        # v, which is their id order at u: one cursor per vertex suffices.
        cursor = off[:-1]
        head: list[int] = []
        mate: list[int] = []
        for a in g.adj:
            head.extend(a)
            for u in a:
                mate.append(cursor[u])
                cursor[u] += 1
        g._cache["vertex_index"] = (tuple(off), tuple(head), tuple(mate))
    return g._cache["vertex_index"]


def incidence_neighbour_ids(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per-incidence sorted ids of adjacent incidences (the incidence graph
    as an adjacency structure).

    The neighbours of ``(v, vu)`` are ``A-(v) | A+(v) | A-(u)`` minus
    itself: the incidences at ``v``, their mates, and the incidences at
    ``u``.
    """
    if "incidence_neighbour_ids" not in g._cache:
        off, head, mate = _vertex_index(g)
        out = []
        for v in range(g.n):
            lo, hi = off[v], off[v + 1]
            around_v = set(range(lo, hi))
            around_v.update(mate[lo:hi])
            for i in range(lo, hi):
                u = head[i]
                ids = around_v.union(range(off[u], off[u + 1]))
                ids.discard(i)
                out.append(tuple(sorted(ids)))
        g._cache["incidence_neighbour_ids"] = tuple(out)
    return g._cache["incidence_neighbour_ids"]


def incidence_graph(g: Graph) -> Graph:
    """The graph on the incidences of ``g``: vertex ``i`` is the ``i``-th
    incidence, edges given by incidence adjacency.

    A proper vertex colouring of this graph is exactly an incidence
    colouring of ``g``.
    """
    neigh = incidence_neighbour_ids(g)
    edges = [(i, j) for i, ids in enumerate(neigh) for j in ids if i < j]
    return Graph(len(neigh), edges)


class ListAssignment:
    """Colour lists (sets of non-negative ints) keyed by incidence id."""

    __slots__ = ("lists",)

    def __init__(self, lists: Sequence[Iterable[int]]):
        # every member is type-checked (a float equal to an int colour of an
        # earlier list must still fail), the sign once per distinct colour;
        # on any failure the per-list loop names the first bad incidence
        try:
            out = tuple(map(frozenset, lists))
        except TypeError:
            out = None
        if (out is None or not all(out)
                or not all(map(isinstance, chain.from_iterable(out), repeat(int)))
                or min(frozenset().union(*out), default=0) < 0):
            for i, l in enumerate(lists):
                s = frozenset(l)
                if not s:
                    raise GraphError(f"empty colour list for incidence {i}")
                if any((not isinstance(c, int)) or c < 0 for c in s):
                    raise GraphError(f"colours must be non-negative ints (incidence {i})")
        self.lists: tuple[frozenset[int], ...] = out

    @classmethod
    def uniform(cls, g: Graph, k: int) -> "ListAssignment":
        """Every incidence gets the list ``{1..k}``."""
        if k < 1:
            raise GraphError("uniform list size must be >= 1")
        colours = frozenset(range(1, k + 1))
        return cls([colours] * (2 * len(g.edges)))

    @classmethod
    def from_dict(cls, g: Graph, lists: Mapping[int, Iterable[int]]) -> "ListAssignment":
        m = 2 * len(g.edges)
        missing = [i for i in range(m) if i not in lists]
        if missing:
            raise GraphError(f"missing lists for incidences {missing[:5]}")
        return cls([lists[i] for i in range(m)])

    def __len__(self) -> int:
        return len(self.lists)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.lists[i]

    def min_size(self) -> int:
        return min((len(l) for l in self.lists), default=0)


def check_lists_cover(g: Graph, lists: ListAssignment) -> None:
    """Raise :class:`InputError` unless ``lists`` has one list per incidence."""
    if len(lists) != 2 * len(g.edges):
        raise InputError("list assignment does not cover the incidences")


class IncidenceColouring:
    """A (possibly partial) map incidence id -> colour."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Optional[Mapping[int, int]] = None):
        self.assignment: dict[int, int] = dict(assignment or {})

    def __getitem__(self, i: int) -> int:
        return self.assignment[i]

    def __contains__(self, i: int) -> bool:
        return i in self.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceColouring) and self.assignment == other.assignment

    def items(self):
        return self.assignment.items()


@dataclass(frozen=True)
class Verdict:
    """Result of validating a colouring: totality, properness and (when a
    list assignment was supplied) list membership, plus the first violation
    found."""

    total: bool
    proper: bool
    list_respecting: Optional[bool]
    violation: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.total and self.proper and self.list_respecting in (True, None)


# The verdicts without a violation, keyed by ``list_respecting``.  Verdicts
# are immutable, so these are shared: building one is about a fifth of the
# whole check on a small graph.
_VALID = {True: Verdict(True, True, True), None: Verdict(True, True, None)}


def validate_colouring(
    g: Graph,
    lists: Optional[ListAssignment],
    colouring: IncidenceColouring,
) -> Verdict:
    """Check a colouring against ``g`` (and ``lists``, if given).

    Properness is checked vertex by vertex, in time linear in the number of
    incidences: the colours at each vertex ``u`` must be distinct, and every
    ``(v, vu)`` must avoid every colour used at ``u``.  These two conditions
    cover the three cases of incidence adjacency (same vertex; same edge;
    ``vw`` equal to one of the two edges).  Only when one fails are the
    incidences searched for the first clashing pair ``(i, j)``, ``i < j``,
    in id order, which the violation names.  Unknown incidence ids are
    structural errors (:class:`GraphError`), not colouring violations.

    The solvers' adjacency (:func:`incidence_neighbour_ids`) is built from
    the same per-vertex index, so the tests check both against a pairwise
    scan with :func:`incidence_adjacent`.
    """
    off, head, mate = _vertex_index(g)
    m = len(head)
    assignment = colouring.assignment
    for i in assignment:
        if not (0 <= i < m):
            raise GraphError(f"unknown incidence id {i}")
    total = len(assignment) == m
    violation = None

    if total:
        col = list(map(assignment.__getitem__, range(m)))
    else:
        # A fresh object per gap equals no colour and no other gap.
        col = [assignment[i] if i in assignment else object() for i in range(m)]
    col_of_mate = list(map(col.__getitem__, mate))
    proper = True
    for lo, hi in zip(off, off[1:]):
        here = set(col[lo:hi])
        if len(here) < hi - lo or not here.isdisjoint(col_of_mate[lo:hi]):
            proper = False
            i, j = next(_clashing_pairs(off, head, mate, assignment))
            violation = f"incidences {i} and {j} are adjacent and share colour {assignment[i]}"
            break

    list_respecting: Optional[bool] = None
    if lists is not None:
        check_lists_cover(g, lists)
        members = lists.lists
        list_respecting = all(c in members[i] for i, c in assignment.items())
        if not list_respecting and violation is None:
            i = min(i for i, c in assignment.items() if c not in members[i])
            violation = f"incidence {i} uses colour {assignment[i]} outside its list"
    if violation is None and not total:
        missing = next(i for i in range(m) if i not in colouring)
        violation = f"incidence {missing} is uncoloured"
    if violation is None:
        return _VALID[list_respecting]
    return Verdict(total=total, proper=proper, list_respecting=list_respecting, violation=violation)


def _clashing_pairs(off, head, mate, assignment: Mapping[int, int]):
    """Pairs ``(i, j)``, ``i < j``, of adjacent incidences with one colour,
    in lexicographic order."""
    for i in sorted(assignment):
        c = assignment[i]
        u, v = head[i], head[mate[i]]
        lo, hi = off[v], off[v + 1]
        around = {*range(lo, hi), *mate[lo:hi], *range(off[u], off[u + 1])}
        for j in sorted(j for j in around if j > i and j in assignment and assignment[j] == c):
            yield i, j
