"""Graphs, incidences, incidence adjacency and colouring validation.

An incidence of a graph is a pair ``(v, e)`` where ``e`` is an edge with
endpoint ``v``.  Two incidences ``(v, e)`` and ``(w, f)`` are adjacent when
``v == w``, or ``e == f``, or the edge ``vw`` equals ``e`` or ``f``.  Every
structure in this module is keyed by *incidence ids*: positions in the
deterministic enumeration returned by :func:`incidences`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Edge = tuple[int, int]


class IncolourError(Exception):
    """Base class for library errors."""


class GraphError(IncolourError):
    """Malformed graph, list assignment or colouring structure."""


class InputError(IncolourError):
    """An operation was called outside its documented preconditions."""


def check_ints(**values) -> None:
    """Raise :class:`InputError` at the first of ``values`` that is not an
    int, or is a bool, naming it."""
    for name, value in values.items():
        if type(value) is not int:
            raise InputError(f"{name} must be an integer, got {value!r}")


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        # without the cache, which holds views that do not pickle
        return Graph, (self.n, self.edges)

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
        _, head, _, tail = _vertex_index(g)
        g._cache["incidences"] = tuple(
            Incidence(v, canon_edge(v, u)) for v, u in zip(tail, head))
    return g._cache["incidences"]


def incidence_id(g: Graph, vertex: int, other: int) -> int:
    """Id of the incidence ``(vertex, vertex·other)``: one lookup in the
    graph's read-only map ``(v, u) -> id``, built on first use from the
    ``tail`` and ``head`` of :func:`_vertex_index`."""
    if "incidence_ids" not in g._cache:
        _, head, _, tail = _vertex_index(g)
        ids = dict(zip(zip(tail, head), range(len(head))))
        g._cache["incidence_ids"] = MappingProxyType(ids)
    try:
        return g._cache["incidence_ids"][vertex, other]
    except KeyError:
        raise GraphError(f"({vertex}, {vertex}{other}) is not an incidence") from None


def incidence_adjacent(a: Incidence, b: Incidence) -> bool:
    """Whether two distinct incidences are adjacent."""
    if a.vertex == b.vertex:
        return a != b
    if a.edge == b.edge:
        return True
    return canon_edge(a.vertex, b.vertex) in (a.edge, b.edge)


def _vertex_index(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The incidence ids grouped by vertex, as ``(off, head, mate, tail)``:
    the one walk of ``g.adj`` that fixes the id order.

    An incidence ``(v, vu)`` has its id by (vertex, other endpoint) order,
    so ``off[v]:off[v+1]`` are the ids of the incidences at ``v``; for such
    an id ``i``, ``tail[i]`` is ``v``, ``head[i]`` is ``u`` and ``mate[i]``
    is the id of ``(u, uv)``.  So ``head[mate[i]]`` is ``tail[i]``.
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
        tail: list[int] = []
        for v, a in enumerate(g.adj):
            head.extend(a)
            tail.extend([v] * len(a))
            for u in a:
                mate.append(cursor[u])
                cursor[u] += 1
        g._cache["vertex_index"] = (tuple(off), tuple(head), tuple(mate), tuple(tail))
    return g._cache["vertex_index"]


def incidence_neighbour_ids(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per-incidence sorted ids of adjacent incidences (the incidence graph
    as an adjacency structure).

    The neighbours of ``(v, vu)`` are ``A-(v) | A+(v) | A-(u)`` minus
    itself: the incidences at ``v``, their mates, and the incidences at
    ``u``, ``2*deg(v) + deg(u) - 2`` in all.
    """
    if "incidence_neighbour_ids" not in g._cache:
        off, head, mate, _ = _vertex_index(g)
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


class ListAssignment(tuple):
    """Colour lists (sets of non-negative ints) keyed by incidence id: the
    tuple of those lists, as frozensets.

    Building one checks every colour of every list: it is the entry for
    lists from outside the library.  Lists the library draws itself from
    colours it picked are wrapped by :meth:`_unchecked` instead."""

    __slots__ = ()

    def __new__(cls, lists: Iterable[Iterable[int]]):
        out = []
        for i, l in enumerate(lists):
            s = frozenset(l)
            if not s:
                raise GraphError(f"empty colour list for incidence {i}")
            if any((not isinstance(c, int)) or c < 0 for c in s):
                raise GraphError(f"colours must be non-negative ints (incidence {i})")
            # a bool is kept as the int it equals, which a file can hold
            out.append(s if set(map(type, s)) == {int} else frozenset(map(int, s)))
        return tuple.__new__(cls, out)

    @classmethod
    def _unchecked(cls, lists: tuple[frozenset[int], ...]) -> "ListAssignment":
        """``lists``, non-empty frozensets of non-negative ints that the
        library built itself, wrapped without a check."""
        return tuple.__new__(cls, lists)

    @classmethod
    def uniform(cls, g: Graph, k: int) -> "ListAssignment":
        """Every incidence gets the list ``{1..k}``; ``k`` is an int (not a
        bool) of at least 1."""
        if type(k) is not int:
            raise GraphError(f"uniform list size must be an integer, got {k!r}")
        if k < 1:
            raise GraphError("uniform list size must be >= 1")
        colours = frozenset(range(1, k + 1))
        return cls._unchecked((colours,) * (2 * len(g.edges)))

    @classmethod
    def from_dict(cls, g: Graph, lists: Mapping[int, Iterable[int]]) -> "ListAssignment":
        m = 2 * len(g.edges)
        missing = [i for i in range(m) if i not in lists]
        if missing:
            raise GraphError(f"missing lists for incidences {missing[:5]}")
        return cls([lists[i] for i in range(m)])

    @property
    def lists(self) -> "ListAssignment":
        """The assignment itself, for readers written when it wrapped its
        tuple under this name."""
        return self

    def min_size(self) -> int:
        return min(map(len, self), default=0)


def check_lists_cover(g: Graph, lists: ListAssignment) -> None:
    """Raise :class:`InputError` unless ``lists`` has one list per incidence."""
    if len(lists) != 2 * len(g.edges):
        raise InputError("list assignment does not cover the incidences")


class IncidenceColouring(dict):
    """A (possibly partial) map incidence id -> colour: a dict, built as
    one is, from a mapping (which it copies) or from ``(id, colour)``
    pairs."""

    __slots__ = ()

    @property
    def assignment(self) -> "IncidenceColouring":
        """The colouring itself, for readers written when it wrapped its
        dict under this name."""
        return self


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

    Properness is two set passes, in time linear in the number of
    incidences: the pairs (vertex of ``i``, colour of ``i``) must be
    distinct, so the colours at each vertex are; and none of them may equal
    a pair (other endpoint of ``j``, colour of ``j``), so every ``(v, vu)``
    avoids every colour used at ``u``.  These two conditions cover the
    three cases of incidence adjacency (same vertex; same edge; ``vw``
    equal to one of the two edges).  Only when one fails are the
    incidences searched for the first clashing pair ``(i, j)``, ``i < j``,
    in id order, which the violation names, from
    :func:`incidence_neighbour_ids` (so only a clash builds that table).
    A key that is not the int id of an incidence is a structural error
    (:class:`GraphError`, naming the key), not a colouring violation.

    The tests check this and :func:`incidence_neighbour_ids` against a
    pairwise scan with :func:`incidence_adjacent`.
    """
    _, head, _, tail = _vertex_index(g)
    m = len(head)
    for i in colouring:
        if type(i) is not int or not 0 <= i < m:
            raise GraphError(f"unknown incidence id {i!r}")
    total = len(colouring) == m
    violation = None

    if total:
        col = list(map(colouring.__getitem__, range(m)))
    else:
        # A fresh object per gap equals no colour and no other gap.
        col = [colouring[i] if i in colouring else object() for i in range(m)]
    at_tail = set(zip(tail, col))
    proper = len(at_tail) == m and at_tail.isdisjoint(zip(head, col))
    if not proper:
        neigh = incidence_neighbour_ids(g)
        i, j = next((i, j) for i in sorted(colouring) for j in neigh[i]
                    if j > i and j in colouring and colouring[j] == colouring[i])
        violation = f"incidences {i} and {j} are adjacent and share colour {colouring[i]}"

    list_respecting: Optional[bool] = None
    if lists is not None:
        check_lists_cover(g, lists)
        if total:
            list_respecting = all(map(frozenset.__contains__, lists, col))
        else:
            list_respecting = all(c in lists[i] for i, c in colouring.items())
        if not list_respecting and violation is None:
            i = min(i for i, c in colouring.items() if c not in lists[i])
            violation = f"incidence {i} uses colour {colouring[i]} outside its list"
    if violation is None and not total:
        missing = next(i for i in range(m) if i not in colouring)
        violation = f"incidence {missing} is uncoloured"
    if violation is None:
        return _VALID[list_respecting]
    return Verdict(total=total, proper=proper, list_respecting=list_respecting, violation=violation)
